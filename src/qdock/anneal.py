"""QUBO solvers: Metropolis simulated annealing and an exhaustive oracle.

Annealing runs n_reads independent restarts as one seeded batch, stepped
lockstep. Each read owns an RNG stream seeded from (seed, read index) and
consumes it in a fixed order — initial bitstring, then per sweep one
variable permutation and one block of uniforms. One sweep proposes a
single-bit flip for every variable in the read's permuted order with
acceptance min(1, exp(-dE/T)) on a geometric temperature ladder. The
n_threads argument is kept for compatibility; it changes neither the
results nor how they are computed.

Each read's start energy comes from `qubo.active_sums`, the kernel that
scores every sample, and its local fields f = h + x Q_sym (Q_sym is the
symmetric, zero-diagonal coupling matrix) from its own active rows.
Proposing a flip of v then costs one gather, dE = (1 - 2 x_v) f_v, and
only an accepted flip touches the fields: f += (1 - 2 x_v) Q_sym[v] for
that read. A step thus costs O(reads) plus O(accepted flips x n)
instead of O(reads x n), as in dwave-neal's sampler.

Once a sweep's permutations and uniforms are drawn, one array pass prices
every (step, read) proposal from the sweep-start state, O(reads x n).
Before the first step at which some read accepts, no sign, field or
energy changes, so those decisions are final: a sweep in which nothing is
accepted ends there, and otherwise the lockstep steps run from that first
accepted proposal on. The late, cold sweeps, where almost every proposal
is rejected, thus cost one array pass each and no Python loop.

All three solvers turn bit rows into a SampleSet through `_sample_set`:
SA's best state per read, brute force's candidate listing (see
`brute_force`) and external bitstrings in file order. The rows are scored
together by `qubo.energies`, one array pass per term and one fsum per row
and term, never from the incremental tracking or the scan, so each energy
is the row's `qubo.energy`. Each row becomes a Sample with `read` = its
row index; samples are stable-sorted by energy, so ties keep row order.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SampleFormatError
from .qubo import Assignment, QuboProblem, active_sums, energies

BRUTE_FORCE_MAX_VARS = 24
TEMPERATURE_FLOOR = 1e-6


@dataclass(frozen=True)
class AnnealSchedule:
    """Annealing parameters; None temperatures are sized from the problem
    (t_initial = largest |coefficient|, t_final = 1e-3 x smallest nonzero
    |coefficient|, floored at 1e-6)."""

    n_reads: int = 100
    n_sweeps: int = 2000
    t_initial: float | None = None
    t_final: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_reads < 1 or self.n_sweeps < 1:
            raise ValueError("n_reads and n_sweeps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.t_initial is not None and not self.t_initial > 0:
            raise ValueError("t_initial must be positive")
        if self.t_final is not None and not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if (
            self.t_initial is not None
            and self.t_final is not None
            and self.t_initial < self.t_final
        ):
            raise ValueError("t_initial must be >= t_final")


@dataclass(frozen=True)
class Sample:
    assignment: Assignment
    energy: float
    term_energies: dict[str, float]
    read: int

    def to_dict(self) -> dict:
        return {
            "bits": self.assignment.to_string(),
            "energy": self.energy,
            "terms": dict(self.term_energies),
            "read": self.read,
        }


@dataclass
class SampleSet:
    """Samples sorted ascending by energy, ties kept in read order.

    wall_time is informational only and deliberately left out of
    serialization so that equal inputs produce byte-identical documents.
    """

    samples: list[Sample]
    metadata: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def best(self) -> Sample:
        if not self.samples:
            raise ValueError("empty sample set")
        return self.samples[0]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def to_dict(self) -> dict:
        return {
            "metadata": dict(self.metadata),
            "samples": [s.to_dict() for s in self.samples],
        }


def resolve_temperatures(problem: QuboProblem, sched: AnnealSchedule) -> tuple[float, float]:
    values = problem.coeffs.arrays[2]
    magnitudes = np.abs(values[values != 0.0])
    t_initial = sched.t_initial
    if t_initial is None:
        t_initial = magnitudes.max() if magnitudes.size else 1.0
    t_final = sched.t_final
    if t_final is None:
        t_final = max(1e-3 * magnitudes.min(), TEMPERATURE_FLOOR) if magnitudes.size else TEMPERATURE_FLOOR
    t_final = min(t_final, t_initial)
    return float(t_initial), float(t_final)


def _temperature_ladder(t_initial: float, t_final: float, n_sweeps: int) -> np.ndarray:
    if n_sweeps == 1:
        return np.array([t_initial])
    exponents = np.arange(n_sweeps) / (n_sweeps - 1)
    return t_initial * (t_final / t_initial) ** exponents


def _anneal_reads(
    problem: QuboProblem, seed: int, n_reads: int, temps: np.ndarray
) -> np.ndarray:
    """Run every read lockstep; returns each read's best bitstring as a row."""
    h, q_sym = problem.dense
    n = problem.n_vars
    rngs = [np.random.default_rng([seed, r]) for r in range(n_reads)]
    bits = np.empty((n_reads, n), dtype=np.uint8)
    for k, rng in enumerate(rngs):
        bits[k] = rng.integers(0, 2, size=n, dtype=np.uint8)

    # One read per kernel call bounds the list of active values it makes.
    running = np.array([active_sums(problem.coeffs.arrays, row[None] != 0)[0] for row in bits])
    fields = np.empty((n_reads, n))
    for k in range(n_reads):
        fields[k] = h + q_sym[bits[k] != 0].sum(axis=0)
    best_energy = running.copy()
    best_state = bits.copy()

    # The live state is signs[r, v] = 1 - 2 x[r, v], the sign of both the
    # energy change and the field update when v flips. Entry (r, v) of a
    # flat view is r * n + v.
    signs = 1.0 - 2.0 * bits
    signs_flat = signs.reshape(-1)
    fields_flat = fields.reshape(-1)
    read_base = (np.arange(n_reads) * n)[:, None]
    perms = np.empty((n_reads, n), dtype=np.intp)
    unifs = np.empty((n_reads, n), dtype=np.float64)
    for temperature in temps:
        for k, rng in enumerate(rngs):
            perms[k] = rng.permutation(n)
            unifs[k] = rng.random(n)
        # Step-major copies: row `step` holds every read's proposal.
        flat_steps = np.ascontiguousarray((perms + read_base).T)
        unif_steps = np.ascontiguousarray(unifs.T)
        # Every decision priced from the sweep-start state is final up to
        # the first step at which some read accepts; the lockstep loop
        # starts there.
        deltas = signs_flat[flat_steps] * fields_flat[flat_steps]
        accepts = unif_steps < np.exp(np.minimum(0.0, -deltas / temperature))
        busy = np.flatnonzero(accepts.any(axis=1))
        if not busy.size:
            continue
        first = busy[0]
        for flat, unif in zip(flat_steps[first:], unif_steps[first:]):
            sign = signs_flat[flat]
            delta = sign * fields_flat[flat]
            accept = unif < np.exp(np.minimum(0.0, -delta / temperature))
            if not accept.any():
                continue
            rows = np.flatnonzero(accept)
            flips = flat[rows]
            flip_sign = sign[rows]
            signs_flat[flips] = -flip_sign
            fields[rows] += flip_sign[:, None] * q_sym[flips - rows * n]
            running[rows] += delta[rows]
            improved = running < best_energy
            if improved.any():
                best_energy[improved] = running[improved]
                best_state[improved] = signs[improved] < 0.0
    return best_state


def _sample_set(problem: QuboProblem, rows, metadata: dict, keep: int | None = None) -> SampleSet:
    """Score the bit rows; samples sorted by energy, ties in row order."""
    samples = [
        Sample(
            assignment=Assignment(bits),
            energy=breakdown.total,
            term_energies=breakdown.terms,
            read=read,
        )
        for read, (bits, breakdown) in enumerate(zip(rows, energies(problem, rows)))
    ]
    samples.sort(key=lambda s: s.energy)
    return SampleSet(samples=samples[:keep], metadata=metadata)


def simulated_anneal(
    problem: QuboProblem, sched: AnnealSchedule, n_threads: int = 1
) -> SampleSet:
    """Seeded multi-read annealing.

    All reads run as one seeded batch; n_threads is accepted for
    compatibility and changes neither the results nor the execution.
    """
    started = time.perf_counter()
    t_initial, t_final = resolve_temperatures(problem, sched)
    temps = _temperature_ladder(t_initial, t_final, sched.n_sweeps)
    best_states = _anneal_reads(problem, sched.seed, sched.n_reads, temps)
    result = _sample_set(
        problem,
        best_states,
        {
            "solver": "sa",
            "seed": sched.seed,
            "n_reads": sched.n_reads,
            "n_sweeps": sched.n_sweeps,
            "t_initial": t_initial,
            "t_final": t_final,
        },
    )
    result.wall_time = time.perf_counter() - started
    return result


def brute_force(problem: QuboProblem, keep: int = 32) -> SampleSet:
    """Exhaustive search over all 2^n assignments (n capped at 24).

    The scan splits the variables into the low n // 2 bits and the high
    rest (bit k of a state index is variable k), so with U the strict
    upper couplings E(x) = E_lo(x_lo) + E_hi(x_hi) + x_lo^T U[lo, hi] x_hi.
    Each half's 2^half bit matrix is enumerated and scored once. One
    matrix product gives the cross term of every (high, low) pair as a
    (2^n_hi, 2^n_lo) float array; the half energies are added to it in
    place, and row s_hi, column s_lo is state s_hi * 2^n_lo + s_lo. That
    array (128 MB at 24 variables) and the boolean window mask over it
    are the only 2^n-sized allocations.

    The candidates are listed as state indices: first every state whose
    scanned energy lies within a conservative error window of the scanned
    minimum (the window hits), ascending; beyond 65,536 hits the lowest
    scanned energies are kept. Then every constraint-satisfying state
    (one point per atom, injective) that is not already a hit, in
    `itertools.permutations` order of the placements. Each candidate is
    re-scored exactly (fsum) with `read` = its listing rank, so the
    reported optimum is the true fsum optimum and the set always contains
    the best valid assignment. The returned listing is truncated to
    `keep` samples; the search itself is complete.
    """
    started = time.perf_counter()
    n = problem.n_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(
            f"brute_force supports at most {BRUTE_FORCE_MAX_VARS} variables, problem has {n}"
        )

    h, q_sym = problem.dense
    q_upper = np.triu(q_sym, 1)
    shifts = np.arange(n, dtype=np.uint32)
    lo, hi = slice(0, n // 2), slice(n // 2, n)

    def half_scan(part: slice) -> tuple[np.ndarray, np.ndarray]:
        width = part.stop - part.start
        idx = np.arange(1 << width, dtype=np.uint32)
        bits_half = ((idx[:, None] >> shifts[:width]) & 1).astype(np.float64)
        quad = ((bits_half @ q_upper[part, part]) * bits_half).sum(axis=1)
        return bits_half, bits_half @ h[part] + quad

    bits_lo, energy_lo = half_scan(lo)
    bits_hi, energy_hi = half_scan(hi)
    scanned = bits_hi @ (bits_lo @ q_upper[lo, hi]).T
    scanned += energy_hi[:, None]
    scanned += energy_lo[None, :]
    scanned = scanned.ravel()

    scale = math.fsum(np.abs(problem.coeffs.arrays[2])) + abs(problem.offset)
    window = scanned.min() + 1e-9 * max(scale, 1.0)
    hits = np.flatnonzero(scanned <= window)
    if len(hits) > 65536:
        hits = np.sort(hits[np.argsort(scanned[hits], kind="stable")[:65536]])
    valid = np.fromiter(
        (
            sum(1 << (atom * problem.n_grid + point) for atom, point in enumerate(placement))
            for placement in itertools.permutations(range(problem.n_grid), problem.n_mol)
        ),
        dtype=np.int64,
    )
    states = np.concatenate([hits, valid[~np.isin(valid, hits)]])
    rows = ((states[:, None] >> shifts) & 1).astype(np.uint8)

    result = _sample_set(
        problem, rows, {"solver": "brute_force", "n_vars": n}, keep=max(keep, 1)
    )
    result.wall_time = time.perf_counter() - started
    return result


def incremental_delta(problem: QuboProblem, assignment: Assignment, flip: int) -> float:
    """Energy change of flipping one bit, from its row/column alone."""
    if not 0 <= flip < problem.n_vars:
        raise ValueError(f"variable id {flip} out of range")
    bits = assignment.bits
    if len(bits) != problem.n_vars:
        raise ValueError(
            f"assignment has {len(bits)} bits, problem has {problem.n_vars} variables"
        )
    h, q_sym = problem.dense
    sign = 1.0 - 2.0 * float(bits[flip])
    return sign * math.fsum(np.append(q_sym[flip, bits != 0], h[flip]))


def import_samples(problem: QuboProblem, path) -> SampleSet:
    """Load externally produced bitstrings (JSON array) and score them."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise SampleFormatError(f"samples file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SampleFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(document, list):
        raise SampleFormatError(f"{path}: expected a JSON array of bitstrings")

    for position, entry in enumerate(document):
        if not isinstance(entry, str) or any(c not in "01" for c in entry):
            raise SampleFormatError(f"{path}: entry {position} is not a bitstring: {entry!r}")
        if len(entry) != problem.n_vars:
            raise SampleFormatError(
                f"{path}: entry {position} has {len(entry)} bits, problem has {problem.n_vars}"
            )
    if not document:
        raise SampleFormatError(f"{path}: no samples")
    rows = np.frombuffer("".join(document).encode("ascii"), dtype=np.uint8) - ord("0")
    return _sample_set(
        problem,
        rows.reshape(len(document), problem.n_vars),
        {"solver": "external", "source": str(path)},
    )
