"""QUBO solvers: Metropolis simulated annealing and an exhaustive oracle.

Annealing runs n_reads independent restarts as one seeded batch, stepped
lockstep. Each read owns an RNG stream seeded from (seed, read index) and
consumes it in a fixed order — initial bitstring, then per sweep one
variable permutation and one block of uniforms. One sweep proposes a
single-bit flip for every variable in the read's permuted order with
acceptance min(1, exp(-dE/T)) on a geometric temperature ladder. The
n_threads argument is kept for compatibility; it changes neither the
results nor how they are computed.

Each read keeps a vector of local fields f = h + x Q_sym (Q_sym is the
symmetric, zero-diagonal coupling matrix), set from the read's own active
rows. Proposing a flip of v then costs one gather, dE = (1 - 2 x_v) f_v,
and only an accepted flip touches the fields: f += (1 - 2 x_v) Q_sym[v]
for that read. A step thus costs O(reads) plus O(accepted flips x n)
instead of O(reads x n), as in dwave-neal's sampler.

Energies attached to returned samples are always recomputed from the
bitstring with per-term fsum, never taken from the incremental tracking,
so stored values match `qubo.energy` exactly.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SampleFormatError
from .qubo import Assignment, QuboProblem, energy

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
    magnitudes = [abs(v) for v in problem.coeffs.values() if v != 0.0]
    t_initial = sched.t_initial
    if t_initial is None:
        t_initial = max(magnitudes) if magnitudes else 1.0
    t_final = sched.t_final
    if t_final is None:
        t_final = max(1e-3 * min(magnitudes), TEMPERATURE_FLOOR) if magnitudes else TEMPERATURE_FLOOR
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

    running = np.empty(n_reads)
    fields = np.empty((n_reads, n))
    for k in range(n_reads):
        active = np.flatnonzero(bits[k])
        couplings = np.triu(q_sym[np.ix_(active, active)], 1)
        running[k] = math.fsum(np.concatenate([h[active], couplings[couplings != 0.0]]))
        fields[k] = h + q_sym[active].sum(axis=0)
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
        for flat, unif in zip(flat_steps, unif_steps):
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

    samples = []
    for read, bits in enumerate(best_states):
        assignment = Assignment(bits)
        breakdown = energy(problem, assignment)
        samples.append(
            Sample(
                assignment=assignment,
                energy=breakdown.total,
                term_energies=breakdown.terms,
                read=read,
            )
        )
    samples.sort(key=lambda s: s.energy)
    return SampleSet(
        samples=samples,
        metadata={
            "solver": "sa",
            "seed": sched.seed,
            "n_reads": sched.n_reads,
            "n_sweeps": sched.n_sweeps,
            "t_initial": t_initial,
            "t_final": t_final,
        },
        wall_time=time.perf_counter() - started,
    )


def _enumerate_valid_assignments(problem: QuboProblem):
    """All constraint-satisfying bitstrings (one point per atom, injective).

    With n_mol * n_grid <= 24 the permutation count is at most a few
    hundred, so direct enumeration is cheap.
    """
    for placement in itertools.permutations(range(problem.n_grid), problem.n_mol):
        bits = np.zeros(problem.n_vars, dtype=np.uint8)
        for atom, point in enumerate(placement):
            bits[atom * problem.n_grid + point] = 1
        yield bits


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

    Every assignment whose scanned energy lies within a conservative
    error window of the scanned minimum is then re-evaluated exactly
    (fsum), so the reported optimum is the true fsum optimum. All
    constraint-satisfying assignments are evaluated exactly as well, so
    the set always contains the best valid assignment. The returned
    listing is truncated to `keep` samples; the search itself is complete.
    """
    started = time.perf_counter()
    n = problem.n_vars
    if n > BRUTE_FORCE_MAX_VARS:
        raise ValueError(
            f"brute_force supports at most {BRUTE_FORCE_MAX_VARS} variables, problem has {n}"
        )

    def exact(bits: np.ndarray) -> tuple[float, dict]:
        breakdown = energy(problem, Assignment(bits))
        return breakdown.total, breakdown.terms

    candidates: dict[tuple, None] = {}
    if n == 0:
        candidates[()] = None
    else:
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

        scale = math.fsum(abs(v) for v in problem.coeffs.values()) + abs(problem.offset)
        window = scanned.min() + 1e-9 * max(scale, 1.0)
        hits = np.flatnonzero(scanned <= window)
        if len(hits) > 65536:
            hits = hits[np.argsort(scanned[hits], kind="stable")[:65536]]
        for state_index in sorted(int(i) for i in hits):
            bits = ((state_index >> shifts) & 1).astype(np.uint8)
            candidates[tuple(bits)] = None

    for bits in _enumerate_valid_assignments(problem):
        candidates.setdefault(tuple(bits), None)

    scored = []
    for rank, bits_tuple in enumerate(candidates):
        bits = np.array(bits_tuple, dtype=np.uint8)
        total, terms = exact(bits)
        scored.append((total, rank, bits, terms))
    scored.sort(key=lambda item: (item[0], item[1]))

    samples = [
        Sample(assignment=Assignment(bits), energy=total, term_energies=terms, read=rank)
        for total, rank, bits, terms in scored[: max(keep, 1)]
    ]
    return SampleSet(
        samples=samples,
        metadata={"solver": "brute_force", "n_vars": n},
        wall_time=time.perf_counter() - started,
    )


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

    samples = []
    for position, entry in enumerate(document):
        if not isinstance(entry, str) or any(c not in "01" for c in entry):
            raise SampleFormatError(f"{path}: entry {position} is not a bitstring: {entry!r}")
        if len(entry) != problem.n_vars:
            raise SampleFormatError(
                f"{path}: entry {position} has {len(entry)} bits, problem has {problem.n_vars}"
            )
        assignment = Assignment.from_string(entry)
        breakdown = energy(problem, assignment)
        samples.append(
            Sample(
                assignment=assignment,
                energy=breakdown.total,
                term_energies=breakdown.terms,
                read=position,
            )
        )
    if not samples:
        raise SampleFormatError(f"{path}: no samples")
    samples.sort(key=lambda s: s.energy)
    return SampleSet(samples=samples, metadata={"solver": "external", "source": str(path)})
