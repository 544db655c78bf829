"""QUBO solvers: Metropolis simulated annealing and an exhaustive oracle.

Annealing runs n_reads independent restarts as one seeded batch. Each
read owns an RNG stream seeded from (seed, read index) and consumes it in
a fixed order — initial bitstring, then per sweep, until the read
retires (see below), one variable permutation and one block of uniforms.
One sweep proposes a single-bit flip for every variable in the read's
permuted order with acceptance min(1, exp(-dE/T)) on a geometric
temperature ladder. The n_threads argument is kept for compatibility; it
changes neither the results nor how they are computed.

Each read's start energy comes from `qubo.active_sums`, the kernel that
scores every sample, and its local fields f = h + x Q_sym (Q_sym is the
symmetric, zero-diagonal coupling matrix) from its own active rows; each
solve builds h and Q_sym by `_dense` and drops them when it returns.
Proposing a flip of v then costs one gather, dE = (1 - 2 x_v) f_v, and
only an accepted flip touches the fields: f += (1 - 2 x_v) Q_sym[v] for
that read, as in dwave-neal's sampler.

Reads never interact, so each one advances through a sweep on its own,
from one accepted flip to the next (the per-spin sweep of Isakov et al.,
Comput. Phys. Commun. 2015, batched over reads). Once a sweep's
permutations and uniforms are drawn, every read starts at step 0. Each
loop iteration prices each read's next steps from its own state, all n
of them in the first iteration, O(reads x n), and `_WINDOW` after that;
it then flips every read that found an accept, and a read that has
passed step n is done for the sweep. A sweep thus costs that first pass
plus about O(flips x n + scanned steps), and its loop runs about as many
times as the busiest read flips, not once per step. The late, cold
sweeps, where almost every proposal is rejected, cost the first pass and
little more.

A read retires for good at the start of the first sweep in which every
proposal it could make has -dE/T below -800: exp of that is 0.0, which no
uniform in [0, 1) is below, and on a ladder whose temperatures never rise
its fields, state and best energy are fixed from then on. A retired read
draws, prices and flips nothing more, and annealing stops once every read
has retired. Nothing reads its generator again, so every sample is the
one a read that went on drawing would give. On the dock-sa benchmark's
problems (20 reads x 200 sweeps) about two thirds of the read-sweeps are
retired.

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
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import QdockError, SampleFormatError
from .model import read_json
from .qubo import Assignment, QuboProblem, active_sums, energies, exact_sum

BRUTE_FORCE_MAX_VARS = 24
BRUTE_FORCE_KEEP = 32
# Most variables `_dense` builds its n x n coupling matrix for: 1.15 GB at
# this size (a 30 x 300 pocket has 9,000). A file header may announce any
# count, and a larger matrix can be granted lazily and exhaust memory later.
DENSE_MAX_VARS = 12_000
# The split scan's cross-table values held at once (8 MB of float64), its
# bound's blocks of low-half states per row, and its most window hits.
_CHUNK_ENTRIES = 1 << 20
_BOUND_BLOCKS = 16
_MAX_HITS = 65536
TEMPERATURE_FLOOR = 1e-6
# Steps a read prices ahead per event-loop iteration.
_WINDOW = 64
# A read retires once every -dE/T it could propose lies below this. exp
# rounds to 0.0 below about -745.13, and no uniform in [0, 1) is below 0.0;
# later temperatures are no higher, so its -dE/T only fall further, and
# the margin absorbs the ladder's rounding.
_RETIRE_BELOW = -800.0


def _finite_positive(value) -> bool:
    """A real, not a bool, that converts to a finite positive float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return 0.0 < float(value) < math.inf
    except OverflowError:
        return False


@dataclass(frozen=True)
class AnnealSchedule:
    """Annealing parameters; None temperatures are sized from the problem
    (t_initial = largest |coefficient|, t_final = 1e-3 x smallest nonzero
    |coefficient|, floored at 1e-6). A given temperature is a finite
    positive real (not a bool), and t_initial >= t_final."""

    n_reads: int = 100
    n_sweeps: int = 2000
    t_initial: float | None = None
    t_final: float | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("n_reads", "n_sweeps", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_reads < 1 or self.n_sweeps < 1:
            raise ValueError("n_reads and n_sweeps must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for name in ("t_initial", "t_final"):
            value = getattr(self, name)
            if value is not None and not _finite_positive(value):
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
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


def _dense(problem: QuboProblem) -> tuple[np.ndarray, np.ndarray]:
    """Linear vector h and symmetric zero-diagonal coupling matrix.

    Built anew from the arrays of `coeffs` per call. Keys are unique, so
    index assignment places each coefficient exactly once. Raises
    QdockError, before allocating anything, past `DENSE_MAX_VARS`
    variables, and when the n x n matrix cannot be allocated.
    """
    n = problem.n_vars
    if n > DENSE_MAX_VARS:
        raise QdockError(f"a QUBO with {n} variables exceeds DENSE_MAX_VARS = "
                         f"{DENSE_MAX_VARS}: its {n} x {n} coupling matrix "
                         f"would take {8 * n * n} bytes")
    a, b, values = problem.coeffs.arrays
    linear = a == b
    try:
        h = np.zeros(n)
        q_sym = np.zeros((n, n))
    except MemoryError:
        raise QdockError(f"cannot allocate the {n} x {n} coupling matrix "
                         f"({8 * n * n} bytes) of a QUBO with {n} variables") from None
    h[a[linear]] = values[linear]
    pair = ~linear
    q_sym[a[pair], b[pair]] = values[pair]
    q_sym[b[pair], a[pair]] = values[pair]
    return h, q_sym


def _anneal_reads(
    problem: QuboProblem, seed: int, n_reads: int, temps: np.ndarray
) -> np.ndarray:
    """Anneal every read, each advancing from one accepted flip to its
    next; returns each read's best bitstring as a row.

    A sweep's proposals sit in a read's row in step order, as flat entry
    indices r * n + v with their uniforms, padded after step n by
    `_WINDOW` steps whose uniform of 2.0 never accepts. Every read starts
    the sweep at step 0. Each loop iteration prices each live read's next
    span of steps from its own state, n steps in the sweep's first
    iteration and `_WINDOW` in every later one, and flips every read whose
    span held an accept at its first one; the read then resumes at the
    step after its flip, or where its span ended if the span held none.
    A read's state changes only at its own flips, so each decision is the
    one a step-by-step sweep would make.

    Before a sweep's draws, each active read's largest -dE/T over all n
    variables, the values its pricing would compute, is compared with
    `_RETIRE_BELOW`; a read below it can accept no flip at this or any
    later (no hotter) temperature, so it leaves the active reads for good,
    without drawing this sweep's permutation and uniforms. The remaining
    sweeps are skipped once no read is active.
    """
    h, q_sym = _dense(problem)
    n = problem.n_vars
    # Before the generators, so an impossible read count fails at once.
    bits = np.empty((n_reads, n), dtype=np.uint8)
    rngs = [np.random.default_rng([seed, r]) for r in range(n_reads)]
    for k, rng in enumerate(rngs):
        bits[k] = rng.integers(0, 2, size=n, dtype=np.uint8)

    # One read per kernel call bounds the list of active values it makes.
    running = np.array([active_sums(problem.coeffs.arrays, row[None] != 0)[0] for row in bits])
    fields = np.empty((n_reads, n))
    for k in range(n_reads):
        fields[k] = h + q_sym[bits[k] != 0].sum(axis=0)
    best_energy = running.copy()
    best_state = bits.copy()
    if not n:
        # No variables, so no proposals (and no step to start a sweep at).
        return best_state

    # The live state is signs[r, v] = 1 - 2 x[r, v], the sign of both the
    # energy change and the field update when v flips.
    signs = 1.0 - 2.0 * bits
    signs_flat = signs.reshape(-1)
    fields_flat = fields.reshape(-1)
    width = n + _WINDOW
    entries = np.arange(n_reads * n).reshape(n_reads, n)
    steps = np.zeros((n_reads, width), dtype=np.intp)
    unifs = np.full((n_reads, width), 2.0)
    steps_flat, unifs_flat = steps.reshape(-1), unifs.reshape(-1)
    active = np.arange(n_reads)
    # Both divisions by a temperature below 1 can overflow a coefficient near
    # the float limit to +-inf, which retirement, min and exp read as exact.
    with np.errstate(over="ignore"):
        for temperature in temps:
            # Retire each read none of whose proposals can be accepted again.
            peak = (-(signs[active] * fields[active]) / temperature).max(axis=1)
            active = active[~(peak < _RETIRE_BELOW)]
            if not active.size:
                break
            # The same streams as rng.permutation(n) and rng.random(n).
            for k in active:
                row = steps[k, :n]
                row[:] = entries[k]
                rngs[k].shuffle(row)
                rngs[k].random(out=unifs[k, :n])
            # at: each live read's next step to price.
            live, at, span = active, np.zeros(active.size, dtype=np.intp), n
            while live.size:
                ahead = (live * width + at)[:, None] + np.arange(span)
                flat = steps_flat[ahead]
                deltas = signs_flat[flat] * fields_flat[flat]
                accepts = unifs_flat[ahead] < np.exp(np.minimum(0.0, -deltas / temperature))
                first = accepts.argmax(axis=1)
                flips = accepts[np.arange(live.size), first]
                at += np.where(flips, first, span)
                span = _WINDOW
                if flips.any():
                    rows = live[flips]
                    flat = steps_flat[rows * width + at[flips]]
                    sign = signs_flat[flat]
                    delta = sign * fields_flat[flat]
                    signs_flat[flat] = -sign
                    # f + (+-1) q is exactly f +- q.
                    fields[rows] += sign[:, None] * q_sym[flat - rows * n]
                    running[rows] += delta
                    improved = rows[running[rows] < best_energy[rows]]
                    if improved.size:
                        best_energy[improved] = running[improved]
                        best_state[improved] = signs[improved] < 0.0
                    at += flips
                stay = at < n
                live, at = live[stay], at[stay]
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
    Raises CoefficientOverflowError before annealing where the problem's
    `window_scale` passes the float range, as `brute_force` does.
    """
    started = time.perf_counter()
    window_scale(problem.coeffs.arrays[2], problem.offset)
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


@dataclass(frozen=True, eq=False)
class ExhaustiveScan:
    """The part of `brute_force` that does not read the linear vector h.

    The scan splits the variables into the low n // 2 bits and the high
    rest (bit k of a state index is variable k), so with U the strict
    upper couplings E(x) = E_lo(x_lo) + E_hi(x_hi) + x_lo^T U[lo, hi] x_hi.
    `of` enumerates each half's 2^half bit matrix with its quadratic
    energies, the (2^n_lo, n_hi) factor bits_lo @ U[lo, hi], and, for a
    problem with decode context, every constraint-satisfying state (one
    point per atom, injective) in `itertools.permutations` order of the
    placements. An imported problem has no placements. The placements
    sorted ascending, with a trailing -1, and each one's rank in
    `placements` (-1 for that sentinel) are the index that maps a listed
    state to its placement.

    `of` also walks the cross table bits_hi @ cross.T in row chunks (see
    `cross_rows`) and keeps `cross_min[k, s_hi]`, the minimum of row s_hi
    over the k-th of `_BOUND_BLOCKS` contiguous blocks of low-half states
    (keyed by the top bits of s_lo). Nothing here is 2^n-sized; at 24
    variables the halves hold 4096 rows each and `cross_min` 16 x 4096
    values.

    `candidates(h)` finishes the scan for one linear vector, its window
    sized by `scale(h)` from the couplings and offset `of` keeps; a
    caller whose coefficients change only on the diagonal (the tuner's
    lambdas) builds the scan once and calls it per diagonal.
    """

    bits_lo: np.ndarray
    bits_hi: np.ndarray
    quad_lo: np.ndarray
    quad_hi: np.ndarray
    cross: np.ndarray
    placements: np.ndarray
    sorted_placements: np.ndarray
    placement_order: np.ndarray
    cross_min: np.ndarray
    couplings: np.ndarray
    offset: float

    @classmethod
    def of(cls, problem: QuboProblem) -> "ExhaustiveScan":
        n = problem.n_vars
        if n > BRUTE_FORCE_MAX_VARS:
            raise ValueError(
                f"brute_force supports at most {BRUTE_FORCE_MAX_VARS} variables, problem has {n}"
            )
        q_upper = np.triu(_dense(problem)[1], 1)
        shifts = np.arange(n, dtype=np.uint32)
        lo, hi = slice(0, n // 2), slice(n // 2, n)

        def half(part: slice) -> tuple[np.ndarray, np.ndarray]:
            width = part.stop - part.start
            idx = np.arange(1 << width, dtype=np.uint32)
            bits_half = ((idx[:, None] >> shifts[:width]) & 1).astype(np.float64)
            return bits_half, ((bits_half @ q_upper[part, part]) * bits_half).sum(axis=1)

        bits_lo, quad_lo = half(lo)
        bits_hi, quad_hi = half(hi)
        cross = bits_lo @ q_upper[lo, hi]
        placements = np.zeros(0, dtype=np.int64)
        if problem.has_decode_context():
            n_grid = problem.n_grid
            placements = np.fromiter(
                (
                    sum(1 << (atom * n_grid + point) for atom, point in enumerate(placement))
                    for placement in itertools.permutations(range(n_grid), problem.n_mol)
                ),
                dtype=np.int64,
            )

        n_rows, n_cols = len(bits_hi), len(bits_lo)
        blocks = min(_BOUND_BLOCKS, n_cols)
        cross_min = np.empty((blocks, n_rows))
        for start, product in cross_rows(bits_hi, cross, np.arange(n_rows)):
            stop = start + len(product)
            cross_min[:, start:stop] = product.reshape(len(product), blocks, -1).min(axis=2).T
        order = np.argsort(placements)
        return cls(
            bits_lo, bits_hi, quad_lo, quad_hi, cross, placements,
            np.append(placements[order], -1), np.append(order, -1), cross_min,
            np.abs(q_upper[q_upper != 0]), problem.offset,
        )

    def scale(self, h: np.ndarray) -> float:
        """`window_scale` of the problem at linear vector h, whose other
        nonzero |coefficients| are `couplings` (zeros leave an fsum as is)."""
        return window_scale(np.append(self.couplings, h), self.offset)

    def candidates(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """State indices to re-score for linear vector h, and each one's
        rank in `placements` (-1 for a state that is not a placement).

        The scanned energy of state s_hi * 2^n_lo + s_lo is its cross
        value (row s_hi, column s_lo of bits_hi @ cross.T), plus E_hi of
        s_hi, plus E_lo of s_lo, added in that order. Listed first are the
        states whose scanned energy lies within eps = 1e-9 x max(`scale(h)`,
        1) of the scanned minimum (the window hits), ascending; beyond
        65,536 hits the lowest scanned energies are kept. Then the
        placements that are not hits, in order.

        Only the rows that can reach the window are scored. A row's bound
        is the least, over the blocks, of (block cross minimum + E_hi) +
        the block's least E_lo; rounded addition is monotone, so no value
        the scan computes in the row lies below it. The cap `low` starts
        as a value the scan computes, the minimum of the row with the
        lowest bound, so it is never below the scanned minimum, and a row
        whose bound exceeds low + eps holds no hit. That row is scored only
        this once. The other rows that can hold a hit are scored in chunks
        of `cross_rows`, which reproduce the full table's values bit for
        bit, and `low` falls to the scanned minimum on the way. Each
        chunk's states within low + eps, pruned to the 65,536 lowest (ties
        to the lower state index), are all that outlives it, so the call
        holds one chunk of the table at a time. The hits find their ranks
        by a binary search of the sorted placements, and the placements no
        hit took are picked by a mask.
        """
        # First, so a sum past the float range raises before any product overflows.
        eps = 1e-9 * max(self.scale(h), 1.0)
        n_lo = self.bits_lo.shape[1]
        energy_lo = self.bits_lo @ h[:n_lo] + self.quad_lo
        energy_hi = self.bits_hi @ h[n_lo:] + self.quad_hi
        n_cols, blocks = len(energy_lo), len(self.cross_min)
        block_lo = energy_lo.reshape(blocks, -1).min(axis=1)
        bound = ((self.cross_min + energy_hi) + block_lo[:, None]).min(axis=0)

        first = bound.argmin()
        _, product = next(cross_rows(self.bits_hi, self.cross, first[None]))
        scored = (product[0] + energy_hi[first]) + energy_lo
        low = scored.min()
        bound[first] = np.inf
        rows = np.flatnonzero(bound <= low + eps)

        states = np.flatnonzero(scored <= low + eps)
        values = scored[states]
        states |= first << n_lo
        for start, product in cross_rows(self.bits_hi, self.cross, rows):
            chunk = rows[start:start + len(product)]
            product += energy_hi[chunk, None]
            product += energy_lo[None, :]
            low = min(low, product.min())
            near = np.flatnonzero(product <= low + eps)
            states = np.concatenate([states, (chunk[near // n_cols] << n_lo) | (near % n_cols)])
            values = np.concatenate([values, product.ravel()[near]])
            if len(states) > _MAX_HITS:
                lowest = np.lexsort((states, values))[:_MAX_HITS]
                states, values = states[lowest], values[lowest]
        hits = np.sort(states[values <= low + eps])
        at = np.searchsorted(self.sorted_placements[:-1], hits)
        ranks = np.where(self.sorted_placements[at] == hits, self.placement_order[at], -1)
        unhit = np.ones(len(self.placements), dtype=bool)
        unhit[ranks[ranks >= 0]] = False
        rest = np.flatnonzero(unhit)
        return np.concatenate([hits, self.placements[rest]]), np.concatenate([ranks, rest])


def cross_rows(bits_hi: np.ndarray, cross: np.ndarray, rows: np.ndarray):
    """Yield (offset, bits_hi[rows[offset:...]] @ cross.T) for consecutive
    chunks of `rows`, each at most `_CHUNK_ENTRIES` values.

    Every value equals the same row and column of the full product
    bits_hi @ cross.T bit for bit: the bits are 0 or 1, so each product
    is exact and only the order of the additions could differ. numpy
    computes a matrix product of two or more rows with gemm, whose order
    does not depend on the row count, but a one-row product with gemv,
    whose order can differ; a one-row chunk is therefore computed as two
    copies of its row.
    """
    step = max(1, _CHUNK_ENTRIES // len(cross))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        product = bits_hi[np.resize(chunk, max(2, len(chunk)))] @ cross.T
        yield start, product[: len(chunk)]


def window_scale(values: np.ndarray, offset: float) -> float:
    """Error-window scale of a problem, the rule `ExhaustiveScan.scale`
    applies: fsum of its |coefficients|, plus |offset| (the fsum of two
    values is their rounded sum). Raises CoefficientOverflowError past the
    float range. A memoryview hands fsum the floats without a list of them."""
    return exact_sum((exact_sum(memoryview(np.abs(values))), abs(offset)))


def state_rows(states: np.ndarray, n: int) -> np.ndarray:
    """Bit rows of state indices: bit k of a state is variable k."""
    return ((states[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def brute_force(problem: QuboProblem, keep: int = BRUTE_FORCE_KEEP) -> SampleSet:
    """Exhaustive search over all 2^n assignments (n capped at 24).

    `ExhaustiveScan.of(problem)` enumerates the halves of the split scan
    and its per-row bounds, and its `candidates` lists, as state indices,
    the states within rounding of the scanned minimum, then every valid
    placement that is not among them; it is handed only the linear vector
    and sizes the window itself. It scores only the high-half rows
    whose bound reaches the window, one chunk of rows at a time, so no
    2^n-sized array is made: at 24 variables a call peaks near 20 MB
    under tracemalloc, where the whole table alone took 128 MB.
    Placements are listed only for a problem with decode context; an
    imported file gets the window hits alone. Each candidate
    is re-scored exactly (fsum) with `read` = its listing rank, so the
    reported optimum is the true fsum optimum and, with decode context,
    the set always contains the best valid assignment. The returned
    listing is truncated to `keep` samples; the search itself is complete.
    """
    started = time.perf_counter()
    states, _ = ExhaustiveScan.of(problem).candidates(_dense(problem)[0])
    result = _sample_set(
        problem,
        state_rows(states, problem.n_vars),
        {"solver": "brute_force", "n_vars": problem.n_vars},
        keep=max(keep, 1),
    )
    result.wall_time = time.perf_counter() - started
    return result


def incremental_delta(problem: QuboProblem, assignment: Assignment, flip: int) -> float:
    """Energy change of flipping one bit: the fsum of its linear entry and
    of its couplings to set variables, from the arrays of `coeffs`. A bit
    is set as `QuboProblem.bit_row` reads it, and flipping it clears it."""
    problem.var_pair(flip)
    on = problem.bit_row(assignment)
    a, b, values = problem.coeffs.arrays
    touching = np.flatnonzero((a == flip) | (b == flip))
    a, b = a[touching], b[touching]
    active = touching[(a == b) | on[np.where(a == flip, b, a)]]
    sign = -1.0 if on[flip] else 1.0
    return sign * exact_sum(values[active].tolist())


def import_samples(problem: QuboProblem, path) -> SampleSet:
    """Load externally produced bitstrings (JSON array) and score them.
    `model.read_json` reads the file; each entry is checked here."""
    document = read_json(path, SampleFormatError, "samples")
    if not isinstance(document, list):
        raise SampleFormatError(f"{path}: expected a JSON array of bitstrings")

    for position, entry in enumerate(document):
        if not isinstance(entry, str) or entry.strip("01"):
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
