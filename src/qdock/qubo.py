"""QUBO Hamiltonian assembly over placement variables.

A binary variable x[i, j] means "ligand atom i sits on grid point j";
variables are flattened row-major (atom-major). The objective is a sum of
seven term maps kept separate for energy decomposition:

* geom: for every ligand edge and every ordered pair of distinct grid
  points, the squared mismatch between the edge length and the grid
  distance couples the two placements;
* penalty: expansion of gamma * (sum_i (1 - sum_j x[i,j])^2
  + sum_{i != i'} sum_j x[i,j] x[i',j]) enforcing exactly one grid point
  per atom and injectivity. The expansion leaves a constant gamma * n_mol
  which is tracked as `offset`, outside the coefficient map;
* el, vdw, hba, hbd, hydro: diagonal terms pairing ligand node colors with
  grid point colors, each entering as raw_value * scale * lambda.

Scales default to normalizing each physicochemical term's largest raw
coefficient to the largest geometric coefficient, so the lambda weights
compare like with like; where either magnitude is zero, or the ratio is
not finite, the scale is 1.0.

`assemble` builds the lambda-free terms, keeps the raw physicochemical
tables on the problem and ends in `with_lambdas`, which re-weights a
problem from itself alone. `weighted_linear` is the one function that
weights the tables, from the problem alone too: `with_lambdas` calls it,
and so does the exact tuner.

Each term is computed as arrays over the ligand edges, the grid distance
matrix and the grid color vectors, and kept as (a, b, value) arrays with
zero entries dropped. Those arrays and the summed map's are the model:
the solvers' n x n matrix (built per solve in `anneal`), the coordinate
file, `incremental_delta` and `active_sums` (behind every energy, SA's
start energies too) read them directly. Each coefficient map is a
read-only `CoeffMap` of its arrays, which stores nothing else and has no
key lookup. The summed map's arrays are the stored form of the geom
entries and the penalty keys: the geom map is a slice of them, and the
penalty map slices the keys beside its own values, so each of those
entries is stored once. `QuboProblem` checks each map's keys once, and
its `bit_row` is the one reader of an assignment.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CoefficientOverflowError, GraphBuildError
from .grid import GridGraph, build_grid_graph
from .ligand import LigandGraph, build_ligand_graph
from .model import ComplexInput

TERM_NAMES = ("geom", "penalty", "el", "vdw", "hba", "hbd", "hydro")
PHYSCHEM_TERMS = ("el", "vdw", "hba", "hbd", "hydro")
# Entries per block when a map lists its entries or compares itself with
# another: bounds the Python objects and gathered copies to a few MB.
_BLOCK = 1 << 16
_INTP_MAX = int(np.iinfo(np.intp).max)


class CoeffMap:
    """Read-only (a, b) -> value map held as parallel arrays.

    `arrays` holds the int64 ids a <= b and the float64 values, one entry
    per key, in the map's order: they are the map's only stored form. They
    are non-writeable views of the arrays given, uncopied where those are
    contiguous and of the right type, so maps may share memory (a built
    problem's geom and penalty maps are slices of its `coeffs`); the caller
    must not change those arrays afterwards. Every qdock consumer reads the
    arrays; beside them a map has `len`, `items()`, which lists the entries
    as Python ints and floats in map order and holds one `_BLOCK` of them
    at a time, and `==`, which compares two maps' key sets and float values
    a block at a time in each map's key order (a dict compares as a dict).
    """

    __slots__ = ("arrays",)

    def __init__(self, a, b, values):
        self.arrays = (_read_only(a, np.intp), _read_only(b, np.intp), _read_only(values, np.float64))

    @classmethod
    def nonzero(cls, a: np.ndarray, b: np.ndarray, values: np.ndarray) -> "CoeffMap":
        """The entries of (a, b, value) arrays whose value is not zero; the
        arrays themselves, uncopied, when none is zero."""
        keep = values != 0.0
        if keep.all():
            return cls(a, b, values)
        return cls(a[keep], b[keep], values[keep])

    @classmethod
    def wrap(cls, mapping) -> "CoeffMap":
        """A map of a plain {(a, b): value} dict's keys and values. An id
        that is not an integer, or not one an int64 holds, reads as -1,
        which names no variable, and so do both ids of a key that is not a
        pair."""
        if isinstance(mapping, CoeffMap):
            return mapping
        n = len(mapping)
        pairs = (key if isinstance(key, tuple) and len(key) == 2 else (-1, -1) for key in mapping)
        ids = map(_variable_id, itertools.chain.from_iterable(pairs))
        keys = np.fromiter(ids, np.intp, 2 * n).reshape(n, 2)
        return cls(keys[:, 0], keys[:, 1], np.fromiter(mapping.values(), np.float64, n))

    def __len__(self) -> int:
        return len(self.arrays[2])

    def items(self):
        a, b, values = self.arrays
        for start in range(0, len(self), _BLOCK):
            # No name keeps a block's lists, so one block is alive at a time.
            block = slice(start, start + _BLOCK)
            yield from zip(zip(a[block].tolist(), b[block].tolist()), values[block].tolist())

    def __eq__(self, other):
        if isinstance(other, CoeffMap):
            if len(self) != len(other):
                return False
            # Entry k of each map in (a, b) order, one block of k at a time.
            mine, theirs = np.lexsort(self.arrays[1::-1]), np.lexsort(other.arrays[1::-1])
            return all(
                (x.take(mine[start : start + _BLOCK]) == y.take(theirs[start : start + _BLOCK])).all()
                for start in range(0, len(self), _BLOCK)
                for x, y in zip(self.arrays, other.arrays)
            )
        if not isinstance(other, dict):
            return NotImplemented
        return dict(self.items()) == other

    def __repr__(self) -> str:
        return f"CoeffMap({len(self)} entries)"


def _variable_id(x) -> int:
    """x as an int where it is an integer an int64 holds, else -1."""
    if isinstance(x, (int, np.integer)) and 0 <= int(x) <= _INTP_MAX:
        return int(x)
    return -1


def _read_only(x, dtype) -> np.ndarray:
    """A non-writeable view of x as a contiguous array of dtype (a copy only
    where x is not one already); x itself keeps its flags."""
    view = np.ascontiguousarray(x, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Hyperparameters:
    """Weights of the Hamiltonian terms.

    gamma None means "ten times the largest geometric coefficient".
    component_scales None means per-term automatic normalization.
    """

    lambdas: tuple[float, float, float, float, float] = (0.0, 0.0, 0.0, 0.0, 0.0)
    gamma: float | None = None
    component_scales: tuple[float, float, float, float, float] | None = None

    def __post_init__(self):
        if len(self.lambdas) != 5:
            raise ValueError("lambdas must have exactly 5 entries")
        if not all(0 <= lam < math.inf for lam in self.lambdas):
            raise ValueError("lambdas must be non-negative and finite")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if self.component_scales is not None:
            if len(self.component_scales) != 5:
                raise ValueError("component_scales must have exactly 5 entries")
            if not all(0 < s < math.inf for s in self.component_scales):
                raise ValueError("component_scales must be positive and finite")


@dataclass
class Assignment:
    bits: np.ndarray

    @classmethod
    def from_bits(cls, bits) -> "Assignment":
        return cls(np.asarray(bits, dtype=np.uint8))

    @classmethod
    def from_string(cls, text: str) -> "Assignment":
        if text.strip("01"):
            raise ValueError(f"bitstring must contain only 0/1, got {text!r}")
        return cls(np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0"))

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and np.array_equal(self.bits, other.bits)


@dataclass
class QuboProblem:
    """Sparse upper-triangular QUBO with per-term bookkeeping.

    Coefficient keys are (a, b) with a <= b; a == b entries are linear.
    `coeffs` is always the entrywise sum of `term_coeffs`. Each map is a
    `CoeffMap`: its (a, b, value) arrays are the model. In a built problem
    `coeffs` is the stored form, and the geom and penalty maps are slices
    of it (the penalty map with its own values). A plain dict given for
    `coeffs` or a term becomes a `CoeffMap` of its keys and values. A map
    with a key that is not integers 0 <= a <= b < n_vars raises ValueError;
    a term that is `coeffs` itself (an imported problem's) is checked once.
    Problems built from a complex carry the decode context (atom/grid ids,
    grid positions, experimental coordinates) and the raw tables
    `with_lambdas` weights; imported or hand-built ones only coefficients.
    """

    n_mol: int
    n_grid: int
    coeffs: CoeffMap
    term_coeffs: dict[str, CoeffMap]
    offset: float = 0.0
    gamma: float = 0.0
    lambdas: tuple = (0.0, 0.0, 0.0, 0.0, 0.0)
    scales: tuple = (1.0, 1.0, 1.0, 1.0, 1.0)
    atom_ids: list[int] | None = None
    grid_ids: list[int] | None = None
    grid_positions: np.ndarray | None = None
    experimental_coords: np.ndarray | None = None
    physchem_raw: dict[str, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        given = self.coeffs
        self.coeffs = self._checked("coeffs", given)
        self.term_coeffs = {
            name: self.coeffs if cmap is given else self._checked(f"term {name!r}", cmap)
            for name, cmap in self.term_coeffs.items()
        }

    def _checked(self, label: str, mapping) -> CoeffMap:
        """`mapping` as a CoeffMap. Raises ValueError naming `label` and its
        first key whose ids are not integers 0 <= a <= b < n_vars; a valid
        map costs one min, one max and one boolean per entry."""
        cmap = CoeffMap.wrap(mapping)
        a, b, _ = cmap.arrays
        n = self.n_vars
        if not len(a) or (a.min() >= 0 and b.max() < n and (a <= b).all()):
            return cmap
        k = int(np.flatnonzero((a < 0) | (a > b) | (b >= n))[0])
        key = (int(a[k]), int(b[k])) if cmap is mapping else next(itertools.islice(mapping, k, None))
        raise ValueError(f"{label} key {key!r} is not (a, b) with integers 0 <= a <= b < {n}")

    @property
    def n_vars(self) -> int:
        return self.n_mol * self.n_grid

    def var_index(self, atom: int, point: int) -> int:
        if not (0 <= atom < self.n_mol and 0 <= point < self.n_grid):
            raise ValueError(f"variable ({atom}, {point}) out of range")
        return atom * self.n_grid + point

    def var_pair(self, var: int) -> tuple[int, int]:
        if not 0 <= var < self.n_vars:
            raise ValueError(f"variable id {var} out of range")
        return divmod(var, self.n_grid)

    def bit_row(self, assignment: Assignment) -> np.ndarray:
        """The assignment as a boolean row, any nonzero bit set, for `energy`,
        `incremental_delta` and `decode`: ValueError unless it has n_vars bits."""
        bits = assignment.bits
        if len(bits) != self.n_vars:
            raise ValueError(f"assignment has {len(bits)} bits, problem has {self.n_vars} variables")
        return np.asarray(bits) != 0

    def has_decode_context(self) -> bool:
        return self.grid_positions is not None


@dataclass(frozen=True)
class EnergyBreakdown:
    terms: dict[str, float]
    total: float


def build_distortion(lig: LigandGraph, grid: GridGraph) -> tuple[np.ndarray, ...]:
    """Geometric distortion (a, b, value) arrays, zeros included: edge i < i'
    gives (i n_grid + j, i' n_grid + j') the value (d - dist[j, j'])^2 for
    each pair j != j', edge by edge and row-major, all in the upper triangle."""
    n_grid = grid.n_points
    j, jp = np.nonzero(~np.eye(n_grid, dtype=bool))
    ends = np.array([(edge.i, edge.j) for edge in lig.edges], dtype=np.intp).reshape(-1, 2)
    mismatch = np.array([edge.dist for edge in lig.edges])[:, None] - grid.dist[j, jp]
    a = ends[:, :1] * n_grid + j
    b = ends[:, 1:] * n_grid + jp
    return a.ravel(), b.ravel(), (mismatch * mismatch).ravel()


def build_penalty(n_mol: int, n_grid: int, gamma: float) -> tuple[CoeffMap, float]:
    """Constraint-penalty term map and its constant offset. The map holds
    each atom's diagonal (-gamma) and then its row couplings j < j'
    (2 gamma), then each point's column couplings i < i' (2 gamma). The
    diagonal is in variable order."""
    points = np.arange(n_grid)
    j, jp = np.triu_indices(n_grid, 1)
    i, ip = np.triu_indices(n_mol, 1)
    rows = np.arange(n_mol)[:, None] * n_grid
    a = np.append(rows + np.append(points, j), i * n_grid + points[:, None])
    b = np.append(rows + np.append(points, jp), ip * n_grid + points[:, None])
    return CoeffMap.nonzero(a, b, np.where(a == b, -gamma, 2.0 * gamma)), gamma * n_mol


def build_physchem_raw(lig: LigandGraph, grid: GridGraph) -> dict[str, np.ndarray]:
    """Unscaled physicochemical tables (lambda- and scale-free), each
    (n_mol, n_grid): entry (i, j) belongs to variable i n_grid + j. Extreme
    inputs can overflow here; `with_lambdas` names the non-finite entry."""
    atoms = lig.atoms
    charge = np.array([atom.charge for atom in atoms], dtype=float)[:, None]
    types = [atom.type_index for atom in atoms]
    flags = np.array([(a.hbond_acceptor, a.hbond_donor, a.hydrophobic) for a in atoms]).T
    with np.errstate(over="ignore", invalid="ignore"):
        return {
            "el": charge * grid.coulomb,
            "vdw": grid.lj[:, types].T,
            "hba": -(flags[0, :, None] * grid.hb_acceptor).astype(float),
            "hbd": -(flags[1, :, None] * grid.hb_donor).astype(float),
            "hydro": -(flags[2, :, None] * grid.hydrophobic).astype(float),
        }


def resolve_scales(hp: Hyperparameters, geom: np.ndarray, raw: dict[str, np.ndarray]) -> tuple:
    """Component scales: explicit values, or geometric/raw magnitude ratio.

    An automatic scale falls back to 1.0 when either magnitude is zero or
    the ratio is not finite (a subnormal raw magnitude overflows it)."""
    if hp.component_scales is not None:
        return tuple(float(s) for s in hp.component_scales)
    geom_magnitude = float(np.abs(geom).max(initial=0.0))
    scales = []
    for name in PHYSCHEM_TERMS:
        raw_magnitude = float(np.abs(raw[name]).max(initial=0.0))
        ratio = 1.0
        if geom_magnitude > 0.0 and raw_magnitude > 0.0:
            ratio = geom_magnitude / raw_magnitude
        scales.append(ratio if math.isfinite(ratio) else 1.0)
    return tuple(scales)


def resolve_gamma(hp: Hyperparameters, geom: np.ndarray) -> float:
    """Explicit gamma, or ten times the largest geometric coefficient."""
    if hp.gamma is not None:
        return float(hp.gamma)
    geom_magnitude = float(np.abs(geom).max(initial=0.0))
    return float(10.0 * geom_magnitude) if geom_magnitude > 0.0 else 1.0


def build_full(complex_input: ComplexInput, hp: Hyperparameters) -> QuboProblem:
    """Assemble the complete Hamiltonian for a complex."""
    lig = build_ligand_graph(complex_input)
    grid = build_grid_graph(complex_input)
    return assemble(lig, grid, hp)


def _reject_non_finite(a, b, values: np.ndarray, term_coeffs: dict[str, CoeffMap]) -> None:
    """Raise GraphBuildError naming the first non-finite value and the
    first term (in TERM_NAMES order) that is non-finite at its entry."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        key = (int(a[bad[0]]), int(b[bad[0]]))
        for name in TERM_NAMES:
            term_a, term_b, term_values = term_coeffs[name].arrays
            value = float(term_values[(term_a == key[0]) & (term_b == key[1])].sum())
            if not math.isfinite(value):
                raise GraphBuildError(
                    f"non-finite QUBO coefficient in term {name!r}: entry {key} = {value!r}"
                )
        total = float(values[bad[0]])
        raise GraphBuildError(
            f"non-finite QUBO coefficient: the terms at entry {key} sum to {total!r}"
        )


def weighted_linear(problem: QuboProblem, lambdas) -> tuple[np.ndarray, list[np.ndarray]]:
    """The linear coefficients at `lambdas` and each physicochemical term's
    table, from the problem's penalty diagonal (in variable order) and
    `physchem_raw` tables and scales.

    Each term's table is raw * (scale * lambda) where raw is nonzero and
    0.0 elsewhere, in variable order. The linear vector is the penalty
    diagonal plus the tables one by one in PHYSCHEM_TERMS order, which
    fixes the rounding of every linear coefficient. Extreme weights can
    overflow to non-finite values; the caller checks them.
    """
    a, b, values = problem.term_coeffs["penalty"].arrays
    raw, diagonal, weighted = problem.physchem_raw, values[a == b], []
    with np.errstate(over="ignore", invalid="ignore"):
        for name, scale, lam in zip(PHYSCHEM_TERMS, problem.scales, lambdas):
            table = np.where(raw[name] != 0.0, raw[name] * (scale * lam), 0.0).ravel()
            diagonal += table
            weighted.append(table)
    return diagonal, weighted


def with_lambdas(problem: QuboProblem, lambdas) -> QuboProblem:
    """The whole problem at `lambdas`, from the lambda-free parts of a
    problem `assemble` built (geom and penalty maps, gamma, scales, offset,
    decode context) and the `physchem_raw` tables it carries.

    `weighted_linear` gives the tables and the linear coefficients. Each
    term's map drops the zero products (-0.0 at lambda 0 too). The summed
    map is the nonzero geom entries, then every penalty key with the linear
    coefficients on its diagonal. Its arrays are the only stored copy of
    the geom entries and of the penalty keys: the geom map is a slice of
    all three, and the penalty map slices the keys and keeps its own
    values. Raises GraphBuildError naming the first non-finite coefficient,
    or a non-finite offset.
    """
    a, b, values = problem.term_coeffs["penalty"].arrays
    geom = problem.term_coeffs["geom"].arrays
    diagonal, tables = weighted_linear(problem, lambdas)
    summed = values.copy()
    summed[a == b] = diagonal
    coeffs = CoeffMap(*(np.concatenate(pair) for pair in zip(geom, (a, b, summed))))
    n_geom = len(geom[2])
    key_a, key_b, coeff_values = coeffs.arrays
    term_coeffs = {
        "geom": CoeffMap(key_a[:n_geom], key_b[:n_geom], coeff_values[:n_geom]),
        "penalty": CoeffMap(key_a[n_geom:], key_b[n_geom:], values),
    }
    variables = np.arange(problem.n_vars)
    for name, table in zip(PHYSCHEM_TERMS, tables):
        term_coeffs[name] = CoeffMap.nonzero(variables, variables, table)
    _reject_non_finite(*coeffs.arrays, term_coeffs)
    if not math.isfinite(problem.offset):
        raise GraphBuildError(f"non-finite QUBO penalty offset {problem.offset!r}")
    return replace(problem, coeffs=coeffs, term_coeffs=term_coeffs, lambdas=tuple(lambdas))


def assemble(lig: LigandGraph, grid: GridGraph, hp: Hyperparameters) -> QuboProblem:
    """Combine the term arrays into a QuboProblem from prebuilt graphs:
    the lambda-free geom and penalty terms, gamma, the scales and the raw
    physicochemical tables, then `with_lambdas` at hp.lambdas."""
    n_mol, n_grid = lig.n_atoms, grid.n_points
    geom_a, geom_b, geom_values = build_distortion(lig, grid)
    gamma = resolve_gamma(hp, geom_values)
    penalty, offset = build_penalty(n_mol, n_grid, gamma)
    geom = CoeffMap.nonzero(geom_a, geom_b, geom_values)
    raw = build_physchem_raw(lig, grid)
    scales = resolve_scales(hp, geom_values, raw)
    # `with_lambdas` builds the summed map, so this half carries none.
    lambda_free = QuboProblem(
        n_mol=n_mol,
        n_grid=n_grid,
        coeffs={},
        term_coeffs={"geom": geom, "penalty": penalty},
        offset=offset,
        gamma=gamma,
        scales=scales,
        atom_ids=[atom.id for atom in lig.atoms],
        grid_ids=list(grid.point_ids),
        grid_positions=grid.positions,
        experimental_coords=np.array([atom.position for atom in lig.atoms], dtype=float),
        physchem_raw=raw,
    )
    return with_lambdas(lambda_free, hp.lambdas)


def energy(problem: QuboProblem, assignment: Assignment) -> EnergyBreakdown:
    """Evaluate every term map at a bitstring.

    Per-term sums use math.fsum over the values whose two bits are both
    set (`QuboProblem.bit_row`), so the result depends only on which
    coefficients are active, not on their order; in particular the penalty
    term of a constraint-satisfying assignment is exactly zero.
    """
    return energies(problem, problem.bit_row(assignment)[None])[0]


def exact_sum(values) -> float:
    """math.fsum of coefficient values; CoefficientOverflowError where their
    partial sums pass the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise CoefficientOverflowError(
            "QUBO coefficient magnitudes sum past the float range"
        ) from None


# Rows x entries per scoring block: bounds each boolean mask to a few MB.
_SCORE_CELLS = 1 << 22


def active_sums(arrays: tuple[np.ndarray, ...], on: np.ndarray) -> list[float]:
    """Per row of the boolean array `on`, the fsum of the (a, b, value)
    arrays' values whose two variables are both set in that row. A block of
    rows gathers on[:, a] & on[:, b] and lists its active values row by row."""
    a, b, values = arrays
    step = max(1, _SCORE_CELLS // max(len(values), 1))
    sums: list[float] = []
    for start in range(0, len(on), step):
        block = on[start : start + step]
        # Only entries whose two variables are set in some row can be active:
        # in a one-row block those are the row's active entries, and with
        # none, every row sums to 0.0.
        seen = block.any(axis=0)
        live = np.flatnonzero(seen.take(a) & seen.take(b))
        if len(block) == 1 or not len(live):
            sums.extend([exact_sum(values[live].tolist())] * len(block))
            continue
        flat = np.flatnonzero(block.take(a[live], axis=1) & block.take(b[live], axis=1))
        row, entry = np.divmod(flat, len(live))
        active = values[live[entry]].tolist()
        ends = np.cumsum(np.bincount(row, minlength=len(block))).tolist()
        sums.extend(exact_sum(active[s:e]) for s, e in zip([0, *ends], ends))
    return sums


def energies(problem: QuboProblem, rows: np.ndarray) -> list[EnergyBreakdown]:
    """`energy` of each row of a 2-D bit array: `active_sums` of each term,
    so every breakdown is its row's `energy`."""
    on = np.asarray(rows) != 0
    sums = {name: active_sums(cmap.arrays, on) for name, cmap in problem.term_coeffs.items()}
    breakdowns = []
    for k in range(len(on)):
        terms = {name: column[k] for name, column in sums.items()}
        if "penalty" in terms:
            terms["penalty"] += problem.offset
        elif problem.offset != 0.0:
            terms["offset"] = problem.offset
        breakdowns.append(EnergyBreakdown(terms=terms, total=exact_sum(terms.values())))
    return breakdowns


def one_hot_assignment(problem: QuboProblem, mapping: dict[int, int]) -> Assignment:
    """Assignment with exactly the bits (atom index -> grid index) set."""
    bits = np.zeros(problem.n_vars, dtype=np.uint8)
    for atom, point in mapping.items():
        bits[problem.var_index(atom, point)] = 1
    return Assignment(bits)
