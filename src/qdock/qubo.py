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

Each term is computed as arrays over the ligand edges, the grid distance
matrix and the grid color vectors, and kept as (a, b, value) arrays with
zero entries dropped. Those arrays and the summed map's are the model:
`QuboProblem.dense`, the coordinate file and `active_sums` (behind every
energy, SA's start energies too) read them directly. Each coefficient map
is a read-only `CoeffMap` view over its arrays, which builds a dict keyed
by (a, b) only when a caller looks an entry up or iterates it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphBuildError, QdockError
from .grid import GridGraph, build_grid_graph
from .ligand import LigandGraph, build_ligand_graph
from .model import ComplexInput

TERM_NAMES = ("geom", "penalty", "el", "vdw", "hba", "hbd", "hydro")
PHYSCHEM_TERMS = ("el", "vdw", "hba", "hbd", "hydro")


class CoeffMap(Mapping):
    """Read-only (a, b) -> value map over parallel arrays.

    `arrays` holds the int64 ids a <= b and the float64 values, one entry
    per key, in the map's order. The dict of Python ints and floats is
    built on the first lookup or iteration (`[]`, `in`, `iter`, `.get`,
    `.items()`, ...) and kept. `len` reads the arrays, and so does `==`
    between two views: equal key sets, and values equal as floats. A view
    and another mapping compare as dicts. The arrays and a wrapped dict
    must not change afterwards.
    """

    __slots__ = ("arrays", "_map")

    def __init__(self, a, b, values, mapping: dict | None = None):
        self.arrays = (
            np.ascontiguousarray(a, dtype=np.intp),
            np.ascontiguousarray(b, dtype=np.intp),
            np.ascontiguousarray(values, dtype=np.float64),
        )
        self._map = mapping

    @classmethod
    def nonzero(cls, a: np.ndarray, b: np.ndarray, values: np.ndarray) -> "CoeffMap":
        """The entries of (a, b, value) arrays whose value is not zero."""
        keep = values != 0.0
        return cls(a[keep], b[keep], values[keep])

    @classmethod
    def wrap(cls, mapping: Mapping) -> "CoeffMap":
        """A view of a plain {(a, b): value} map, which becomes its dict."""
        if isinstance(mapping, CoeffMap):
            return mapping
        n = len(mapping)
        keys = np.fromiter(itertools.chain.from_iterable(mapping), np.intp, 2 * n).reshape(n, 2)
        return cls(keys[:, 0], keys[:, 1], np.fromiter(mapping.values(), np.float64, n), mapping)

    def _dict(self) -> dict:
        if self._map is None:
            a, b, values = self.arrays
            self._map = dict(zip(zip(a.tolist(), b.tolist()), values.tolist()))
        return self._map

    def __getitem__(self, key):
        return self._dict()[key]

    def __iter__(self):
        return iter(self._dict())

    def __len__(self) -> int:
        return len(self.arrays[2])

    def keys(self):
        return self._dict().keys()

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()

    def _sorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a, b, values = self.arrays
        order = np.lexsort((b, a))
        return a[order], b[order], values[order]

    def __eq__(self, other):
        if isinstance(other, CoeffMap):
            if len(self) != len(other):
                return False
            (a, b, values), (c, d, others) = self._sorted(), other._sorted()
            return bool(np.array_equal(a, c) and np.array_equal(b, d) and (values == others).all())
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._dict() == (other if isinstance(other, dict) else dict(other.items()))

    def __repr__(self) -> str:
        return f"CoeffMap({len(self)} entries)"


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
        if any(lam < 0 for lam in self.lambdas):
            raise ValueError("lambdas must be non-negative")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.component_scales is not None:
            if len(self.component_scales) != 5:
                raise ValueError("component_scales must have exactly 5 entries")
            if any(not s > 0 for s in self.component_scales):
                raise ValueError("component_scales must be positive")


@dataclass
class Assignment:
    bits: np.ndarray

    @classmethod
    def from_bits(cls, bits) -> "Assignment":
        return cls(np.asarray(bits, dtype=np.uint8))

    @classmethod
    def from_string(cls, text: str) -> "Assignment":
        if any(c not in "01" for c in text):
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
    `CoeffMap`: its (a, b, value) arrays are the model, and the dict
    behind it is a read-only view derived on demand. A plain dict given
    for `coeffs` or a term is wrapped once and kept as that view's dict.
    Problems built from a complex carry the decode context (atom/grid ids,
    grid positions, experimental coordinates); problems imported from a
    coordinate file only carry coefficients.
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

    def __post_init__(self):
        self.coeffs = CoeffMap.wrap(self.coeffs)
        self.term_coeffs = {name: CoeffMap.wrap(cmap) for name, cmap in self.term_coeffs.items()}

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

    def has_decode_context(self) -> bool:
        return self.grid_positions is not None

    @cached_property
    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Linear vector h and symmetric zero-diagonal coupling matrix.

        Built once from the arrays of `coeffs`. Keys are unique, so index
        assignment places each coefficient exactly once. Raises QdockError
        when the n x n matrix cannot be allocated.
        """
        n = self.n_vars
        a, b, values = self.coeffs.arrays
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


def _penalty_entries(n_mol: int, n_grid: int, gamma: float) -> tuple[np.ndarray, ...]:
    """Penalty entries as (a, b, value) arrays: each atom's diagonal
    (-gamma) and then its row couplings j < j' (2 gamma), then each point's
    column couplings i < i' (2 gamma). The diagonal is in variable order."""
    points = np.arange(n_grid)
    j, jp = np.triu_indices(n_grid, 1)
    i, ip = np.triu_indices(n_mol, 1)
    rows = np.arange(n_mol)[:, None] * n_grid
    a = np.append(rows + np.append(points, j), i * n_grid + points[:, None])
    b = np.append(rows + np.append(points, jp), ip * n_grid + points[:, None])
    return a, b, np.where(a == b, -gamma, 2.0 * gamma)


def build_penalty(n_mol: int, n_grid: int, gamma: float) -> tuple[CoeffMap, float]:
    """Constraint-penalty term map and its constant offset."""
    return CoeffMap.nonzero(*_penalty_entries(n_mol, n_grid, gamma)), gamma * n_mol


def build_physchem_raw(lig: LigandGraph, grid: GridGraph) -> dict[str, np.ndarray]:
    """Unscaled physicochemical tables (lambda- and scale-free), each
    (n_mol, n_grid): entry (i, j) belongs to variable i n_grid + j."""
    atoms = lig.atoms
    charge = np.array([atom.charge for atom in atoms], dtype=float)[:, None]
    types = [atom.type_index for atom in atoms]
    flags = np.array([(a.hbond_acceptor, a.hbond_donor, a.hydrophobic) for a in atoms]).T
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


def assemble(lig: LigandGraph, grid: GridGraph, hp: Hyperparameters) -> QuboProblem:
    """Combine the term arrays into a QuboProblem from prebuilt graphs. No
    other term shares a geom key, and the penalty holds every other key,
    whose diagonal adds the scaled physicochemical tables in order. The
    summed map is the nonzero geom entries, then every penalty key."""
    n_mol, n_grid = lig.n_atoms, grid.n_points
    geom_a, geom_b, geom_values = build_distortion(lig, grid)
    gamma = resolve_gamma(hp, geom_values)
    a, b, penalty_values = _penalty_entries(n_mol, n_grid, gamma)
    term_coeffs: dict[str, CoeffMap] = {
        "geom": CoeffMap.nonzero(geom_a, geom_b, geom_values),
        "penalty": CoeffMap(a, b, penalty_values),
    }
    variables = np.arange(n_mol * n_grid)
    summed = penalty_values.copy()
    # Extreme inputs can overflow here; the finite checks below name the entry.
    with np.errstate(over="ignore", invalid="ignore"):
        raw = build_physchem_raw(lig, grid)
        scales = resolve_scales(hp, geom_values, raw)
        for name, scale, lam in zip(PHYSCHEM_TERMS, scales, hp.lambdas):
            table = np.where(raw[name] != 0.0, raw[name] * (scale * lam), 0.0).ravel()
            term_coeffs[name] = CoeffMap.nonzero(variables, variables, table)
            summed[a == b] += table
    geom = term_coeffs["geom"].arrays
    coeffs = CoeffMap(*(np.concatenate(pair) for pair in zip(geom, (a, b, summed))))
    _reject_non_finite(*coeffs.arrays, term_coeffs)
    offset = gamma * n_mol
    if not math.isfinite(offset):
        raise GraphBuildError(f"non-finite QUBO penalty offset {offset!r}")

    return QuboProblem(
        n_mol=n_mol,
        n_grid=n_grid,
        coeffs=coeffs,
        term_coeffs=term_coeffs,
        offset=offset,
        gamma=gamma,
        lambdas=tuple(hp.lambdas),
        scales=scales,
        atom_ids=[atom.id for atom in lig.atoms],
        grid_ids=list(grid.point_ids),
        grid_positions=grid.positions,
        experimental_coords=np.array([atom.position for atom in lig.atoms], dtype=float),
    )


def energy(problem: QuboProblem, assignment: Assignment) -> EnergyBreakdown:
    """Evaluate every term map at a bitstring.

    Per-term sums use math.fsum over the values whose two bits are both
    set (nonzero), so the result depends only on which coefficients are
    active, not on their order; in particular the penalty term of a
    constraint-satisfying assignment is exactly zero.
    """
    bits = assignment.bits
    if len(bits) != problem.n_vars:
        raise ValueError(
            f"assignment has {len(bits)} bits, problem has {problem.n_vars} variables"
        )
    return energies(problem, np.asarray(bits).reshape(1, -1))[0]


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
        # Only entries whose two variables are set in some row can be active.
        seen = block.any(axis=0)
        live = np.flatnonzero(seen.take(a) & seen.take(b))
        flat = np.flatnonzero(block.take(a[live], axis=1) & block.take(b[live], axis=1))
        row, entry = np.divmod(flat, len(live))
        active = values[live[entry]].tolist()
        ends = np.cumsum(np.bincount(row, minlength=len(block))).tolist()
        sums.extend(math.fsum(active[s:e]) for s, e in zip([0, *ends], ends))
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
        breakdowns.append(EnergyBreakdown(terms=terms, total=math.fsum(terms.values())))
    return breakdowns


def one_hot_assignment(problem: QuboProblem, mapping: dict[int, int]) -> Assignment:
    """Assignment with exactly the bits (atom index -> grid index) set."""
    bits = np.zeros(problem.n_vars, dtype=np.uint8)
    for atom, point in mapping.items():
        bits[problem.var_index(atom, point)] = 1
    return Assignment(bits)
