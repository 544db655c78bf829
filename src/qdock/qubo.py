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
compare like with like.

Each term is computed as arrays over the ligand edges, the grid distance
matrix and the grid color vectors, and becomes its term map once, zero
entries dropped. The maps stay the public model: the coordinate file,
`energy` and callers outside the package read and construct them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphBuildError, QdockError
from .grid import GridGraph, build_grid_graph
from .ligand import LigandGraph, build_ligand_graph
from .model import ComplexInput

TERM_NAMES = ("geom", "penalty", "el", "vdw", "hba", "hbd", "hydro")
PHYSCHEM_TERMS = ("el", "vdw", "hba", "hbd", "hydro")

CoeffMap = dict[tuple[int, int], float]


def coeff_arrays(coeffs: CoeffMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A coefficient map as parallel (a, b, value) arrays in insertion order."""
    n = len(coeffs)
    keys = np.fromiter(itertools.chain.from_iterable(coeffs), np.intp, 2 * n).reshape(n, 2)
    return keys[:, 0], keys[:, 1], np.fromiter(coeffs.values(), np.float64, n)


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
    `coeffs` is always the entrywise sum of `term_coeffs`. Problems built
    from a complex carry the decode context (atom/grid ids, grid positions,
    experimental coordinates); problems imported from a coordinate file
    only carry coefficients.
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

        Built once from `coeffs`, which must not change afterwards. Keys
        are unique, so index assignment places each coefficient exactly
        once. Raises QdockError when the n x n matrix cannot be allocated.
        """
        n = self.n_vars
        a, b, values = coeff_arrays(self.coeffs)
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


def _coeff_map(a: np.ndarray, b: np.ndarray, values: np.ndarray) -> CoeffMap:
    """The nonzero entries of parallel (a, b, value) arrays as a term map,
    with Python int keys and float values (repr, JSON)."""
    keep = values != 0.0
    return dict(zip(zip(a[keep].tolist(), b[keep].tolist()), values[keep].tolist()))


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
    return _coeff_map(*_penalty_entries(n_mol, n_grid, gamma)), gamma * n_mol


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
    """Component scales: explicit values, or geometric/raw magnitude ratio."""
    if hp.component_scales is not None:
        return tuple(float(s) for s in hp.component_scales)
    geom_magnitude = float(np.abs(geom).max(initial=0.0))
    scales = []
    for name in PHYSCHEM_TERMS:
        raw_magnitude = float(np.abs(raw[name]).max(initial=0.0))
        if geom_magnitude > 0.0 and raw_magnitude > 0.0:
            scales.append(float(geom_magnitude / raw_magnitude))
        else:
            scales.append(1.0)
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
    return assemble(lig, grid, hp, complex_input=complex_input)


def _reject_non_finite(a, b, values: np.ndarray, term_coeffs: dict[str, CoeffMap]) -> None:
    """Raise GraphBuildError naming the first non-finite value and the
    first term (in TERM_NAMES order) that is non-finite at its entry."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        key = (int(a[bad[0]]), int(b[bad[0]]))
        for name in TERM_NAMES:
            value = term_coeffs[name].get(key, 0.0)
            if not math.isfinite(value):
                raise GraphBuildError(
                    f"non-finite QUBO coefficient in term {name!r}: entry {key} = {value!r}"
                )
        total = float(values[bad[0]])
        raise GraphBuildError(
            f"non-finite QUBO coefficient: the terms at entry {key} sum to {total!r}"
        )


def assemble(
    lig: LigandGraph,
    grid: GridGraph,
    hp: Hyperparameters,
    complex_input: ComplexInput | None = None,
) -> QuboProblem:
    """Combine the term arrays into a QuboProblem from prebuilt graphs. No
    other term shares a geom key, and the penalty holds every other key,
    whose diagonal adds the scaled physicochemical tables in order."""
    n_mol, n_grid = lig.n_atoms, grid.n_points
    geom_a, geom_b, geom_values = build_distortion(lig, grid)
    gamma = resolve_gamma(hp, geom_values)
    a, b, penalty_values = _penalty_entries(n_mol, n_grid, gamma)
    keys = list(zip(a.tolist(), b.tolist()))
    term_coeffs: dict[str, CoeffMap] = {
        "geom": _coeff_map(geom_a, geom_b, geom_values),
        "penalty": dict(zip(keys, penalty_values.tolist())),
    }
    variables = np.arange(n_mol * n_grid)
    summed = penalty_values.copy()
    # Extreme inputs can overflow here; the finite checks below name the entry.
    with np.errstate(over="ignore", invalid="ignore"):
        raw = build_physchem_raw(lig, grid)
        scales = resolve_scales(hp, geom_values, raw)
        for name, scale, lam in zip(PHYSCHEM_TERMS, scales, hp.lambdas):
            table = np.where(raw[name] != 0.0, raw[name] * (scale * lam), 0.0).ravel()
            term_coeffs[name] = _coeff_map(variables, variables, table)
            summed[a == b] += table
    _reject_non_finite(geom_a, geom_b, geom_values, term_coeffs)
    _reject_non_finite(a, b, summed, term_coeffs)
    offset = gamma * n_mol
    if not math.isfinite(offset):
        raise GraphBuildError(f"non-finite QUBO penalty offset {offset!r}")
    coeffs = dict(term_coeffs["geom"])
    coeffs.update(zip(keys, summed.tolist()))

    problem = QuboProblem(
        n_mol=n_mol,
        n_grid=n_grid,
        coeffs=coeffs,
        term_coeffs=term_coeffs,
        offset=offset,
        gamma=gamma,
        lambdas=tuple(hp.lambdas),
        scales=scales,
        grid_ids=list(grid.point_ids),
        grid_positions=grid.positions,
    )
    if complex_input is not None:
        problem.atom_ids = [a.id for a in complex_input.ligand_atoms]
        problem.experimental_coords = complex_input.ligand_coordinates()
    else:
        problem.atom_ids = [a.id for a in lig.atoms]
        problem.experimental_coords = np.array([a.position for a in lig.atoms], dtype=float)
    return problem


def energy(problem: QuboProblem, assignment: Assignment) -> EnergyBreakdown:
    """Evaluate every term map at a bitstring.

    Per-term sums use math.fsum, so the result depends only on which
    coefficients are active, not on iteration order; in particular the
    penalty term of a constraint-satisfying assignment is exactly zero.
    A term map with more entries than there are active pairs (a <= b) is
    read by looking those pairs up; a smaller one is scanned whole.
    """
    bits = assignment.bits
    if len(bits) != problem.n_vars:
        raise ValueError(
            f"assignment has {len(bits)} bits, problem has {problem.n_vars} variables"
        )
    flags = bits.tolist()
    on = [var for var, flag in enumerate(flags) if flag]
    n_pairs = len(on) * (len(on) + 1) // 2
    pairs = None
    terms: dict[str, float] = {}
    for name, cmap in problem.term_coeffs.items():
        if n_pairs < len(cmap):
            if pairs is None:
                pairs = [(a, b) for k, a in enumerate(on) for b in on[k:]]
            active = [value for value in map(cmap.get, pairs) if value is not None]
        else:
            active = [value for (a, b), value in cmap.items() if flags[a] and flags[b]]
        term_energy = math.fsum(active)
        if name == "penalty":
            term_energy += problem.offset
        terms[name] = term_energy
    if "penalty" not in terms and problem.offset != 0.0:
        terms["offset"] = problem.offset
    return EnergyBreakdown(terms=terms, total=math.fsum(terms.values()))


def one_hot_assignment(problem: QuboProblem, mapping: dict[int, int]) -> Assignment:
    """Assignment with exactly the bits (atom index -> grid index) set."""
    bits = np.zeros(problem.n_vars, dtype=np.uint8)
    for atom, point in mapping.items():
        bits[problem.var_index(atom, point)] = 1
    return Assignment(bits)
