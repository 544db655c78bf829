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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import GridGraph, build_grid_graph
from .ligand import LigandGraph, build_ligand_graph
from .model import ComplexInput

TERM_NAMES = ("geom", "penalty", "el", "vdw", "hba", "hbd", "hydro")
PHYSCHEM_TERMS = ("el", "vdw", "hba", "hbd", "hydro")

CoeffMap = dict[tuple[int, int], float]


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
        once.
        """
        n = self.n_vars
        keys = np.array(list(self.coeffs), dtype=np.intp).reshape(-1, 2)
        values = np.fromiter(self.coeffs.values(), dtype=np.float64, count=len(self.coeffs))
        a, b = keys[:, 0], keys[:, 1]
        linear = a == b
        h = np.zeros(n)
        h[a[linear]] = values[linear]
        q_sym = np.zeros((n, n))
        pair = ~linear
        q_sym[a[pair], b[pair]] = values[pair]
        q_sym[b[pair], a[pair]] = values[pair]
        return h, q_sym


@dataclass(frozen=True)
class EnergyBreakdown:
    terms: dict[str, float]
    total: float


def _accumulate(target: CoeffMap, key: tuple[int, int], value: float) -> None:
    value = float(value)  # keep maps free of numpy scalars (repr, JSON)
    if value != 0.0:
        target[key] = target.get(key, 0.0) + value


def build_distortion(lig: LigandGraph, grid: GridGraph) -> CoeffMap:
    """Geometric distortion term map.

    The sum runs over ligand edges and ordered pairs of distinct grid
    points; edge endpoints satisfy i < i', so every coefficient lands in
    the upper triangle directly.
    """
    n_grid = grid.n_points
    geom: CoeffMap = {}
    for edge in lig.edges:
        base_i = edge.i * n_grid
        base_j = edge.j * n_grid
        for j in range(n_grid):
            for jp in range(n_grid):
                if j == jp:
                    continue
                mismatch = edge.dist - grid.dist[j, jp]
                _accumulate(geom, (base_i + j, base_j + jp), mismatch * mismatch)
    return geom


def build_penalty(n_mol: int, n_grid: int, gamma: float) -> tuple[CoeffMap, float]:
    """Constraint-penalty term map and its constant offset."""
    penalty: CoeffMap = {}
    for i in range(n_mol):
        row = i * n_grid
        for j in range(n_grid):
            _accumulate(penalty, (row + j, row + j), -gamma)
        for j in range(n_grid):
            for jp in range(j + 1, n_grid):
                _accumulate(penalty, (row + j, row + jp), 2.0 * gamma)
    for j in range(n_grid):
        for i in range(n_mol):
            for ip in range(i + 1, n_mol):
                _accumulate(penalty, (i * n_grid + j, ip * n_grid + j), 2.0 * gamma)
    offset = gamma * n_mol
    return penalty, offset


def build_physchem_raw(lig: LigandGraph, grid: GridGraph) -> dict[str, CoeffMap]:
    """Unscaled diagonal physicochemical maps (lambda- and scale-free)."""
    n_grid = grid.n_points
    raw: dict[str, CoeffMap] = {name: {} for name in PHYSCHEM_TERMS}
    for i, atom in enumerate(lig.atoms):
        for j in range(n_grid):
            key = (i * n_grid + j, i * n_grid + j)
            _accumulate(raw["el"], key, atom.charge * float(grid.coulomb[j]))
            _accumulate(raw["vdw"], key, float(grid.lj[j, atom.type_index]))
            _accumulate(raw["hba"], key, -float(atom.hbond_acceptor * grid.hb_acceptor[j]))
            _accumulate(raw["hbd"], key, -float(atom.hbond_donor * grid.hb_donor[j]))
            _accumulate(raw["hydro"], key, -float(atom.hydrophobic * grid.hydrophobic[j]))
    return raw


def _max_abs(coeffs: CoeffMap) -> float:
    return max((abs(v) for v in coeffs.values()), default=0.0)


def resolve_scales(hp: Hyperparameters, geom: CoeffMap, raw: dict[str, CoeffMap]) -> tuple:
    """Component scales: explicit values, or geometric/raw magnitude ratio."""
    if hp.component_scales is not None:
        return tuple(float(s) for s in hp.component_scales)
    geom_magnitude = _max_abs(geom)
    scales = []
    for name in PHYSCHEM_TERMS:
        raw_magnitude = _max_abs(raw[name])
        if geom_magnitude > 0.0 and raw_magnitude > 0.0:
            scales.append(float(geom_magnitude / raw_magnitude))
        else:
            scales.append(1.0)
    return tuple(scales)


def resolve_gamma(hp: Hyperparameters, geom: CoeffMap) -> float:
    """Explicit gamma, or ten times the largest geometric coefficient."""
    if hp.gamma is not None:
        return float(hp.gamma)
    geom_magnitude = _max_abs(geom)
    return float(10.0 * geom_magnitude) if geom_magnitude > 0.0 else 1.0


def build_physchem(
    lig: LigandGraph, grid: GridGraph, hp: Hyperparameters, geom: CoeffMap
) -> tuple[dict[str, CoeffMap], tuple]:
    """Scaled physicochemical term maps (value = raw * scale * lambda)."""
    raw = build_physchem_raw(lig, grid)
    scales = resolve_scales(hp, geom, raw)
    scaled: dict[str, CoeffMap] = {}
    for name, scale, lam in zip(PHYSCHEM_TERMS, scales, hp.lambdas):
        factor = scale * lam
        scaled[name] = {
            key: value * factor for key, value in raw[name].items() if value * factor != 0.0
        }
    return scaled, scales


def build_full(complex_input: ComplexInput, hp: Hyperparameters) -> QuboProblem:
    """Assemble the complete Hamiltonian for a complex."""
    lig = build_ligand_graph(complex_input)
    grid = build_grid_graph(complex_input)
    return assemble(lig, grid, hp, complex_input=complex_input)


def assemble(
    lig: LigandGraph,
    grid: GridGraph,
    hp: Hyperparameters,
    complex_input: ComplexInput | None = None,
) -> QuboProblem:
    """Combine term maps into a QuboProblem from prebuilt graphs."""
    geom = build_distortion(lig, grid)
    gamma = resolve_gamma(hp, geom)
    penalty, offset = build_penalty(lig.n_atoms, grid.n_points, gamma)
    physchem, scales = build_physchem(lig, grid, hp, geom)

    term_coeffs: dict[str, CoeffMap] = {"geom": geom, "penalty": penalty}
    term_coeffs.update(physchem)
    coeffs: CoeffMap = {}
    for name in TERM_NAMES:
        for key, value in term_coeffs[name].items():
            _accumulate(coeffs, key, value)

    problem = QuboProblem(
        n_mol=lig.n_atoms,
        n_grid=grid.n_points,
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
    """
    bits = assignment.bits
    if len(bits) != problem.n_vars:
        raise ValueError(
            f"assignment has {len(bits)} bits, problem has {problem.n_vars} variables"
        )
    terms: dict[str, float] = {}
    for name, cmap in problem.term_coeffs.items():
        active = [value for (a, b), value in cmap.items() if bits[a] and bits[b]]
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
