"""Pose decoding, RMSD metrics, the docking pipeline, and the greedy tuner.

A pose is the decoded form of a constraint-satisfying assignment: a total,
injective map from ligand atom ids to grid point ids plus the implied
coordinates. Scoring is always against the experimental ligand coordinates
carried by the problem, matched by atom id with no realignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .anneal import AnnealSchedule, SampleSet, brute_force, simulated_anneal
from .errors import NoValidSolutionError
from .grid import GridGraph, build_grid_graph
from .ligand import LigandGraph, build_ligand_graph
from .model import ComplexInput
from .qubo import (
    PHYSCHEM_TERMS,
    Assignment,
    Hyperparameters,
    QuboProblem,
    assemble,
    build_full,
)

TUNER_WEIGHTS = (0.2, 0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class Pose:
    mapping: dict[int, int]
    coordinates: np.ndarray
    atom_ids: tuple[int, ...]


@dataclass(frozen=True)
class InvalidAssignment:
    """Why an assignment is not a pose; exactly one id field is set."""

    kind: str  # "unassigned" | "multi_assigned" | "collision"
    atom_id: int | None = None
    grid_id: int | None = None


def decode(assignment: Assignment, problem: QuboProblem) -> Pose | InvalidAssignment:
    """Read a bitstring as a pose, or say precisely why it is not one.

    Rows are scanned first (missing/duplicate grid point per atom), then
    columns (grid point claimed twice). Invalidity is a value, not an
    exception.
    """
    if not problem.has_decode_context():
        raise ValueError("problem carries no atom/grid context to decode against")
    bits = assignment.bits
    if len(bits) != problem.n_vars:
        raise ValueError(
            f"assignment has {len(bits)} bits, problem has {problem.n_vars} variables"
        )
    grid = bits.reshape(problem.n_mol, problem.n_grid)
    per_atom = grid.sum(axis=1)
    for i in range(problem.n_mol):
        if per_atom[i] == 0:
            return InvalidAssignment(kind="unassigned", atom_id=problem.atom_ids[i])
        if per_atom[i] > 1:
            return InvalidAssignment(kind="multi_assigned", atom_id=problem.atom_ids[i])
    per_point = grid.sum(axis=0)
    for j in range(problem.n_grid):
        if per_point[j] > 1:
            return InvalidAssignment(kind="collision", grid_id=problem.grid_ids[j])

    chosen = grid.argmax(axis=1)
    mapping = {
        problem.atom_ids[i]: problem.grid_ids[int(chosen[i])] for i in range(problem.n_mol)
    }
    coordinates = problem.grid_positions[chosen]
    return Pose(mapping=mapping, coordinates=coordinates, atom_ids=tuple(problem.atom_ids))


def rmsd(predicted: Pose, experimental: np.ndarray) -> float:
    """Root-mean-square deviation over id-matched atoms, no realignment."""
    experimental = np.asarray(experimental, dtype=float)
    if experimental.shape != predicted.coordinates.shape:
        raise ValueError(
            f"coordinate shape mismatch: pose {predicted.coordinates.shape}, "
            f"experimental {experimental.shape}"
        )
    deviations = ((predicted.coordinates - experimental) ** 2).sum(axis=1)
    return float(np.sqrt(deviations.mean()))


def nearest_grid_rmsd(experimental: np.ndarray, grid_positions: np.ndarray) -> float:
    """RMSD floor: each atom matched to its nearest grid point independently."""
    experimental = np.asarray(experimental, dtype=float)
    grid_positions = np.asarray(grid_positions, dtype=float)
    squared = ((experimental[:, None, :] - grid_positions[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(squared.min(axis=1).mean()))


def adjusted_rmsd(predicted: Pose, experimental: np.ndarray, grid_positions: np.ndarray) -> float:
    """RMSD with the discretization floor subtracted.

    The floor relaxes injectivity, so for any pose placed on grid points
    the result is non-negative: per atom, the squared distance to the
    chosen grid point is one of the candidates the floor minimizes over.
    """
    return rmsd(predicted, experimental) - nearest_grid_rmsd(experimental, grid_positions)


@dataclass
class DockingReport:
    name: str
    valid: bool
    pose: Pose | None
    term_energies: dict[str, float]
    total_energy: float
    lowest_energy: float
    rmsd: float | None
    adjusted_rmsd: float | None
    valid_solution_rate: float
    n_samples: int
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        pose_doc = None
        if self.pose is not None:
            pose_doc = {
                "mapping": {str(atom): point for atom, point in self.pose.mapping.items()},
                "coordinates": [list(map(float, row)) for row in self.pose.coordinates],
            }
        return {
            "name": self.name,
            "valid": self.valid,
            "pose": pose_doc,
            "energies": dict(self.term_energies),
            "total_energy": self.total_energy,
            "lowest_energy": self.lowest_energy,
            "rmsd": self.rmsd,
            "adjusted_rmsd": self.adjusted_rmsd,
            "valid_solution_rate": self.valid_solution_rate,
            "n_samples": self.n_samples,
            "metadata": dict(self.metadata),
        }


def report_from_samples(
    problem: QuboProblem, sample_set: SampleSet, name: str
) -> DockingReport:
    """Score the lowest-energy valid sample; keep the overall best on record."""
    decoded = [(s, decode(s.assignment, problem)) for s in sample_set]
    n_valid = sum(1 for _, d in decoded if isinstance(d, Pose))
    rate = n_valid / len(decoded)
    overall_best = sample_set.best
    metadata = {
        "solver": sample_set.metadata.get("solver"),
        "gamma": problem.gamma,
        "lambdas": list(problem.lambdas),
        "scales": list(problem.scales),
    }

    for sample, pose in decoded:
        if isinstance(pose, Pose):
            experimental = problem.experimental_coords
            return DockingReport(
                name=name,
                valid=True,
                pose=pose,
                term_energies=sample.term_energies,
                total_energy=sample.energy,
                lowest_energy=overall_best.energy,
                rmsd=rmsd(pose, experimental),
                adjusted_rmsd=adjusted_rmsd(pose, experimental, problem.grid_positions),
                valid_solution_rate=rate,
                n_samples=len(decoded),
                metadata=metadata,
            )

    report = DockingReport(
        name=name,
        valid=False,
        pose=None,
        term_energies=overall_best.term_energies,
        total_energy=overall_best.energy,
        lowest_energy=overall_best.energy,
        rmsd=None,
        adjusted_rmsd=None,
        valid_solution_rate=0.0,
        n_samples=len(decoded),
        metadata=metadata,
    )
    raise NoValidSolutionError(f"{name}: no sample decodes to a valid pose", report=report)


def dock(
    complex_input: ComplexInput,
    hp: Hyperparameters,
    sched: AnnealSchedule,
    exact: bool = False,
    n_threads: int = 1,
) -> DockingReport:
    """Build the QUBO, solve it, and score the best valid pose.

    n_threads is accepted for compatibility and has no effect.
    """
    return _solve_and_report(build_full(complex_input, hp), sched, exact, complex_input.name)


def _solve_and_report(
    problem: QuboProblem, sched: AnnealSchedule, exact: bool, name: str
) -> DockingReport:
    sample_set = brute_force(problem) if exact else simulated_anneal(problem, sched)
    return report_from_samples(problem, sample_set, name)


@dataclass
class TunerResult:
    lambdas: tuple[float, float, float, float, float]
    selection_order: list[dict]
    trace: list[dict]
    baseline_mean: float | None

    def to_dict(self) -> dict:
        return {
            "lambdas": list(self.lambdas),
            "selection_order": [dict(step) for step in self.selection_order],
            "trace": [dict(entry) for entry in self.trace],
            "baseline_mean": self.baseline_mean,
        }


def _mean_adjusted(
    dataset: list[tuple[ComplexInput, LigandGraph, GridGraph]],
    lambdas: tuple,
    hp_template: Hyperparameters,
    sched: AnnealSchedule,
    exact: bool,
) -> tuple[float | None, int]:
    """Mean adjusted RMSD of the lowest-energy valid pose per complex.

    Each dataset entry carries the complex's prebuilt ligand and grid
    graphs, which do not depend on the lambdas. Complexes producing no
    valid pose are excluded from the mean; the exclusion count is
    returned alongside. None means every complex was excluded.
    """
    hp = replace(hp_template, lambdas=tuple(lambdas))
    values = []
    excluded = 0
    for complex_input, lig, grid in dataset:
        problem = assemble(lig, grid, hp)
        try:
            report = _solve_and_report(problem, sched, exact, complex_input.name)
        except NoValidSolutionError:
            excluded += 1
            continue
        values.append(report.adjusted_rmsd)
    if not values:
        return None, excluded
    return sum(values) / len(values), excluded


def greedy_tune(
    dataset: list[ComplexInput],
    sched: AnnealSchedule,
    weights: tuple = TUNER_WEIGHTS,
    hp_template: Hyperparameters | None = None,
    exact: bool = False,
    n_threads: int = 1,
) -> TunerResult:
    """Greedy forward selection of interaction weights.

    Starting from all-zero lambdas, each round tries every still-unset
    interaction at every candidate weight, measures the dataset mean
    adjusted RMSD, and adopts the best pair if it strictly improves the
    current mean. Ties go to the earlier interaction (el, vdw, hba, hbd,
    hydro) and then to the smaller weight, which is the iteration order.
    Each complex's ligand and grid graphs are built once; every
    evaluation only assembles and solves its QUBO.
    n_threads is accepted for compatibility and has no effect.
    """
    if not dataset:
        raise ValueError("tuner needs a non-empty dataset")
    if hp_template is None:
        hp_template = Hyperparameters()
    weights = tuple(sorted(weights))
    graphs = [(cx, build_ligand_graph(cx), build_grid_graph(cx)) for cx in dataset]

    current = [0.0] * 5
    trace: list[dict] = []
    selection_order: list[dict] = []
    any_valid = False

    def evaluate(lambdas, interaction, weight):
        nonlocal any_valid
        mean, excluded = _mean_adjusted(graphs, tuple(lambdas), hp_template, sched, exact)
        if mean is not None:
            any_valid = True
        trace.append(
            {
                "interaction": interaction,
                "weight": weight,
                "lambdas": list(lambdas),
                "mean_adjusted_rmsd": mean,
                "excluded": excluded,
            }
        )
        return mean

    baseline_mean = evaluate(current, None, None)
    current_mean = math.inf if baseline_mean is None else baseline_mean

    unset = list(range(5))
    while unset:
        best_pair = None
        best_mean = current_mean
        for t in list(unset):
            for weight in weights:
                candidate = list(current)
                candidate[t] = weight
                mean = evaluate(candidate, PHYSCHEM_TERMS[t], weight)
                if mean is not None and mean < best_mean:
                    best_pair = (t, weight)
                    best_mean = mean
        if best_pair is None:
            break
        t, weight = best_pair
        current[t] = weight
        unset.remove(t)
        current_mean = best_mean
        selection_order.append(
            {
                "interaction": PHYSCHEM_TERMS[t],
                "weight": weight,
                "mean_adjusted_rmsd": best_mean,
            }
        )

    if not any_valid:
        raise NoValidSolutionError(
            "no complex produced a valid pose under any candidate lambdas"
        )
    return TunerResult(
        lambdas=tuple(current),
        selection_order=selection_order,
        trace=trace,
        baseline_mean=baseline_mean,
    )
