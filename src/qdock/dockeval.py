"""Pose decoding, RMSD metrics, the docking pipeline, and the greedy tuner.

A pose is the decoded form of a constraint-satisfying assignment: a total,
injective map from ligand atom ids to grid point ids plus the implied
coordinates. Scoring is always against the experimental ligand coordinates
carried by the problem, matched by atom id with no realignment.

The greedy tuner scores each candidate set of lambdas by docking every
complex at those lambdas; each complex's zero-lambda problem, which
carries its raw physicochemical tables, is built once. The SA tuner
anneals the problem `qubo.with_lambdas` makes from it. With exact=True
the exhaustive scan, the valid placements and each weighted table's
per-placement sums are built once too, and each evaluation builds no
problem: it weights the tables with `qubo.weighted_linear` and hands only
the linear vector to the scan, which sizes its own window; it redoes only
the scan (usually a small part of its 2^n table) and the listing, and
scores each listed state by one rule, reporting what `dock(exact=True)`
would down to the tie order (see `_EnumeratedComplex`). On both paths a
complex is solved once per distinct `_solve_key` of the lambdas, which
zeroes the weight of each term whose raw table is all zero: such a weight
cannot change the problem, so a repeated key reuses the first solve's
adjusted RMSD and every trace entry stays what docking would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .anneal import (
    BRUTE_FORCE_KEEP,
    AnnealSchedule,
    ExhaustiveScan,
    SampleSet,
    brute_force,
    simulated_anneal,
    state_rows,
)
from .errors import NoValidSolutionError
from .model import ComplexInput
from .qubo import (
    PHYSCHEM_TERMS,
    Assignment,
    Hyperparameters,
    QuboProblem,
    build_full,
    energies,
    exact_sum,
    weighted_linear,
    with_lambdas,
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
    columns (grid point claimed twice). `QuboProblem.bit_row` reads the
    bits, as for `energy`. Invalidity is a value, not an exception.
    """
    if not problem.has_decode_context():
        raise ValueError("problem carries no atom/grid context to decode against")
    grid = problem.bit_row(assignment).reshape(problem.n_mol, problem.n_grid)
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
    overall_best = sample_set.best  # raises ValueError for an empty set
    decoded = [(s, decode(s.assignment, problem)) for s in sample_set]
    n_valid = sum(1 for _, d in decoded if isinstance(d, Pose))
    rate = n_valid / len(decoded)
    metadata = {
        "solver": sample_set.metadata.get("solver"),
        "gamma": problem.gamma,
        "lambdas": list(problem.lambdas),
        "scales": list(problem.scales),
    }

    sample, pose = next(((s, d) for s, d in decoded if isinstance(d, Pose)), (overall_best, None))
    experimental, grid = problem.experimental_coords, problem.grid_positions
    report = DockingReport(
        name=name,
        valid=pose is not None,
        pose=pose,
        term_energies=sample.term_energies,
        total_energy=sample.energy,
        lowest_energy=overall_best.energy,
        rmsd=None if pose is None else rmsd(pose, experimental),
        adjusted_rmsd=None if pose is None else adjusted_rmsd(pose, experimental, grid),
        valid_solution_rate=rate,
        n_samples=len(decoded),
        metadata=metadata,
    )
    if pose is not None:
        return report
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


class _EnumeratedComplex:
    """One complex's `dock(exact=True)` as a function of the lambdas.

    Geometry, the penalty, gamma, the scales, the raw tables and the decode
    context do not depend on the lambdas. So the `ExhaustiveScan` of the
    zero-lambda problem and each placement's geom and penalty energies are
    prepared once per complex, and each term's per-placement sums once per
    (term, weight); `weighted_linear` weights the tables afresh each time.

    `evaluate` builds no problem and keeps no copy of the coefficients.
    Every variable has a penalty diagonal entry and geom has none, so the
    linear vector brute force reads is `weighted_linear`'s; the couplings
    and the offset do not depend on the lambdas, so the window the scan
    sizes from that vector is brute force's. `ExhaustiveScan.candidates`
    gives each listed state's placement rank (-1 for an invalid window
    hit), and every listed state, placement or invalid window hit, is
    scored by `_totals`, which is its `energies` total on the weighted
    problem bit for bit: fsum is exact and gives +0.0 for all zeros, the
    tables are finite once the linear vector is, and the penalty energy
    carries the offset. A non-finite linear coefficient makes
    `with_lambdas` raise the GraphBuildError that assembling raises. The
    first valid state among the `BRUTE_FORCE_KEEP` lowest (stable order,
    so ties keep the listing order) is the pose `dock` reports; its
    adjusted RMSD is computed once per placement. `greedy_tune` calls
    `evaluate` once per distinct `_solve_key`: lambdas with one key give
    bit-identical weighted tables, so the same `h` and adjusted RMSD.
    """

    def __init__(self, base: QuboProblem):
        self.base = base
        self.scan = ExhaustiveScan.of(base)
        self.rows = state_rows(self.scan.placements, base.n_vars)
        self.fixed = _lambda_free(base, self.rows)
        self.sums: dict = {}
        self.adjusted: dict[int, float] = {}

    def evaluate(self, lambdas) -> tuple[np.ndarray, float | None]:
        """(h, adjusted): the linear vector brute force reads at
        `lambdas`, and the adjusted RMSD `dock(exact=True)` reports there,
        or None where it raises NoValidSolutionError."""
        base = self.base
        h, tables = weighted_linear(base, lambdas)
        if not np.isfinite(h).all():
            with_lambdas(base, lambdas)  # raises the GraphBuildError
        states, placement = self.scan.candidates(h)
        keys = list(zip(PHYSCHEM_TERMS, lambdas))
        for key, table in zip(keys, tables):
            if key not in self.sums:
                self.sums[key] = _table_sums(table, self.rows)
        totals = np.array(_totals(self.fixed, [self.sums[key] for key in keys]))
        energy = np.empty(len(states))
        valid = placement >= 0
        energy[valid] = totals[placement[valid]]
        if not valid.all():
            invalid = state_rows(states[~valid], base.n_vars)
            sums = [_table_sums(table, invalid) for table in tables]
            energy[~valid] = _totals(_lambda_free(base, invalid), sums)

        ranked = placement[np.argsort(energy, kind="stable")[:BRUTE_FORCE_KEEP]]
        ranked = ranked[ranked >= 0]
        if not len(ranked):
            return h, None
        best = int(ranked[0])
        if best not in self.adjusted:
            pose = decode(Assignment(self.rows[best]), base)
            self.adjusted[best] = adjusted_rmsd(pose, base.experimental_coords, base.grid_positions)
        return h, self.adjusted[best]


def _lambda_free(problem: QuboProblem, rows: np.ndarray) -> list[list[float]]:
    """The bit rows' geom and penalty (offset included) energies, as two lists."""
    fixed = energies(problem, rows)
    return [[e.terms[name] for e in fixed] for name in ("geom", "penalty")]


def _table_sums(table: np.ndarray, rows: np.ndarray) -> list[float]:
    """Per bit row, the fsum of a weighted table over its set variables."""
    if not table.any():
        return [0.0] * len(rows)
    row, variable = np.nonzero(rows)
    values = table[variable].tolist()
    ends = np.cumsum(np.bincount(row, minlength=len(rows))).tolist()
    return [exact_sum(values[s:e]) for s, e in zip([0, *ends], ends)]


def _totals(fixed: list[list[float]], sums: list[list[float]]) -> list[float]:
    """Per state, the fsum of its `_lambda_free` energies and its `_table_sums`."""
    return [exact_sum(terms) for terms in zip(*fixed, *sums)]


def _mean(values: list[float | None]) -> tuple[float | None, int]:
    """Mean (an fsum, so the same on every Python version) of the non-None
    values and how many were None; the mean is None when every value is."""
    kept = [v for v in values if v is not None]
    if not kept:
        return None, len(values)
    return math.fsum(kept) / len(kept), len(values) - len(kept)


def _solve_key(base: QuboProblem, lambdas) -> tuple:
    """The lambdas with the weight of each term whose raw table has no
    nonzero entry set to 0.0. `weighted_linear` zeroes a table wherever
    its raw table is zero and `CoeffMap.nonzero` drops zero products, so
    lambdas with one key give bit-identical tables, linear vectors and
    coefficient maps, and so the same solve. A weight of -0.0 keys as the
    0.0 it equals: its products are zeros, which the maps drop and which
    leave the sums onto the nonzero penalty diagonal unchanged."""
    return tuple(
        lam if base.physchem_raw[name].any() else 0.0 for name, lam in zip(PHYSCHEM_TERMS, lambdas)
    )


def greedy_tune(
    dataset: list[ComplexInput],
    sched: AnnealSchedule,
    weights: tuple = TUNER_WEIGHTS,
    hp_template: Hyperparameters | None = None,
    exact: bool = False,
) -> TunerResult:
    """Greedy forward selection of interaction weights.

    Starting from all-zero lambdas, each round tries every still-unset
    interaction at every candidate weight, measures the dataset mean
    adjusted RMSD, and adopts the best pair if it strictly improves the
    current mean. Ties go to the earlier interaction (el, vdw, hba, hbd,
    hydro) and then to the smaller weight, which is the iteration order.
    A complex that gives no valid pose is left out of a mean and counted
    in the trace entry's `excluded`; the mean is None when every complex
    is.

    Each evaluation's mean is what docking each complex at its lambdas
    gives. Each complex's zero-lambda problem, which carries its raw
    physicochemical tables, is built once, by the `build_full` that
    `dock` runs, and an evaluation checks its lambdas as Hyperparameters
    does. The SA path re-weights that problem with `with_lambdas` and
    anneals. With exact=True each complex's prepared `_EnumeratedComplex`
    (scan tables, valid placements with their geom and penalty terms, and
    per-weight sums) evaluates the lambdas without building a
    problem, redoing only the scan and the listing.

    Each complex is solved once per distinct `_solve_key` of the lambdas
    for the length of the call. A weight on a term whose raw table is all
    zero changes no table, linear vector or coefficient map, so a repeated
    key reuses the stored adjusted RMSD (or None) of the solve that the
    same problem gave, and the trace, means and lambdas do not change.
    Only a ligand that lacks an interaction type has such a term; a
    complex whose five raw tables are all nonzero is solved at every
    evaluation.
    """
    if not dataset:
        raise ValueError("tuner needs a non-empty dataset")
    if hp_template is None:
        hp_template = Hyperparameters()
    weights = tuple(sorted(weights))
    zero = replace(hp_template, lambdas=(0.0,) * 5)
    complexes = []
    for cx in dataset:
        base = build_full(cx, zero)
        complexes.append((cx, base, _EnumeratedComplex(base) if exact else None, {}))

    current = [0.0] * 5
    trace: list[dict] = []
    selection_order: list[dict] = []

    def solve(cx, base, enumerated, lambdas):
        if exact:
            return enumerated.evaluate(lambdas)[1]
        try:
            report = _solve_and_report(with_lambdas(base, lambdas), sched, False, cx.name)
        except NoValidSolutionError:
            return None
        return report.adjusted_rmsd

    def evaluate(lambdas, interaction, weight):
        lambdas = replace(hp_template, lambdas=tuple(lambdas)).lambdas
        values = []
        for cx, base, enumerated, solved in complexes:
            key = _solve_key(base, lambdas)
            if key not in solved:
                solved[key] = solve(cx, base, enumerated, lambdas)
            values.append(solved[key])
        mean, excluded = _mean(values)
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

    if all(entry["mean_adjusted_rmsd"] is None for entry in trace):
        raise NoValidSolutionError(
            "no complex produced a valid pose under any candidate lambdas"
        )
    return TunerResult(
        lambdas=tuple(current),
        selection_order=selection_order,
        trace=trace,
        baseline_mean=baseline_mean,
    )
