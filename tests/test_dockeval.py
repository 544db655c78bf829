"""Pose decoding, RMSD metrics, docking reports, and the greedy tuner."""

import json
import math

import numpy as np
import pytest

from qdock import (
    AnnealSchedule,
    Assignment,
    CoefficientOverflowError,
    Hyperparameters,
    InvalidAssignment,
    NoValidSolutionError,
    Pose,
    SampleSet,
    adjusted_rmsd,
    brute_force,
    build_full,
    decode,
    dock,
    energy,
    greedy_tune,
    import_qubo,
    nearest_grid_rmsd,
    one_hot_assignment,
    parse_complex,
    report_from_samples,
    rmsd,
    simulated_anneal,
)
from qdock import dockeval, qubo
from qdock.dockeval import TUNER_WEIGHTS

from conftest import (
    PLANTED6_DECOY,
    PLANTED6_PLANTED,
    TINY4_PLANTED,
    index_mapping,
)

PLANTED6_HP = Hyperparameters(lambdas=(0.0, 0.0, 0.0, 0.0, 0.05), gamma=5.0)
TINY4_HP = Hyperparameters(lambdas=(1.0,) * 5, gamma=25.0)


def pair_complex():
    """Two bonded atoms over two grid points at matching spacing."""
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [
                {"id": 1, "position": [0.0, 0.0, 0.0], "charge": 0.0, "type_index": 0},
                {"id": 2, "position": [1.0, 0.0, 0.0], "charge": 0.0, "type_index": 0},
            ],
            "bonds": [{"atoms": [1, 2]}],
        },
        "grid_points": [
            {"id": 100, "position": [0.0, 0.0, 0.0]},
            {"id": 101, "position": [1.0, 0.0, 0.0]},
        ],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    return parse_complex(doc)


def matched_chain():
    """Asymmetric 3-chain over exactly matching points: unique optimum."""
    xs = [0.0, 1.0, 2.3]
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [
                {"id": k + 1, "position": [x, 0.0, 0.0], "charge": 0.0, "type_index": 0}
                for k, x in enumerate(xs)
            ],
            "bonds": [{"atoms": [1, 2]}, {"atoms": [2, 3]}],
        },
        "grid_points": [{"id": 100 + k, "position": [x, 0.0, 0.0]} for k, x in enumerate(xs)],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    return parse_complex(doc)


def mismatched_complex():
    """No grid pair reproduces the ligand bond lengths, and no protein."""
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [
                {"id": k + 1, "position": [1.3 * k, 0.0, 0.0], "charge": 0.0, "type_index": 0}
                for k in range(3)
            ],
            "bonds": [{"atoms": [1, 2]}, {"atoms": [2, 3]}],
        },
        "grid_points": [
            {"id": 100 + k, "position": [7.0 * k, 3.0, 0.0]} for k in range(6)
        ],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    return parse_complex(doc)


def random_valid_mapping(rng, problem):
    points = rng.choice(problem.n_grid, size=problem.n_mol, replace=False)
    return {i: int(points[i]) for i in range(problem.n_mol)}


# ------------------------------------------------------------------ decode

def test_decode_identity_pose():
    problem = build_full(pair_complex(), Hyperparameters(gamma=1.0))
    pose = decode(Assignment.from_string("1001"), problem)
    assert isinstance(pose, Pose)
    assert pose.mapping == {1: 100, 2: 101}
    assert pose.atom_ids == (1, 2)
    assert pose.coordinates.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]


def test_decode_all_zero_reports_first_unassigned_atom():
    problem = build_full(pair_complex(), Hyperparameters(gamma=1.0))
    verdict = decode(Assignment.from_string("0000"), problem)
    assert isinstance(verdict, InvalidAssignment)
    assert verdict.kind == "unassigned"
    assert verdict.atom_id == 1
    assert verdict.grid_id is None


def test_decode_collision_reports_grid_point():
    problem = build_full(pair_complex(), Hyperparameters(gamma=1.0))
    verdict = decode(Assignment.from_string("1010"), problem)
    assert verdict == InvalidAssignment(kind="collision", grid_id=100)


def test_decode_multi_assignment_reports_atom():
    problem = build_full(pair_complex(), Hyperparameters(gamma=1.0))
    verdict = decode(Assignment.from_string("1100"), problem)
    # Row problems are reported before the unassigned second atom.
    assert verdict == InvalidAssignment(kind="multi_assigned", atom_id=1)


def test_decode_requires_context_and_matching_length(tmp_path):
    problem = build_full(pair_complex(), Hyperparameters(gamma=1.0))
    with pytest.raises(ValueError, match="bits"):
        decode(Assignment.from_string("10"), problem)
    from qdock import export_qubo

    path = tmp_path / "x.qubo"
    export_qubo(problem, path)
    imported = import_qubo(path)
    with pytest.raises(ValueError, match="context"):
        decode(Assignment.from_string("0" * problem.n_vars), imported)


def test_decode_valid_iff_penalty_zero(tiny4):
    problem = build_full(tiny4, TINY4_HP)
    rng = np.random.default_rng(79)
    rows = [rng.integers(0, 2, size=problem.n_vars).astype(np.uint8) for _ in range(200)]
    # A set bit stored as 2 is set, as `energy` counts it.
    one_hot = one_hot_assignment(problem, index_mapping(problem, TINY4_PLANTED)).bits
    one_hot[one_hot.argmax()] = 2
    for bits in [*rows, one_hot]:
        assignment = Assignment(bits)
        is_pose = isinstance(decode(assignment, problem), Pose)
        penalty = energy(problem, assignment).terms["penalty"]
        assert is_pose == (penalty == 0.0)


# ------------------------------------------------------------------- rmsd

def test_rmsd_zero_for_identical_coordinates():
    problem = build_full(pair_complex(), Hyperparameters(gamma=1.0))
    pose = decode(Assignment.from_string("1001"), problem)
    assert rmsd(pose, problem.experimental_coords) == 0.0


def test_rmsd_single_displacement_forced_value():
    coords = np.zeros((4, 3))
    pose = Pose(mapping={}, coordinates=coords, atom_ids=(1, 2, 3, 4))
    experimental = coords.copy()
    experimental[2, 1] = 2.0  # one atom out by 2 A: sqrt(4/4) = 1
    assert rmsd(pose, experimental) == 1.0


def test_rmsd_rejects_shape_mismatch():
    pose = Pose(mapping={}, coordinates=np.zeros((2, 3)), atom_ids=(1, 2))
    with pytest.raises(ValueError, match="shape mismatch"):
        rmsd(pose, np.zeros((3, 3)))


def test_rmsd_matches_hand_formula(tiny4):
    problem = build_full(tiny4, TINY4_HP)
    rng = np.random.default_rng(83)
    for _ in range(40):
        mapping = random_valid_mapping(rng, problem)
        pose = decode(one_hot_assignment(problem, mapping), problem)
        total = 0.0
        for i in range(problem.n_mol):
            total += math.dist(
                problem.experimental_coords[i], problem.grid_positions[mapping[i]]
            ) ** 2
        assert rmsd(pose, problem.experimental_coords) == pytest.approx(
            math.sqrt(total / problem.n_mol), rel=1e-12
        )


def test_nearest_grid_floor():
    experimental = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    on_grid = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [9.0, 9.0, 9.0]])
    assert nearest_grid_rmsd(experimental, on_grid) == 0.0
    shifted = np.array([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0]])
    assert nearest_grid_rmsd(experimental, shifted) == 0.5


def test_fixture_floors_are_the_designed_offsets(tiny4, planted6):
    for cx in (tiny4, planted6):
        problem = build_full(cx, Hyperparameters(gamma=1.0))
        floor = nearest_grid_rmsd(problem.experimental_coords, problem.grid_positions)
        assert floor == 0.0625


def test_adjusted_rmsd_zero_on_grid():
    problem = build_full(pair_complex(), Hyperparameters(gamma=1.0))
    pose = decode(Assignment.from_string("1001"), problem)
    assert adjusted_rmsd(pose, problem.experimental_coords, problem.grid_positions) == 0.0


def test_adjusted_rmsd_nonnegative_for_grid_poses(tiny4, planted6):
    rng = np.random.default_rng(89)
    for cx in (tiny4, planted6):
        problem = build_full(cx, Hyperparameters(gamma=1.0))
        for _ in range(500):
            mapping = random_valid_mapping(rng, problem)
            pose = decode(one_hot_assignment(problem, mapping), problem)
            value = adjusted_rmsd(
                pose, problem.experimental_coords, problem.grid_positions
            )
            assert value >= -1e-9


def test_planted6_reference_poses_have_exact_metrics(planted6):
    problem = build_full(planted6, PLANTED6_HP)
    planted = decode(
        one_hot_assignment(problem, index_mapping(problem, PLANTED6_PLANTED)), problem
    )
    decoy = decode(
        one_hot_assignment(problem, index_mapping(problem, PLANTED6_DECOY)), problem
    )
    exp, grid = problem.experimental_coords, problem.grid_positions
    assert rmsd(planted, exp) == 0.0625
    assert adjusted_rmsd(planted, exp, grid) == 0.0
    assert rmsd(decoy, exp) == 6.5
    assert adjusted_rmsd(decoy, exp, grid) == 6.4375


def test_metrics_translation_covariance(tiny4_doc):
    rng = np.random.default_rng(97)
    base = build_full(parse_complex(tiny4_doc), Hyperparameters(gamma=1.0))
    for _ in range(10):
        shift = rng.uniform(-20.0, 20.0, 3)
        moved_doc = json.loads(json.dumps(tiny4_doc))
        for atom in moved_doc["protein"]:
            atom["position"] = list(np.array(atom["position"]) + shift)
            if "donor_hydrogens" in atom:
                atom["donor_hydrogens"] = [
                    list(np.array(h) + shift) for h in atom["donor_hydrogens"]
                ]
        for atom in moved_doc["ligand"]["atoms"]:
            atom["position"] = list(np.array(atom["position"]) + shift)
        for gp in moved_doc["grid_points"]:
            gp["position"] = list(np.array(gp["position"]) + shift)
        moved = build_full(parse_complex(moved_doc), Hyperparameters(gamma=1.0))

        for _ in range(20):
            mapping = random_valid_mapping(rng, base)
            pose_a = decode(one_hot_assignment(base, mapping), base)
            pose_b = decode(one_hot_assignment(moved, mapping), moved)
            r_a = rmsd(pose_a, base.experimental_coords)
            r_b = rmsd(pose_b, moved.experimental_coords)
            assert abs(r_a - r_b) <= 1e-12 * max(1.0, abs(r_a))
            adj_a = adjusted_rmsd(pose_a, base.experimental_coords, base.grid_positions)
            adj_b = adjusted_rmsd(pose_b, moved.experimental_coords, moved.grid_positions)
            assert abs(adj_a - adj_b) <= 1e-12 * max(1.0, abs(adj_a))


# ----------------------------------------------------------------- reports

def test_report_scores_lowest_valid_sample(tiny4):
    problem = build_full(tiny4, TINY4_HP)
    report = report_from_samples(problem, brute_force(problem), name="tiny4")
    assert report.valid is True
    assert report.pose is not None
    assert report.total_energy == report.lowest_energy
    assert 0.0 < report.valid_solution_rate <= 1.0
    assert report.rmsd is not None and report.adjusted_rmsd is not None
    assert report.metadata["gamma"] == 25.0
    doc = report.to_dict()
    assert doc["name"] == "tiny4"
    json.dumps(doc)  # must be serializable as-is


def test_report_without_valid_samples_raises_with_context(tmp_path):
    problem = build_full(pair_complex(), Hyperparameters(gamma=1.0))
    from qdock import import_samples

    path = tmp_path / "bad_samples.json"
    path.write_text(json.dumps(["0000", "1100", "1010"]))
    external = import_samples(problem, path)
    with pytest.raises(NoValidSolutionError) as excinfo:
        report_from_samples(problem, external, name="pair")
    report = excinfo.value.report
    assert report.valid is False
    assert report.pose is None
    assert report.valid_solution_rate == 0.0
    assert report.n_samples == 3
    assert report.total_energy == external.best.energy


def test_report_from_empty_sample_set_raises_value_error(tiny4):
    problem = build_full(tiny4, TINY4_HP)
    with pytest.raises(ValueError, match="^empty sample set$"):
        report_from_samples(problem, SampleSet(samples=[]), name="tiny4")


def test_dock_single_atom_single_point():
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [{"id": 1, "position": [0.0, 0.0, 0.0], "charge": 0.0, "type_index": 0}],
            "bonds": [],
        },
        "grid_points": [{"id": 100, "position": [0.5, 0.0, 0.0]}],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    report = dock(
        parse_complex(doc), Hyperparameters(gamma=1.0), AnnealSchedule(), exact=True
    )
    assert report.valid
    assert report.pose.mapping == {1: 100}
    assert report.rmsd == 0.5
    assert report.adjusted_rmsd == 0.0


def test_dock_zero_lambdas_is_pure_geometry(tiny4):
    report = dock(tiny4, Hyperparameters(gamma=25.0), AnnealSchedule(), exact=True)
    terms = report.term_energies
    assert terms["penalty"] == 0.0
    for name in ("el", "vdw", "hba", "hbd", "hydro"):
        assert terms[name] == 0.0
    assert report.total_energy == terms["geom"]


def test_dock_is_deterministic(planted6):
    sched = AnnealSchedule(n_reads=5, n_sweeps=100, seed=7)
    a = dock(planted6, PLANTED6_HP, sched)
    b = dock(planted6, PLANTED6_HP, sched)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_planted6_geometry_alone_prefers_decoy(planted6):
    report = dock(planted6, Hyperparameters(gamma=5.0), AnnealSchedule(), exact=True)
    assert report.pose.mapping == PLANTED6_DECOY
    assert report.adjusted_rmsd == 6.4375
    # A small hydrophobic reward flips the optimum onto the planted pose.
    tuned = dock(planted6, PLANTED6_HP, AnnealSchedule(), exact=True)
    assert tuned.pose.mapping == PLANTED6_PLANTED
    assert tuned.adjusted_rmsd == 0.0


# ------------------------------------------------------------------- tuner

def test_tuner_weights_are_ascending():
    assert TUNER_WEIGHTS == tuple(sorted(TUNER_WEIGHTS))


def test_tuner_keeps_zero_lambdas_without_signal():
    """No protein means no colorings: every candidate ties the baseline."""
    cx = matched_chain()
    result = greedy_tune([cx], AnnealSchedule(), exact=True)
    assert result.lambdas == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert result.selection_order == []
    # Baseline evaluation plus one full round of 5 interactions x 5 weights.
    assert len(result.trace) == 26
    assert result.baseline_mean == 0.0
    for entry in result.trace:
        assert entry["mean_adjusted_rmsd"] == result.baseline_mean


def test_tuner_selects_planted_interaction(planted6):
    result = greedy_tune([planted6], AnnealSchedule(), hp_template=Hyperparameters(gamma=5.0), exact=True)
    assert result.lambdas == (0.0, 0.0, 0.0, 0.0, 0.2)
    assert result.baseline_mean == 6.4375
    first = result.selection_order[0]
    assert first["interaction"] == "hydro"
    assert first["weight"] == 0.2
    assert first["mean_adjusted_rmsd"] == 0.0
    # Adopted steps improve strictly and never backtrack.
    means = [result.baseline_mean] + [
        step["mean_adjusted_rmsd"] for step in result.selection_order
    ]
    assert all(later < earlier for earlier, later in zip(means, means[1:]))


def test_tuner_requires_dataset():
    with pytest.raises(ValueError, match="non-empty"):
        greedy_tune([], AnnealSchedule())


def test_tuner_raises_when_nothing_decodes():
    sched = AnnealSchedule(n_reads=1, n_sweeps=1, seed=0)
    with pytest.raises(NoValidSolutionError, match="no complex produced a valid pose"):
        greedy_tune([mismatched_complex()], sched, hp_template=Hyperparameters(gamma=1e-6))


@pytest.mark.parametrize("exact", [True, False])
def test_tuner_reports_coefficient_sum_overflow(planted6, exact):
    # Scale x lambda stays finite at the first weight (0.2), but the
    # coefficient magnitudes sum past the float range in the exact window
    # scale and in SA's start energies.
    template = Hyperparameters(gamma=5.0, component_scales=(1e308,) * 5)
    sched = AnnealSchedule(n_reads=2, n_sweeps=2)
    with pytest.raises(CoefficientOverflowError, match="sum past the float range"):
        greedy_tune([planted6], sched, hp_template=template, exact=exact)


def test_tuner_counts_excluded_complexes():
    # A weak penalty leaves the mismatched complex stuck on invalid states
    # while the matched chain keeps producing poses, so every evaluation
    # reports exactly one exclusion.
    sched = AnnealSchedule(n_reads=5, n_sweeps=100, seed=0)
    result = greedy_tune(
        [mismatched_complex(), matched_chain()],
        sched,
        hp_template=Hyperparameters(gamma=1e-6),
    )
    assert result.trace[0]["excluded"] == 1
    assert result.lambdas == (0.0, 0.0, 0.0, 0.0, 0.0)
    doc = result.to_dict()
    json.dumps(doc)
    assert doc["lambdas"] == list(result.lambdas)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("weight", [-1.0, math.nan])
def test_tuner_rejects_weights_that_are_not_lambdas(planted6, exact, weight):
    sched = AnnealSchedule(n_reads=2, n_sweeps=2)
    template = Hyperparameters(gamma=5.0)
    with pytest.raises(ValueError, match="lambdas must be non-negative and finite"):
        greedy_tune([planted6], sched, weights=(weight,), hp_template=template, exact=exact)


# The tuner's schedule and the re-dock's: exact tuning ignores it.
TUNED_PAIR_SCHEDULE = AnnealSchedule(n_reads=4, n_sweeps=30, seed=3)


@pytest.fixture(scope="module", params=[True, False], ids=["exact", "sa"])
def tuned_pair(request, planted6):
    """greedy_tune on planted6 and the matched chain, exactly or by SA, with
    build_grid_graph counted where `build_full` looks it up and build_full
    where qdock.dockeval looks it up."""
    colourings, builds = [], []
    build_grid_graph, build_full = qubo.build_grid_graph, dockeval.build_full

    def colouring(cx):
        colourings.append(cx)
        return build_grid_graph(cx)

    def building(cx, hp):
        builds.append((cx, hp))
        return build_full(cx, hp)

    dataset = [planted6, matched_chain()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qubo, "build_grid_graph", colouring)
        patch.setattr(dockeval, "build_full", building)
        result = greedy_tune(
            dataset,
            TUNED_PAIR_SCHEDULE,
            hp_template=Hyperparameters(gamma=5.0),
            exact=request.param,
        )
    return dataset, request.param, result, colourings, builds


def test_tuner_colours_each_complex_once(tuned_pair):
    dataset, _, result, colourings, _ = tuned_pair
    assert len(result.trace) > len(dataset)
    assert len(colourings) == len(dataset)
    assert all(coloured is cx for coloured, cx in zip(colourings, dataset))


def test_tuner_builds_each_complex_once_through_build_full(tuned_pair):
    """One `build_full` per complex at zero lambdas, on both tuner paths,
    where a tracer that wraps the public functions sees it."""
    dataset, _, _, _, builds = tuned_pair
    assert len(builds) == len(dataset)
    assert all(built is cx for (built, _), cx in zip(builds, dataset))
    assert all(hp == Hyperparameters(gamma=5.0) for _, hp in builds)


def test_tuner_trace_matches_docking_each_complex(tuned_pair):
    dataset, exact, result, _, _ = tuned_pair
    for entry in result.trace:
        hp = Hyperparameters(lambdas=tuple(entry["lambdas"]), gamma=5.0)
        values = []
        for cx in dataset:
            try:
                values.append(dock(cx, hp, TUNED_PAIR_SCHEDULE, exact=exact).adjusted_rmsd)
            except NoValidSolutionError:
                assert not exact
        assert entry["excluded"] == len(dataset) - len(values)
        assert entry["mean_adjusted_rmsd"] == (sum(values) / len(values) if values else None)


def test_tuner_mean_sums_exactly():
    # The builtin sum gives 1.0 here before Python 3.12 and 1 + 2e-16 after.
    mean, excluded = dockeval._mean([1.0, 1e-16, None, 1e-16])
    assert (mean, excluded) == (math.fsum([1.0, 1e-16, 1e-16]) / 3, 1)
    assert mean != 1.0 / 3
