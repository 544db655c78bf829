"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (visible even under captured output). The two bundled fixtures carry
known planted poses; the hyperparameters below are the reference builds
those fixtures were designed around.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from qdock import (
    AnnealSchedule,
    Assignment,
    Hyperparameters,
    Pose,
    adjusted_rmsd,
    brute_force,
    build_full,
    build_grid_graph,
    build_ligand_graph,
    decode,
    energy,
    export_qubo,
    greedy_tune,
    import_qubo,
    one_hot_assignment,
    parse_complex,
    report_from_samples,
    rmsd,
    simulated_anneal,
)
from qdock.grid import _point_atom_distances, coulomb_potential, lj_vector
from qdock.model import AtomTypeTable, ProteinAtom

from conftest import PLANTED6_PLANTED, TINY4_PLANTED, index_mapping

TINY4_HP = Hyperparameters(lambdas=(1.0, 1.0, 1.0, 1.0, 1.0), gamma=25.0)
PLANTED6_HP = Hyperparameters(lambdas=(0.0, 0.0, 0.0, 0.0, 0.05), gamma=5.0)
SCHEDULE = AnnealSchedule(n_reads=100, n_sweeps=2000, seed=7)


def announce(capsys, number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} {name} failed: {detail}"


@pytest.fixture(scope="module")
def builds(tiny4, planted6):
    """Problems, planted poses, and solver outputs shared by the criteria."""
    out = {}
    for name, cx, hp, planted in (
        ("tiny4", tiny4, TINY4_HP, TINY4_PLANTED),
        ("planted6", planted6, PLANTED6_HP, PLANTED6_PLANTED),
    ):
        problem = build_full(cx, hp)
        out[name] = {
            "cx": cx,
            "hp": hp,
            "problem": problem,
            "planted": index_mapping(problem, planted),
            "exact": brute_force(problem),
            "sa": simulated_anneal(problem, SCHEDULE, n_threads=1),
            "sa_threaded": simulated_anneal(problem, SCHEDULE, n_threads=4),
        }
    return out


def test_criterion_1_annealer_recovers_planted_pose(builds, capsys):
    details = []
    ok = True
    for name, bundle in builds.items():
        problem, planted = bundle["problem"], bundle["planted"]
        planted_bits = one_hot_assignment(problem, planted)

        exact_best = bundle["exact"].best
        optimum_is_planted = exact_best.assignment == planted_bits

        sa = bundle["sa"]
        hits = sum(1 for s in sa if s.assignment == planted_bits)
        rate = hits / len(sa)
        within_time = sa.wall_time < 30.0

        ok = ok and optimum_is_planted and rate >= 0.95 and within_time
        details.append(
            f"{name}: optimum planted={optimum_is_planted}, "
            f"{hits}/{len(sa)} reads, {sa.wall_time:.1f}s"
        )
    announce(capsys, 1, "planted pose recovery", ok, "; ".join(details))


def test_criterion_2_energy_decomposition_and_pose_formula(builds, capsys):
    rng = np.random.default_rng(101)
    worst_split = 0.0
    worst_pose = 0.0
    for bundle in builds.values():
        problem = bundle["problem"]
        for _ in range(1000):
            bits = rng.integers(0, 2, size=problem.n_vars).astype(np.uint8)
            breakdown = energy(problem, Assignment(bits))
            direct = (
                math.fsum(
                    v for (a, b), v in problem.coeffs.items() if bits[a] and bits[b]
                )
                + problem.offset
            )
            rel = abs(breakdown.total - direct) / max(1.0, abs(direct))
            worst_split = max(worst_split, rel)

        lig = build_ligand_graph(bundle["cx"])
        grid = build_grid_graph(bundle["cx"])
        for placement in itertools.permutations(range(problem.n_grid), problem.n_mol):
            mapping = dict(enumerate(placement))
            total = energy(problem, one_hot_assignment(problem, mapping)).total
            geom = sum(
                (e.dist - grid.dist[mapping[e.i], mapping[e.j]]) ** 2
                for e in lig.edges
            )
            phys = 0.0
            for i, atom in enumerate(lig.atoms):
                j = mapping[i]
                raw = (
                    atom.charge * grid.coulomb[j],
                    grid.lj[j, atom.type_index],
                    -atom.hbond_acceptor * grid.hb_acceptor[j],
                    -atom.hbond_donor * grid.hb_donor[j],
                    -atom.hydrophobic * grid.hydrophobic[j],
                )
                phys += sum(
                    r * s * lam
                    for r, s, lam in zip(raw, problem.scales, problem.lambdas)
                )
            expected = geom + phys
            rel = abs(total - expected) / max(1.0, abs(expected))
            worst_pose = max(worst_pose, rel)

    ok = worst_split <= 1e-9 and worst_pose <= 1e-9
    announce(
        capsys,
        2,
        "energy decomposition",
        ok,
        f"worst split dev {worst_split:.1e}, worst pose-formula dev {worst_pose:.1e}",
    )


def test_criterion_3_penalty_behavior(builds, capsys):
    rng = np.random.default_rng(103)
    ok = True
    for bundle in builds.values():
        problem = bundle["problem"]
        gamma = problem.gamma

        def penalty_of(bits):
            return energy(problem, Assignment(bits)).terms["penalty"]

        for _ in range(100):
            points = rng.choice(problem.n_grid, size=problem.n_mol, replace=False)
            bits = np.zeros(problem.n_vars, dtype=np.uint8)
            for i, j in enumerate(points):
                bits[problem.var_index(i, int(j))] = 1
            ok = ok and penalty_of(bits) == 0.0

            atom = int(rng.integers(0, problem.n_mol))
            # Unassigned: drop one atom entirely.
            dropped = bits.copy()
            dropped[problem.var_index(atom, int(points[atom]))] = 0
            ok = ok and penalty_of(dropped) >= gamma
            # Multi-assigned: give one atom a second point.
            free = [j for j in range(problem.n_grid) if j not in set(map(int, points))]
            doubled = bits.copy()
            doubled[problem.var_index(atom, free[0])] = 1
            ok = ok and penalty_of(doubled) >= gamma
            # Collision: move one atom onto another's point.
            other = (atom + 1) % problem.n_mol
            collided = bits.copy()
            collided[problem.var_index(atom, int(points[atom]))] = 0
            collided[problem.var_index(atom, int(points[other]))] = 1
            ok = ok and penalty_of(collided) >= gamma

        for _ in range(500):
            bits = rng.integers(0, 2, size=problem.n_vars).astype(np.uint8)
            is_pose = isinstance(decode(Assignment(bits), problem), Pose)
            ok = ok and is_pose == (penalty_of(bits) == 0.0)

    announce(capsys, 3, "penalty exactness", ok, "valid=0, violations >= gamma")


def test_criterion_4_analytic_physics(builds, capsys):
    table = builds["tiny4"]["cx"].type_table
    point = np.zeros(3)

    worst_lj = 0.0
    for t in range(table.n_types):
        probe = ProteinAtom(
            id=1,
            position=np.array([float(table.r_min[t]), 0.0, 0.0]),
            charge=0.0,
            type_index=0,
        )
        single = AtomTypeTable(
            epsilon=table.epsilon[t : t + 1], r_min=table.r_min[t : t + 1]
        )
        got = lj_vector(*_point_atom_distances(point, [probe]), single)[0]
        worst_lj = max(worst_lj, abs(got + table.epsilon[t]) / table.epsilon[t])
    lj_ok = worst_lj <= 1e-12

    protein = sorted(builds["tiny4"]["cx"].protein, key=lambda a: a.id)
    dielectric = builds["tiny4"]["cx"].dielectric
    grid_points = builds["tiny4"]["cx"].grid_points
    super_ok = True
    flip_ok = True
    for gp in grid_points:
        whole = coulomb_potential(*_point_atom_distances(gp.position, protein), dielectric)
        # Splitting off the last atom respects the id-ordered sum exactly.
        for k in range(1, len(protein)):
            prefix = coulomb_potential(*_point_atom_distances(gp.position, protein[:k]), dielectric)
            rest = protein[k:]
            tail = prefix
            for atom in rest:
                measured = _point_atom_distances(gp.position, [atom])
                tail = tail + coulomb_potential(*measured, dielectric)
            super_ok = super_ok and tail == whole
        flipped = [
            ProteinAtom(
                id=a.id, position=a.position, charge=-a.charge, type_index=a.type_index
            )
            for a in protein
        ]
        measured = _point_atom_distances(gp.position, flipped)
        flip_ok = flip_ok and coulomb_potential(*measured, dielectric) == -whole

    mixing_ok = math.sqrt(0.1 * 0.4) == 0.2 and (1.5 + 2.5) / 2.0 == 2.0
    mixed_table = AtomTypeTable(epsilon=np.array([0.1, 0.4]), r_min=np.array([1.5, 2.5]))
    probe = ProteinAtom(id=1, position=np.array([2.0, 0.0, 0.0]), charge=0.0, type_index=1)
    measured = _point_atom_distances(point, [probe])
    mixing_ok = mixing_ok and lj_vector(*measured, mixed_table)[0] == -0.2

    ok = lj_ok and super_ok and flip_ok and mixing_ok
    announce(
        capsys,
        4,
        "analytic physics",
        ok,
        f"LJ well dev {worst_lj:.1e}, superposition exact={super_ok}, "
        f"sign flip exact={flip_ok}, mixing exact={mixing_ok}",
    )


def test_criterion_5_metric_invariants(builds, capsys):
    rng = np.random.default_rng(107)
    min_adjusted = math.inf
    n_poses = 0
    for bundle in builds.values():
        problem = bundle["problem"]
        for _ in range(5000):
            points = rng.choice(problem.n_grid, size=problem.n_mol, replace=False)
            pose = decode(
                one_hot_assignment(problem, dict(enumerate(map(int, points)))), problem
            )
            value = adjusted_rmsd(
                pose, problem.experimental_coords, problem.grid_positions
            )
            min_adjusted = min(min_adjusted, value)
            n_poses += 1
    floor_ok = min_adjusted >= -1e-9

    worst_shift = 0.0
    for bundle in builds.values():
        problem = bundle["problem"]
        exp = problem.experimental_coords
        grid = problem.grid_positions
        for _ in range(20):
            shift = rng.uniform(-50.0, 50.0, 3)
            for _ in range(25):
                points = rng.choice(problem.n_grid, size=problem.n_mol, replace=False)
                chosen = grid[list(map(int, points))]
                pose = Pose(mapping={}, coordinates=chosen, atom_ids=tuple(range(problem.n_mol)))
                moved = Pose(
                    mapping={}, coordinates=chosen + shift, atom_ids=pose.atom_ids
                )
                base = rmsd(pose, exp)
                translated = rmsd(moved, exp + shift)
                worst_shift = max(
                    worst_shift, abs(base - translated) / max(1.0, abs(base))
                )
    shift_ok = worst_shift <= 1e-12

    ok = floor_ok and shift_ok
    announce(
        capsys,
        5,
        "metric invariants",
        ok,
        f"min adjusted {min_adjusted:.2e} over {n_poses} poses, "
        f"worst translation dev {worst_shift:.1e}",
    )


def test_criterion_6_tuner_beats_geometry_baseline(builds, capsys):
    started = time.perf_counter()
    result = greedy_tune([builds["planted6"]["cx"]], AnnealSchedule(), exact=True)
    elapsed = time.perf_counter() - started

    improved = (
        result.selection_order
        and result.selection_order[-1]["mean_adjusted_rmsd"] < result.baseline_mean
    )
    first = result.selection_order[0] if result.selection_order else {}
    # The planted pose is carved out by hydrophobic contacts alone.
    right_pick = first.get("interaction") == "hydro"
    fast = elapsed < 10.0
    ok = bool(improved and right_pick and fast)
    announce(
        capsys,
        6,
        "weight tuning",
        ok,
        f"baseline {result.baseline_mean}, tuned "
        f"{result.selection_order[-1]['mean_adjusted_rmsd'] if result.selection_order else 'n/a'}, "
        f"first pick {first.get('interaction')}@{first.get('weight')}, {elapsed:.1f}s",
    )


def test_criterion_7_threaded_runs_identical(builds, capsys):
    ok = True
    for name, bundle in builds.items():
        lone = json.dumps(bundle["sa"].to_dict(), sort_keys=True)
        threaded = json.dumps(bundle["sa_threaded"].to_dict(), sort_keys=True)
        ok = ok and lone == threaded

        report_lone = report_from_samples(bundle["problem"], bundle["sa"], name)
        report_threaded = report_from_samples(bundle["problem"], bundle["sa_threaded"], name)
        ok = ok and json.dumps(report_lone.to_dict(), sort_keys=True) == json.dumps(
            report_threaded.to_dict(), sort_keys=True
        )
    announce(capsys, 7, "thread-count reproducibility", ok, "1 vs 4 threads byte-identical")


def test_criterion_8_qubo_round_trip(builds, capsys, tmp_path):
    ok = True
    for name, bundle in builds.items():
        problem = bundle["problem"]
        path = tmp_path / f"{name}.qubo"
        export_qubo(problem, path)
        back = import_qubo(path)
        ok = ok and back.n_vars == problem.n_vars and back.coeffs == problem.coeffs
        again = tmp_path / f"{name}_again.qubo"
        export_qubo(back, again)
        ok = ok and again.read_bytes() == path.read_bytes()
    announce(capsys, 8, "coordinate file round-trip", ok, "coefficients bit-exact")
