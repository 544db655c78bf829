"""Hamiltonian assembly: coefficients, scaling, penalty, and evaluation."""

import itertools
import math

import numpy as np
import pytest

from qdock import (
    Assignment,
    Hyperparameters,
    build_full,
    build_grid_graph,
    build_ligand_graph,
    energy,
    one_hot_assignment,
    parse_complex,
)
from qdock.qubo import PHYSCHEM_TERMS, TERM_NAMES, QuboProblem
from qdock.qubofile import export_qubo, import_qubo

from conftest import PLANTED6_DECOY, PLANTED6_PLANTED, TINY4_PLANTED, index_mapping

UNIT_HP = Hyperparameters(lambdas=(1.0, 1.0, 1.0, 1.0, 1.0), gamma=25.0)


def chain_complex(n_atoms, grid_positions, spacing=1.0, gamma_extra=None):
    """Straight-chain ligand over an explicit grid point list."""
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [
                {
                    "id": k + 1,
                    "position": [spacing * k, 0.0, 0.0],
                    "charge": 0.0,
                    "type_index": 0,
                }
                for k in range(n_atoms)
            ],
            "bonds": [{"atoms": [k + 1, k + 2]} for k in range(n_atoms - 1)],
        },
        "grid_points": [
            {"id": 100 + k, "position": list(map(float, p))}
            for k, p in enumerate(grid_positions)
        ],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    return parse_complex(doc)


def random_valid_mapping(rng, problem):
    points = rng.choice(problem.n_grid, size=problem.n_mol, replace=False)
    return {i: int(points[i]) for i in range(problem.n_mol)}


# ----------------------------------------------------------- small exacts

def test_single_atom_single_point():
    cx = chain_complex(1, [(5.0, 0, 0)])
    problem = build_full(cx, Hyperparameters(gamma=1.0))
    assert problem.n_vars == 1
    assert problem.offset == 1.0
    on = energy(problem, Assignment.from_string("1"))
    off = energy(problem, Assignment.from_string("0"))
    assert on.total == 0.0
    assert off.total == 1.0
    assert problem.term_coeffs["geom"] == {}


def test_two_atom_perfect_fit_has_zero_geometry():
    cx = chain_complex(2, [(10.0, 0, 0), (11.0, 0, 0)])
    problem = build_full(cx, Hyperparameters(gamma=2.0))
    pose = energy(problem, one_hot_assignment(problem, {0: 0, 1: 1}))
    assert pose.terms["geom"] == 0.0
    assert pose.terms["penalty"] == 0.0
    assert pose.total == 0.0
    # Swapped placement keeps the distance, so geometry is still exact...
    swapped = energy(problem, one_hot_assignment(problem, {0: 1, 1: 0}))
    assert swapped.terms["geom"] == 0.0
    # ...but a stretched pair is penalized by the squared mismatch.
    cx = chain_complex(2, [(10.0, 0, 0), (12.0, 0, 0)])
    problem = build_full(cx, Hyperparameters(gamma=2.0))
    stretched = energy(problem, one_hot_assignment(problem, {0: 0, 1: 1}))
    assert stretched.terms["geom"] == 1.0


def test_all_zero_assignment_costs_offset(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    zero = Assignment.from_bits(np.zeros(problem.n_vars, dtype=np.uint8))
    breakdown = energy(problem, zero)
    assert breakdown.total == problem.offset == 25.0 * 4


def test_acceptor_coefficient_worked_example():
    # One acceptor-flagged atom over a point reachable by two protein donors
    # at lambda = scale = 1 gives the diagonal value -(1 * 2) = -2.
    doc = {
        "protein": [
            {
                "id": 10,
                "position": [0.0, 2.5, 0.0],
                "charge": 0.0,
                "type_index": 0,
                "hbond_role": "donor",
                "donor_hydrogens": [[0.1, 1.5, 0.0]],
            },
            {
                "id": 11,
                "position": [2.5, 0.0, 0.0],
                "charge": 0.0,
                "type_index": 0,
                "hbond_role": "donor",
                "donor_hydrogens": [[1.5, 0.1, 0.0]],
            },
        ],
        "ligand": {
            "atoms": [
                {
                    "id": 1,
                    "position": [0.0, 0.0, 0.0],
                    "charge": 0.0,
                    "type_index": 0,
                    "hbond_acceptor": 1,
                }
            ],
            "bonds": [],
        },
        "grid_points": [{"id": 100, "position": [0.0, 0.0, 0.0]}],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    cx = parse_complex(doc)
    hp = Hyperparameters(
        lambdas=(0.0, 0.0, 1.0, 0.0, 0.0),
        gamma=1.0,
        component_scales=(1.0, 1.0, 1.0, 1.0, 1.0),
    )
    problem = build_full(cx, hp)
    assert problem.term_coeffs["hba"] == {(0, 0): -2.0}


# ------------------------------------------------------ coefficient oracle

def dense_oracle(cx, hp):
    """Rebuild the full coefficient matrix with plain quadruple loops."""
    lig = build_ligand_graph(cx)
    grid = build_grid_graph(cx)
    n_mol, n_grid = lig.n_atoms, grid.n_points
    n = n_mol * n_grid
    dense = np.zeros((n, n))

    for edge in lig.edges:
        for j in range(n_grid):
            for jp in range(n_grid):
                if j != jp:
                    dense[edge.i * n_grid + j, edge.j * n_grid + jp] += (
                        edge.dist - grid.dist[j, jp]
                    ) ** 2

    geom_max = dense.max()
    gamma = hp.gamma if hp.gamma is not None else 10.0 * geom_max

    for i in range(n_mol):
        for j in range(n_grid):
            dense[i * n_grid + j, i * n_grid + j] -= gamma
    for i in range(n_mol):
        for j, jp in itertools.combinations(range(n_grid), 2):
            dense[i * n_grid + j, i * n_grid + jp] += 2.0 * gamma
    for j in range(n_grid):
        for i, ip in itertools.combinations(range(n_mol), 2):
            dense[i * n_grid + j, ip * n_grid + j] += 2.0 * gamma

    raw = {name: np.zeros(n) for name in PHYSCHEM_TERMS}
    for i, atom in enumerate(lig.atoms):
        for j in range(n_grid):
            v = i * n_grid + j
            raw["el"][v] = atom.charge * grid.coulomb[j]
            raw["vdw"][v] = grid.lj[j, atom.type_index]
            raw["hba"][v] = -atom.hbond_acceptor * grid.hb_acceptor[j]
            raw["hbd"][v] = -atom.hbond_donor * grid.hb_donor[j]
            raw["hydro"][v] = -atom.hydrophobic * grid.hydrophobic[j]
    for name, lam in zip(PHYSCHEM_TERMS, hp.lambdas):
        raw_max = np.abs(raw[name]).max()
        scale = geom_max / raw_max if geom_max > 0 and raw_max > 0 else 1.0
        dense += np.diag(raw[name] * scale * lam)

    upper = {}
    for a in range(n):
        for b in range(a, n):
            value = dense[a, b] + (dense[b, a] if b != a else 0.0)
            if value != 0.0:
                upper[(a, b)] = value
    return upper, gamma * n_mol


@pytest.mark.parametrize("fixture_name", ["tiny4", "planted6"])
def test_coefficients_match_dense_oracle(fixture_name, request):
    cx = request.getfixturevalue(fixture_name)
    hp = UNIT_HP
    problem = build_full(cx, hp)
    expected, offset = dense_oracle(cx, hp)
    assert problem.offset == pytest.approx(offset, rel=1e-12)
    assert set(problem.coeffs) == set(expected)
    for key, value in expected.items():
        assert problem.coeffs[key] == pytest.approx(value, rel=1e-12, abs=1e-12)
    for a, b in problem.coeffs:
        assert a <= b


def test_term_maps_sum_to_combined_coefficients(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    resummed = {}
    for name in TERM_NAMES:
        for key, value in problem.term_coeffs[name].items():
            resummed[key] = resummed.get(key, 0.0) + value
    resummed = {k: v for k, v in resummed.items() if v != 0.0}
    assert set(resummed) == set(problem.coeffs)
    for key, value in resummed.items():
        assert problem.coeffs[key] == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_dense_view_places_each_coefficient(tiny4, tmp_path):
    built = build_full(tiny4, UNIT_HP)
    export_qubo(built, tmp_path / "tiny4.qubo")
    empty = QuboProblem(n_mol=1, n_grid=3, coeffs={}, term_coeffs={"imported": {}})
    for problem in (built, import_qubo(tmp_path / "tiny4.qubo"), empty):
        h, q_sym = problem.dense
        assert problem.dense is problem.dense
        n = problem.n_vars
        assert h.shape == (n,) and q_sym.shape == (n, n)
        placed_h = np.zeros(n, dtype=bool)
        placed_q = np.zeros((n, n), dtype=bool)
        for (a, b), value in problem.coeffs.items():
            if a == b:
                assert h[a] == value
                placed_h[a] = True
            else:
                assert q_sym[a, b] == value and q_sym[b, a] == value
                placed_q[a, b] = placed_q[b, a] = True
        assert np.all(h[~placed_h] == 0.0)
        assert np.all(q_sym[~placed_q] == 0.0)


# ------------------------------------------------------- energy evaluation

def test_energy_decomposition_random_assignments(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    rng = np.random.default_rng(41)
    for _ in range(200):
        bits = rng.integers(0, 2, size=problem.n_vars).astype(np.uint8)
        breakdown = energy(problem, Assignment(bits))
        # Whole-matrix evaluation, ignoring the per-term split entirely.
        direct = (
            math.fsum(
                v for (a, b), v in problem.coeffs.items() if bits[a] and bits[b]
            )
            + problem.offset
        )
        scale = max(1.0, abs(direct))
        assert abs(breakdown.total - direct) <= 1e-9 * scale
        assert abs(breakdown.total - math.fsum(breakdown.terms.values())) <= 1e-12 * scale


def test_valid_pose_energy_matches_pose_formula(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    lig = build_ligand_graph(tiny4)
    grid = build_grid_graph(tiny4)
    rng = np.random.default_rng(43)
    for _ in range(60):
        mapping = random_valid_mapping(rng, problem)
        breakdown = energy(problem, one_hot_assignment(problem, mapping))

        geom = sum(
            (e.dist - grid.dist[mapping[e.i], mapping[e.j]]) ** 2 for e in lig.edges
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
                r * s * lam for r, s, lam in zip(raw, problem.scales, problem.lambdas)
            )
        expected = geom + phys
        assert breakdown.terms["penalty"] == 0.0
        assert breakdown.total == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_penalty_zero_iff_one_to_one(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    rng = np.random.default_rng(47)
    seen_valid = seen_invalid = 0
    for _ in range(300):
        if rng.random() < 0.4:
            bits = np.zeros(problem.n_vars, dtype=np.uint8)
            mapping = random_valid_mapping(rng, problem)
            for i, j in mapping.items():
                bits[problem.var_index(i, j)] = 1
        else:
            bits = rng.integers(0, 2, size=problem.n_vars).astype(np.uint8)
        rows = bits.reshape(problem.n_mol, problem.n_grid)
        valid = bool(
            np.all(rows.sum(axis=1) == 1) and np.all(rows.sum(axis=0) <= 1)
        )
        penalty = energy(problem, Assignment(bits)).terms["penalty"]
        if valid:
            seen_valid += 1
            assert penalty == 0.0
        else:
            seen_invalid += 1
            assert penalty >= problem.gamma - 1e-9
    assert seen_valid > 20 and seen_invalid > 20


def test_geometry_term_nonnegative_and_zero_only_without_distortion(planted6):
    problem = build_full(planted6, Hyperparameters(gamma=5.0))
    rng = np.random.default_rng(53)
    for _ in range(100):
        mapping = random_valid_mapping(rng, problem)
        geom = energy(problem, one_hot_assignment(problem, mapping)).terms["geom"]
        assert geom >= 0.0
    # The decoy strip reproduces the ligand distances exactly.
    decoy = one_hot_assignment(problem, index_mapping(problem, PLANTED6_DECOY))
    assert energy(problem, decoy).terms["geom"] == 0.0
    # The planted pose carries the small designed offsets, hence nonzero.
    planted = one_hot_assignment(problem, index_mapping(problem, PLANTED6_PLANTED))
    assert energy(problem, planted).terms["geom"] > 0.0


# ------------------------------------------------------- weights and scales

def test_zero_lambdas_reduce_to_geometry_and_penalty(tiny4):
    problem = build_full(tiny4, Hyperparameters(gamma=25.0))
    for name in PHYSCHEM_TERMS:
        assert problem.term_coeffs[name] == {}
    merged = {}
    for name in ("geom", "penalty"):
        for key, value in problem.term_coeffs[name].items():
            merged[key] = merged.get(key, 0.0) + value
    assert problem.coeffs == {k: v for k, v in merged.items() if v != 0.0}


def test_doubling_lambda_doubles_term_exactly(tiny4):
    base = build_full(tiny4, Hyperparameters(lambdas=(1.0, 0, 0, 0, 0), gamma=25.0))
    double = build_full(tiny4, Hyperparameters(lambdas=(2.0, 0, 0, 0, 0), gamma=25.0))
    el1 = base.term_coeffs["el"]
    el2 = double.term_coeffs["el"]
    assert set(el1) == set(el2) and len(el1) > 0
    for key, value in el1.items():
        assert el2[key] == 2.0 * value
    # Geometry and penalty are untouched by interaction weights.
    assert base.term_coeffs["geom"] == double.term_coeffs["geom"]
    assert base.term_coeffs["penalty"] == double.term_coeffs["penalty"]


def test_reference_weight_vector_builds(tiny4):
    hp = Hyperparameters(lambdas=(5.0, 2.0, 0.0, 5.0, 1.0), gamma=25.0)
    problem = build_full(tiny4, hp)
    assert problem.term_coeffs["hba"] == {}
    for name in ("el", "vdw", "hbd", "hydro"):
        assert len(problem.term_coeffs[name]) > 0
    assert problem.lambdas == (5.0, 2.0, 0.0, 5.0, 1.0)


def test_automatic_gamma_is_ten_times_geometry(tiny4):
    problem = build_full(tiny4, Hyperparameters())
    geom_max = max(abs(v) for v in problem.term_coeffs["geom"].values())
    assert problem.gamma == 10.0 * geom_max


def test_automatic_gamma_fallback_without_geometry():
    cx = chain_complex(1, [(5.0, 0, 0), (8.0, 0, 0)])
    problem = build_full(cx, Hyperparameters())
    assert problem.term_coeffs["geom"] == {}
    assert problem.gamma == 1.0


def test_automatic_scales_normalize_term_magnitudes(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    geom_max = max(abs(v) for v in problem.term_coeffs["geom"].values())
    for name, scale, lam in zip(PHYSCHEM_TERMS, problem.scales, problem.lambdas):
        term = problem.term_coeffs[name]
        assert term, name
        # value = raw * scale * lambda, so max |term| = geom_max * lambda.
        term_max = max(abs(v) for v in term.values())
        assert term_max == pytest.approx(geom_max * lam, rel=1e-12)
        assert scale > 0


def test_scale_fallback_when_term_is_silent(planted6):
    problem = build_full(planted6, UNIT_HP)
    # No charges and no H-bond roles anywhere in this fixture.
    for name in ("el", "hba", "hbd"):
        assert problem.term_coeffs[name] == {}
    for idx in (0, 2, 3):
        assert problem.scales[idx] == 1.0


def test_explicit_scales_bypass_normalization(tiny4):
    hp = Hyperparameters(
        lambdas=(1.0, 0, 0, 0, 0), gamma=25.0, component_scales=(2.0, 1, 1, 1, 1)
    )
    problem = build_full(tiny4, hp)
    grid = build_grid_graph(tiny4)
    for i, atom in enumerate(tiny4.ligand_atoms):
        for j in range(problem.n_grid):
            v = problem.var_index(i, j)
            raw = atom.charge * grid.coulomb[j]
            if raw != 0.0:
                assert problem.term_coeffs["el"][(v, v)] == pytest.approx(
                    2.0 * raw, rel=1e-12
                )


# ------------------------------------------------- invariants and plumbing

def test_variable_count_always_product_of_sizes():
    rng = np.random.default_rng(59)
    for _ in range(10):
        n_atoms = int(rng.integers(1, 5))
        n_grid = int(rng.integers(n_atoms, n_atoms + 4))
        positions = [(3.0 * k, 7.0, 0.0) for k in range(n_grid)]
        problem = build_full(chain_complex(n_atoms, positions), Hyperparameters(gamma=1.0))
        assert problem.n_vars == n_atoms * n_grid
        assert problem.n_mol == n_atoms and problem.n_grid == n_grid


def test_grid_relabeling_leaves_energies_invariant(tiny4_doc):
    hp = UNIT_HP
    base = build_full(parse_complex(tiny4_doc), hp)

    shuffled = dict(tiny4_doc)
    order = [3, 0, 5, 1, 4, 2]
    shuffled["grid_points"] = [tiny4_doc["grid_points"][k] for k in order]
    moved = build_full(parse_complex(shuffled), hp)

    rng = np.random.default_rng(61)
    to_new = {old: order.index(old) for old in range(len(order))}
    for _ in range(50):
        mapping = random_valid_mapping(rng, base)
        e_base = energy(base, one_hot_assignment(base, mapping)).total
        remapped = {i: to_new[j] for i, j in mapping.items()}
        e_moved = energy(moved, one_hot_assignment(moved, remapped)).total
        assert e_moved == pytest.approx(e_base, rel=1e-12, abs=1e-12)


def test_var_index_round_trip(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    for i in range(problem.n_mol):
        for j in range(problem.n_grid):
            assert problem.var_pair(problem.var_index(i, j)) == (i, j)
    with pytest.raises(ValueError):
        problem.var_index(problem.n_mol, 0)
    with pytest.raises(ValueError):
        problem.var_pair(problem.n_vars)


def test_energy_rejects_wrong_length(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    with pytest.raises(ValueError, match="bits"):
        energy(problem, Assignment.from_string("101"))


def test_hyperparameter_validation():
    with pytest.raises(ValueError, match="5 entries"):
        Hyperparameters(lambdas=(1.0, 2.0))
    with pytest.raises(ValueError, match="non-negative"):
        Hyperparameters(lambdas=(-1.0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="gamma"):
        Hyperparameters(gamma=0.0)
    with pytest.raises(ValueError, match="positive"):
        Hyperparameters(component_scales=(1.0, 1.0, 0.0, 1.0, 1.0))


def test_assignment_round_trip_and_equality():
    text = "0110010"
    a = Assignment.from_string(text)
    assert a.to_string() == text
    assert len(a) == 7
    assert a == Assignment.from_bits([0, 1, 1, 0, 0, 1, 0])
    assert a != Assignment.from_string("0110011")
    with pytest.raises(ValueError, match="only 0/1"):
        Assignment.from_string("01x")


def test_one_hot_assignment_sets_expected_bits(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    mapping = index_mapping(problem, TINY4_PLANTED)
    bits = one_hot_assignment(problem, mapping).bits
    assert int(bits.sum()) == problem.n_mol
    for i, j in mapping.items():
        assert bits[problem.var_index(i, j)] == 1
