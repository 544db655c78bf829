"""Hamiltonian assembly: coefficients, scaling, penalty, and evaluation."""

import contextlib
import copy
import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdock import (
    AnnealSchedule,
    Assignment,
    CoefficientOverflowError,
    GraphBuildError,
    Hyperparameters,
    brute_force,
    build_full,
    build_grid_graph,
    build_ligand_graph,
    decode,
    energy,
    incremental_delta,
    one_hot_assignment,
    parse_complex,
    report_from_samples,
    simulated_anneal,
)
from qdock.qubo import (
    PHYSCHEM_TERMS,
    TERM_NAMES,
    CoeffMap,
    QuboProblem,
    assemble,
    with_lambdas,
)
from qdock.anneal import _dense
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
    hp = Hyperparameters(lambdas=(0.0, 0.0, 1.0, 0.0, 0.0), gamma=1.0)
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
    coeffs = dict(problem.coeffs.items())
    assert set(coeffs) == set(expected)
    for key, value in expected.items():
        assert coeffs[key] == pytest.approx(value, rel=1e-12, abs=1e-12)
    for a, b in coeffs:
        assert a <= b


def per_entry_reference(cx, hp):
    """Every term map, the summed map, offset, gamma and scales, one entry
    at a time from the module-docstring formulas, with Python floats."""
    lig = build_ligand_graph(cx)
    grid = build_grid_graph(cx)
    n_mol, n_grid = lig.n_atoms, grid.n_points
    terms = {name: {} for name in TERM_NAMES}
    for edge in lig.edges:
        for j in range(n_grid):
            for jp in range(n_grid):
                mismatch = edge.dist - float(grid.dist[j, jp])
                if j != jp and mismatch * mismatch != 0.0:
                    terms["geom"][(edge.i * n_grid + j, edge.j * n_grid + jp)] = mismatch * mismatch
    geom_max = max((abs(v) for v in terms["geom"].values()), default=0.0)
    if hp.gamma is not None:
        gamma = float(hp.gamma)
    else:
        gamma = 10.0 * geom_max if geom_max > 0.0 else 1.0
    for i in range(n_mol):
        for j in range(n_grid):
            v = i * n_grid + j
            terms["penalty"][(v, v)] = -gamma
            for jp in range(j + 1, n_grid):
                terms["penalty"][(v, i * n_grid + jp)] = 2.0 * gamma
            for ip in range(i + 1, n_mol):
                terms["penalty"][(v, ip * n_grid + j)] = 2.0 * gamma
    raw = {name: {} for name in PHYSCHEM_TERMS}
    for i, atom in enumerate(lig.atoms):
        for j in range(n_grid):
            entry = {
                "el": atom.charge * float(grid.coulomb[j]),
                "vdw": float(grid.lj[j, atom.type_index]),
                "hba": -float(atom.hbond_acceptor * int(grid.hb_acceptor[j])),
                "hbd": -float(atom.hbond_donor * int(grid.hb_donor[j])),
                "hydro": -float(atom.hydrophobic * int(grid.hydrophobic[j])),
            }
            for name, value in entry.items():
                if value != 0.0:
                    raw[name][(i * n_grid + j, i * n_grid + j)] = value
    scales = []
    for name in PHYSCHEM_TERMS:
        raw_max = max((abs(v) for v in raw[name].values()), default=0.0)
        ratio = geom_max / raw_max if geom_max > 0.0 and raw_max > 0.0 else 1.0
        scales.append(ratio if math.isfinite(ratio) else 1.0)
    scales = tuple(scales)
    for name, scale, lam in zip(PHYSCHEM_TERMS, scales, hp.lambdas):
        factor = scale * lam
        terms[name] = {k: v * factor for k, v in raw[name].items() if v * factor != 0.0}
    summed = {}
    for name in TERM_NAMES:
        for key, value in terms[name].items():
            summed[key] = summed.get(key, 0.0) + value
    return terms, summed, gamma * n_mol, gamma, scales


def hex_map(cmap):
    """A term map as {key: float.hex}, after checking it holds only Python
    ints and floats (repr and JSON depend on it)."""
    assert all(type(a) is int and type(b) is int and type(v) is float for (a, b), v in cmap.items())
    return {key: value.hex() for key, value in cmap.items()}


def assert_matches_per_entry_reference(cx, hp):
    terms, summed, offset, gamma, scales = per_entry_reference(cx, hp)
    if not all(math.isfinite(v) for v in summed.values()):
        with pytest.raises(GraphBuildError, match="non-finite"):
            build_full(cx, hp)
        return
    problem = build_full(cx, hp)
    assert list(problem.term_coeffs) == list(TERM_NAMES)
    for name in TERM_NAMES:
        assert hex_map(problem.term_coeffs[name]) == hex_map(terms[name]), name
    assert hex_map(problem.coeffs) == hex_map(summed)
    assert problem.offset.hex() == offset.hex()
    assert problem.gamma.hex() == gamma.hex()
    assert [s.hex() for s in problem.scales] == [s.hex() for s in scales]


REFERENCE_HPS = [
    Hyperparameters(lambdas=(1.0, 0.5, 2.0, 1.0, 3.0)),
    Hyperparameters(lambdas=(1.0, 0.5, 2.0, 1.0, 3.0), gamma=25.0),
    Hyperparameters(lambdas=(0.003, 0.02, 0.015, 0.007, 0.04)),
    Hyperparameters(lambdas=(3.0, 0.0, 0.1, 1.0, 0.0), gamma=7.0),
]


@pytest.mark.parametrize(
    "hp", REFERENCE_HPS, ids=["auto", "gamma", "small-lambdas", "gamma-zero-lambdas"]
)
@pytest.mark.parametrize("fixture_name", ["tiny4", "planted6"])
def test_assembly_matches_per_entry_reference(fixture_name, hp, request):
    assert_matches_per_entry_reference(request.getfixturevalue(fixture_name), hp)


@st.composite
def complex_docs(draw):
    """Small valid complexes: a jittered ligand whose bonds form a tree
    (each atom after the first bonds to an earlier atom drawn here, so
    chains and branched ligands both occur), grid points on a 1.5 A
    lattice and protein atoms in every H-bond role between them."""
    small = st.floats(-0.4, 0.4, allow_nan=False)
    charge = st.floats(-1.0, 1.0, allow_nan=False)
    flag = st.integers(0, 1)
    n_types = draw(st.integers(1, 3))
    n_atoms = draw(st.integers(1, 4))
    cells = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=n_atoms, max_size=7, unique=True)
    )
    protein = []
    for k in range(draw(st.integers(0, 5))):
        position = [1.5 * c + 0.75 for c in draw(st.tuples(*[st.integers(-3, 2)] * 3))]
        role = draw(st.sampled_from(["none", "donor", "acceptor", "donor_acceptor"]))
        protein.append({
            "id": k + 1,
            "position": position,
            "charge": draw(charge),
            "type_index": draw(st.integers(0, n_types - 1)),
            "hbond_role": role,
            "hydrophobic": draw(st.booleans()),
            "donor_hydrogens": [[position[0] - 0.95, position[1], position[2]]]
            if "donor" in role else [],
        })
    atoms = [
        {
            "id": 50 + k,
            "position": [1.3 * k + draw(small), draw(small), draw(small)],
            "charge": draw(charge),
            "type_index": draw(st.integers(0, n_types - 1)),
            "hbond_acceptor": draw(flag),
            "hbond_donor": draw(flag),
            "hydrophobic": draw(flag),
        }
        for k in range(n_atoms)
    ]
    bonds = [
        {"atoms": [50 + draw(st.integers(0, k)), 51 + k], "dihedral_locked": draw(st.booleans())}
        for k in range(n_atoms - 1)
    ]
    return {
        "protein": protein,
        "ligand": {"atoms": atoms, "bonds": bonds},
        "grid_points": [
            {"id": 100 + k, "position": [1.5 * c for c in cell]} for k, cell in enumerate(cells)
        ],
        "type_table": {
            "epsilon": draw(st.lists(st.floats(0.05, 0.5), min_size=n_types, max_size=n_types)),
            "r_min": draw(st.lists(st.floats(1.0, 2.5), min_size=n_types, max_size=n_types)),
        },
        "dielectric": draw(st.floats(1.0, 10.0)),
    }


hyperparameters = st.builds(
    Hyperparameters,
    lambdas=st.tuples(*[st.sampled_from([0.0, 0.01, 1.0, 2.5])] * 5),
    gamma=st.one_of(st.none(), st.floats(0.1, 100.0)),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(doc=complex_docs(), hp=hyperparameters)
def test_generated_assembly_matches_per_entry_reference(doc, hp):
    assert_matches_per_entry_reference(parse_complex(doc), hp)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    doc=complex_docs(),
    hp=hyperparameters,
    lambdas=st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e4))] * 5),
)
def test_with_lambdas_equals_assembly_at_those_lambdas(doc, hp, lambdas):
    """Weighting the zero-lambda problem gives the problem `assemble`
    builds at the lambdas, bit for bit and in key order."""
    cx = parse_complex(doc)
    lig, grid = build_ligand_graph(cx), build_grid_graph(cx)
    expected = assemble(lig, grid, dataclasses.replace(hp, lambdas=lambdas))
    zero = assemble(lig, grid, dataclasses.replace(hp, lambdas=(0.0,) * 5))
    built = with_lambdas(zero, lambdas)
    assert list(built.term_coeffs) == list(expected.term_coeffs) == list(TERM_NAMES)
    maps = zip([built.coeffs, *built.term_coeffs.values()],
               [expected.coeffs, *expected.term_coeffs.values()])
    for got, want in maps:
        assert all(same_bits(x, y) for x, y in zip(got.arrays, want.arrays))
    assert (built.gamma, built.scales, built.offset, built.lambdas) == (
        expected.gamma, expected.scales, expected.offset, expected.lambdas)
    assert (built.atom_ids, built.grid_ids) == (expected.atom_ids, expected.grid_ids)
    assert same_bits(built.grid_positions, expected.grid_positions)
    assert same_bits(built.experimental_coords, expected.experimental_coords)


def test_built_problem_carries_its_raw_tables(tiny4, tmp_path):
    """A built problem keeps the raw tables it was weighted from, so it
    re-weights from itself alone; an imported one has none."""
    built = build_full(tiny4, Hyperparameters(lambdas=(1.0,) * 5))
    assert set(built.physchem_raw) == set(PHYSCHEM_TERMS)
    assert with_lambdas(built, (1.0,) * 5).coeffs == built.coeffs
    export_qubo(built, tmp_path / "out.qubo")
    assert import_qubo(tmp_path / "out.qubo").physchem_raw is None


def test_built_problem_stores_each_entry_once():
    """The summed map's arrays are the one stored copy of the geom entries
    and the penalty keys, so a built problem holds 24 bytes per summed entry
    (two ids and a value), 8 per penalty value, the physicochemical tables,
    and a little for its decode context and Python objects. Storing the
    geom and penalty maps beside the summed map held 4.4 MB more than that
    here (9.7 MB in all)."""
    lattice = [(1.5 * x, 1.5 * y, 1.5 * z) for x in range(6) for y in range(6) for z in range(3)]
    cx = chain_complex(8, lattice, spacing=1.3)
    hp = Hyperparameters(lambdas=(0.01,) * 5)
    build_full(cx, hp)  # first-call allocations (caches, imports) are not the problem's
    tracemalloc.start()
    try:
        problem = build_full(cx, hp)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tables = sum(raw.nbytes for raw in problem.physchem_raw.values()) + sum(
        x.nbytes for name in PHYSCHEM_TERMS for x in problem.term_coeffs[name].arrays
    )
    assert len(problem.term_coeffs["geom"]) > 100_000
    bound = 24 * len(problem.coeffs) + 8 * len(problem.term_coeffs["penalty"]) + tables
    assert held < bound + 2**17


# SHA-256 of `export_qubo` bytes, recorded before the term maps were built
# from arrays; the coordinate file must not change by a byte.
EXPORT_DIGESTS = {
    ("tiny4", "default"): "53527534dd32d2cec32d8d96bafaf97e5157f1dc84ed01a2cd4876d48d610cd9",
    ("tiny4", "unit"): "eee2b0c157576782ffde36f14e639dfa5eb214b006399048e84a35f3e0664591",
    ("planted6", "default"): "e1d3cacf51f6cf4ceb551705a83c8b80207935d06ba937366dbde230518b9904",
    ("planted6", "unit"): "eb91784ca531d3956fed06823157695997561a35ea62dcd35561f15499d0e9ca",
}


@pytest.mark.parametrize("fixture_name, hp_name", sorted(EXPORT_DIGESTS))
def test_export_bytes_match_recorded_digest(fixture_name, hp_name, request, tmp_path):
    hp = {"default": Hyperparameters(), "unit": UNIT_HP}[hp_name]
    export_qubo(build_full(request.getfixturevalue(fixture_name), hp), tmp_path / "out.qubo")
    digest = hashlib.sha256((tmp_path / "out.qubo").read_bytes()).hexdigest()
    assert digest == EXPORT_DIGESTS[(fixture_name, hp_name)]


def test_term_maps_sum_to_combined_coefficients(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    resummed = {}
    for name in TERM_NAMES:
        for key, value in problem.term_coeffs[name].items():
            resummed[key] = resummed.get(key, 0.0) + value
    resummed = {k: v for k, v in resummed.items() if v != 0.0}
    coeffs = dict(problem.coeffs.items())
    assert set(resummed) == set(coeffs)
    for key, value in resummed.items():
        assert coeffs[key] == pytest.approx(value, rel=1e-12, abs=1e-12)


def test_dense_view_places_each_coefficient(tiny4, tmp_path):
    built = build_full(tiny4, UNIT_HP)
    export_qubo(built, tmp_path / "tiny4.qubo")
    empty = QuboProblem(n_mol=1, n_grid=3, coeffs={}, term_coeffs={"imported": {}})
    for problem in (built, import_qubo(tmp_path / "tiny4.qubo"), empty):
        h, q_sym = _dense(problem)
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


def full_scan_energy(problem, bits):
    """Every coefficient of every term map tested against the bits."""
    terms = {}
    for name, cmap in problem.term_coeffs.items():
        terms[name] = math.fsum(v for (a, b), v in cmap.items() if bits[a] and bits[b])
        if name == "penalty":
            terms[name] += problem.offset
    if "penalty" not in terms and problem.offset != 0.0:
        terms["offset"] = problem.offset
    return terms, math.fsum(terms.values())


def test_energy_matches_full_scan_bit_for_bit(tiny4, tmp_path):
    rng = np.random.default_rng(73)
    built = build_full(tiny4, UNIT_HP)
    export_qubo(built, tmp_path / "tiny4.qubo")
    problems = [built, import_qubo(tmp_path / "tiny4.qubo")]
    for n in (1, 5, 12, 30):
        keys = [(a, b) for a in range(n) for b in range(a, n) if rng.random() < 0.6]
        coeffs = {key: float(rng.normal(scale=3.0)) for key in keys}
        problems.append(
            QuboProblem(
                n_mol=1,
                n_grid=n,
                coeffs=coeffs,
                term_coeffs={"imported": coeffs},
                offset=float(rng.normal()),
            )
        )
    one_hot = one_hot_assignment(built, index_mapping(built, TINY4_PLANTED)).bits
    for problem in problems:
        n = problem.n_vars
        single = np.zeros(n, dtype=np.uint8)
        single[n // 2] = 1
        bitstrings = [
            one_hot if n == built.n_vars else single,
            (rng.random(n) < 0.1).astype(np.uint8),
            (rng.random(n) < 0.8).astype(np.uint8),
            np.ones(n, dtype=np.uint8),
            np.zeros(n, dtype=np.uint8),
        ]
        for bits in bitstrings:
            breakdown = energy(problem, Assignment(bits))
            terms, total = full_scan_energy(problem, bits)
            assert {k: v.hex() for k, v in breakdown.terms.items()} == {
                k: v.hex() for k, v in terms.items()
            }
            assert breakdown.total.hex() == total.hex()


def far_first_point(complex_input):
    """The complex with its first grid point at 1e200 A, which `parse_complex`
    rejects; built directly, its squared distances overflow."""
    first, *rest = complex_input.grid_points
    far = dataclasses.replace(first, position=np.array([1e200, 0.0, 0.0]))
    return dataclasses.replace(complex_input, grid_points=[far, *rest])


def test_non_finite_coefficient_names_its_term(tiny4_doc):
    complex_input = far_first_point(parse_complex(copy.deepcopy(tiny4_doc)))
    with pytest.warns(RuntimeWarning), pytest.raises(GraphBuildError, match="'geom'.*inf"):
        build_full(complex_input, Hyperparameters())


@pytest.mark.parametrize(
    "edit_input, hp, message, warns",
    [
        (far_first_point, Hyperparameters(), "in term 'geom': entry (0, 7) = inf", True),
        (None, Hyperparameters(gamma=1e308), "in term 'penalty': entry (0, 1) = inf", False),
        (
            None,
            Hyperparameters(lambdas=(1e308,) * 5),
            "in term 'el': entry (0, 0) = -inf",
            False,
        ),
    ],
    ids=["far-point", "huge-gamma", "huge-lambdas"],
)
def test_non_finite_message_names_first_entry(
    tiny4_doc, monkeypatch, edit_input, hp, message, warns
):
    # The diagnosis reads the terms' arrays; no entry is listed.
    monkeypatch.setattr(CoeffMap, "items", lambda *args: pytest.fail("called items"))
    complex_input = parse_complex(copy.deepcopy(tiny4_doc))
    if edit_input is not None:
        complex_input = edit_input(complex_input)
    # Only the far point overflows in numpy (the grid colouring); the
    # builders report every overflow through the finite check alone.
    expect = pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext()
    with expect, pytest.raises(GraphBuildError) as excinfo:
        build_full(complex_input, hp)
    assert str(excinfo.value) == "non-finite QUBO coefficient " + message


def test_coefficient_sum_overflow_is_a_domain_error():
    # Each coefficient is finite; their exact sums are not.
    coeffs = {(0, 0): 1e308, (1, 1): 1e308, (0, 1): 1e308}
    problem = QuboProblem(n_mol=1, n_grid=2, coeffs=coeffs, term_coeffs={"imported": coeffs})
    with pytest.raises(CoefficientOverflowError, match="sum past the float range"):
        energy(problem, Assignment.from_bits([1, 1]))
    with pytest.raises(CoefficientOverflowError, match="sum past the float range"):
        brute_force(problem)
    # The annealer refuses before its local fields overflow, at any read count.
    for n_reads in (1, 8):
        with pytest.raises(CoefficientOverflowError, match="sum past the float range"):
            simulated_anneal(problem, AnnealSchedule(n_reads=n_reads, n_sweeps=3))


def test_subnormal_raw_magnitude_falls_back_to_unit_scale(tiny4_doc):
    # The largest |el| raw coefficient is subnormal, so geom/raw overflows;
    # at lambda 0 an infinite scale would make the el entries inf * 0 = NaN.
    doc = copy.deepcopy(tiny4_doc)
    for atom in doc["protein"]:
        if atom["charge"]:
            atom["charge"] = 2.2e-311
    problem = build_full(parse_complex(doc), Hyperparameters())
    assert problem.scales[0] == 1.0
    report = report_from_samples(problem, brute_force(problem), "tiny4")
    scales = json.loads(json.dumps(report.to_dict(), allow_nan=False))["metadata"]["scales"]
    assert len(scales) == 5 and all(math.isfinite(s) for s in scales)


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
    el1 = dict(base.term_coeffs["el"].items())
    el2 = dict(double.term_coeffs["el"].items())
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
    geom_max = np.abs(problem.term_coeffs["geom"].arrays[2]).max()
    assert problem.gamma == 10.0 * geom_max


def test_automatic_gamma_fallback_without_geometry():
    cx = chain_complex(1, [(5.0, 0, 0), (8.0, 0, 0)])
    problem = build_full(cx, Hyperparameters())
    assert problem.term_coeffs["geom"] == {}
    assert problem.gamma == 1.0


def test_automatic_scales_normalize_term_magnitudes(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    geom_max = np.abs(problem.term_coeffs["geom"].arrays[2]).max()
    for name, scale, lam in zip(PHYSCHEM_TERMS, problem.scales, problem.lambdas):
        term = problem.term_coeffs[name]
        assert len(term), name
        # value = raw * scale * lambda, so max |term| = geom_max * lambda.
        term_max = np.abs(term.arrays[2]).max()
        assert term_max == pytest.approx(geom_max * lam, rel=1e-12)
        assert scale > 0


def test_scale_fallback_when_term_is_silent(planted6):
    problem = build_full(planted6, UNIT_HP)
    # No charges and no H-bond roles anywhere in this fixture.
    for name in ("el", "hba", "hbd"):
        assert problem.term_coeffs[name] == {}
    for idx in (0, 2, 3):
        assert problem.scales[idx] == 1.0


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


@pytest.mark.parametrize("var", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_var_pair_rejects_a_non_integer_id(tiny4, var):
    problem = build_full(tiny4, UNIT_HP)
    with pytest.raises(ValueError, match=r"^variable id .* out of range: not an integer$"):
        problem.var_pair(var)


def test_var_pair_accepts_a_numpy_integer(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    assert problem.var_pair(np.int64(1)) == problem.var_pair(1) == (0, 1)


def test_energy_rejects_wrong_length(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    with pytest.raises(ValueError, match="bits"):
        energy(problem, Assignment.from_string("101"))


def test_assignment_readers_share_one_length_check_and_read_nonzero_as_set(tiny4):
    """`energy`, `incremental_delta` and `decode` read an assignment through
    `QuboProblem.bit_row`: one error for a wrong length, and 2 is a set bit."""
    problem = build_full(tiny4, UNIT_HP)
    readers = {
        "energy": lambda assignment, flip: energy(problem, assignment),
        "incremental_delta": lambda assignment, flip: incremental_delta(problem, assignment, flip),
        "decode": lambda assignment, flip: decode(assignment, problem).mapping,
    }
    for read in readers.values():
        with pytest.raises(ValueError) as raised:
            read(Assignment.from_string("101"), 0)
        assert str(raised.value) == f"assignment has 3 bits, problem has {problem.n_vars} variables"
    ones = one_hot_assignment(problem, index_mapping(problem, TINY4_PLANTED)).bits
    twos = ones * np.uint8(2)
    # Flipping a set bit clears it, and flipping a clear one sets it.
    for flip in (int(ones.argmax()), int(ones.argmin())):
        for name, read in readers.items():
            assert read(Assignment(twos), flip) == read(Assignment(ones), flip), name


def test_hyperparameter_validation():
    with pytest.raises(ValueError, match="5 entries"):
        Hyperparameters(lambdas=(1.0, 2.0))
    with pytest.raises(ValueError, match="non-negative"):
        Hyperparameters(lambdas=(-1.0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="gamma"):
        Hyperparameters(gamma=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lambdas must be non-negative and finite"):
            Hyperparameters(lambdas=(0, 0, bad, 0, 0))
        with pytest.raises(ValueError, match="gamma must be positive and finite"):
            Hyperparameters(gamma=bad)


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
