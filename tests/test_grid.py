"""Pocket grid colorings: Coulomb, Lennard-Jones, H-bond counts, distances."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from qdock import GraphBuildError, build_grid_graph, grid, parse_complex
from qdock.model import (
    COULOMB_CONSTANT,
    AtomTypeTable,
    ComplexInput,
    GridPointInput,
    HBondRole,
    LigandAtom,
    ProteinAtom,
)
from qdock.grid import (
    HBOND_DISTANCE_MAX,
    HYDROPHOBIC_DISTANCE_MAX,
    LJ_CONTRIBUTION_CAP,
    VIRTUAL_H_BOND_LENGTH,
    _point_atom_distances,
    coulomb_potential,
    hbond_acceptor_count,
    hbond_donor_count,
    hydrophobic_count,
    lj_vector,
)


def atom(id, position, charge=0.0, type_index=0, role=HBondRole.NONE,
         hydrophobic=False, hydrogens=()):
    return ProteinAtom(
        id=id,
        position=np.array(position, dtype=float),
        charge=charge,
        type_index=type_index,
        hbond_role=role,
        hydrophobic=hydrophobic,
        donor_hydrogens=tuple(np.array(h, dtype=float) for h in hydrogens),
    )


ORIGIN = np.zeros(3)


# ---------------------------------------------------------------- Coulomb

def test_unit_charge_at_prefactor_distance():
    protein = [atom(1, (COULOMB_CONSTANT, 0, 0), charge=1.0)]
    assert coulomb_potential(*_point_atom_distances(ORIGIN, protein), 1.0) == 1.0


def test_opposite_charges_equidistant_cancel_exactly():
    protein = [
        atom(1, (2.0, 0, 0), charge=0.37),
        atom(2, (-2.0, 0, 0), charge=-0.37),
    ]
    assert coulomb_potential(*_point_atom_distances(ORIGIN, protein), 4.0) == 0.0


def test_coulomb_matches_brute_sum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        protein = [
            atom(k + 1, rng.uniform(1.0, 6.0, 3), charge=float(rng.normal()))
            for k in range(n)
        ]
        dielectric = float(rng.uniform(0.5, 80.0))
        point = rng.uniform(-1.0, 1.0, 3)
        expected = 0.0
        for a in sorted(protein, key=lambda a: a.id):
            expected += (
                COULOMB_CONSTANT / dielectric * a.charge / math.dist(point, a.position)
            )
        assert coulomb_potential(
            *_point_atom_distances(point, protein), dielectric
        ) == pytest.approx(expected, rel=1e-12)


def test_coulomb_sign_flip_antisymmetry_exact():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        protein = [
            atom(k + 1, rng.uniform(1.0, 6.0, 3), charge=float(rng.normal()))
            for k in range(n)
        ]
        flipped = [
            atom(a.id, a.position, charge=-a.charge) for a in protein
        ]
        point = rng.uniform(-1.0, 1.0, 3)
        v = coulomb_potential(*_point_atom_distances(point, protein), 2.0)
        assert coulomb_potential(*_point_atom_distances(point, flipped), 2.0) == -v


def test_coulomb_superposition_prefix_plus_singleton_exact():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        protein = [
            atom(k + 1, rng.uniform(1.0, 6.0, 3), charge=float(rng.normal()))
            for k in range(n)
        ]
        point = rng.uniform(-1.0, 1.0, 3)
        # The sum is a left fold in ascending id order, so splitting off the
        # final atom must be exact, with no tolerance at all.
        whole = coulomb_potential(*_point_atom_distances(point, protein), 1.5)
        prefix = coulomb_potential(*_point_atom_distances(point, protein[:-1]), 1.5)
        last = coulomb_potential(*_point_atom_distances(point, protein[-1:]), 1.5)
        assert whole == prefix + last


def test_coulomb_superposition_arbitrary_split():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        protein = [
            atom(k + 1, rng.uniform(1.0, 6.0, 3), charge=float(rng.normal()))
            for k in range(n)
        ]
        point = rng.uniform(-1.0, 1.0, 3)
        k = int(rng.integers(1, n))
        whole = coulomb_potential(*_point_atom_distances(point, protein), 1.0)
        split = coulomb_potential(
            *_point_atom_distances(point, protein[:k]), 1.0
        ) + coulomb_potential(*_point_atom_distances(point, protein[k:]), 1.0)
        assert split == pytest.approx(whole, rel=1e-13, abs=1e-13)


def test_empty_protein_zero_potential():
    assert coulomb_potential(*_point_atom_distances(ORIGIN, []), 1.0) == 0.0


# ----------------------------------------------------------- Lennard-Jones

def test_lj_at_minimum_equals_negative_well_depth():
    table = AtomTypeTable(epsilon=np.array([0.25]), r_min=np.array([2.0]))
    protein = [atom(1, (2.0, 0, 0))]
    value = lj_vector(*_point_atom_distances(ORIGIN, protein), table)
    assert value.shape == (1,)
    assert value[0] == pytest.approx(-0.25, rel=1e-12)

    # Same property at a non-dyadic minimum distance.
    table = AtomTypeTable(epsilon=np.array([0.3]), r_min=np.array([1.7]))
    protein = [atom(1, (1.7, 0, 0))]
    value = lj_vector(*_point_atom_distances(ORIGIN, protein), table)[0]
    assert value == pytest.approx(-0.3, rel=1e-12)


def test_lj_tail_vanishes_at_ten_minima():
    eps, rmin = 0.2, 1.8
    table = AtomTypeTable(epsilon=np.array([eps]), r_min=np.array([rmin]))
    protein = [atom(1, (10.0 * rmin, 0, 0))]
    value = float(lj_vector(*_point_atom_distances(ORIGIN, protein), table)[0])
    ratio4 = (rmin / (10.0 * rmin)) ** 4
    assert value == pytest.approx(eps * (ratio4 * ratio4 - 2.0 * ratio4), rel=1e-12)
    assert abs(value) < 2.1e-4 * eps


def test_lorentz_berthelot_mixing_worked_example():
    # eps 0.1 x 0.4 -> 0.2 and r_min 1.5, 2.5 -> 2.0, both bit-exact; probing
    # the mixed minimum from a type-1 atom at r = 2.0 exposes the mixed well
    # depth directly in the type-0 entry.
    assert math.sqrt(0.1 * 0.4) == 0.2
    assert (1.5 + 2.5) / 2.0 == 2.0
    table = AtomTypeTable(epsilon=np.array([0.1, 0.4]), r_min=np.array([1.5, 2.5]))
    protein = [atom(1, (2.0, 0, 0), type_index=1)]
    value = lj_vector(*_point_atom_distances(ORIGIN, protein), table)
    assert value[0] == -0.2
    # Type-1 self term at r = 2.0 sits inside its R_min = 2.5 minimum; the
    # ratio 1.25 is dyadic, so the repulsive value is reproducible exactly.
    ratio4 = 1.25**4
    assert value[1] == 0.4 * (ratio4 * ratio4 - 2.0 * ratio4)


def test_lj_clash_is_clamped():
    table = AtomTypeTable(epsilon=np.array([0.25]), r_min=np.array([2.0]))
    protein = [atom(1, (0.01, 0, 0))]
    assert lj_vector(*_point_atom_distances(ORIGIN, protein), table)[0] == LJ_CONTRIBUTION_CAP
    # Two clashing atoms: clamp applies per atom, then contributions add.
    protein = [atom(1, (0.01, 0, 0)), atom(2, (0, 0.01, 0))]
    assert lj_vector(*_point_atom_distances(ORIGIN, protein), table)[0] == 2.0 * LJ_CONTRIBUTION_CAP


def test_lj_matches_brute_formula():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n_types = int(rng.integers(1, 4))
        table = AtomTypeTable(
            epsilon=rng.uniform(0.05, 0.5, n_types),
            r_min=rng.uniform(1.2, 2.5, n_types),
        )
        n = int(rng.integers(1, 7))
        protein = [
            atom(k + 1, rng.uniform(1.5, 8.0, 3), type_index=int(rng.integers(0, n_types)))
            for k in range(n)
        ]
        point = rng.uniform(-0.5, 0.5, 3)
        got = lj_vector(*_point_atom_distances(point, protein), table)
        for t in range(n_types):
            expected = 0.0
            for a in protein:
                r = math.dist(point, a.position)
                eps = math.sqrt(table.epsilon[t] * table.epsilon[a.type_index])
                rmin = (table.r_min[t] + table.r_min[a.type_index]) / 2.0
                x4 = (rmin / r) ** 4
                expected += min(eps * (x4 * x4 - 2.0 * x4), LJ_CONTRIBUTION_CAP)
            assert got[t] == pytest.approx(expected, rel=1e-12, abs=1e-15)


# ------------------------------------------------------- H-bond acceptor

def donor_with_angle(phi_deg, da_target=3.0):
    """Protein donor whose D-H-A angle at the origin equals phi_deg.

    H sits at the origin's side: H = (0,0,0) shifted so the acceptor point is
    the origin. Solve |A - D| = da_target for the H-A distance L given
    |D - H| = 1 and the angle phi between (D - H) and (A - H).
    """
    phi = math.radians(phi_deg)
    # |A - D|^2 = L^2 - 2 L cos(phi) + 1
    c = math.cos(phi)
    L = c + math.sqrt(c * c + da_target * da_target - 1.0)
    direction = np.array([math.cos(phi), math.sin(phi), 0.0])
    acceptor_point = L * direction          # A, relative to H at origin
    donor_pos = np.array([1.0, 0.0, 0.0])   # D
    shift = -acceptor_point                 # move A to the origin
    donor = atom(1, donor_pos + shift, role=HBondRole.DONOR, hydrogens=[shift])
    assert math.dist(donor.position, ORIGIN) == pytest.approx(da_target, rel=1e-12)
    return donor


def test_acceptor_count_geometry_window():
    def count(donor):
        return hbond_acceptor_count(ORIGIN, *_point_atom_distances(ORIGIN, [donor]))

    # 3.0 A donor with a 150 degree D-H-A angle binds.
    assert count(donor_with_angle(150.0)) == 1
    # Same angle, donor pushed out to 4.0 A: distance gate fails.
    assert count(donor_with_angle(150.0, da_target=4.0)) == 0
    # 20 degree angle at 3.0 A: angle gate fails.
    assert count(donor_with_angle(20.0)) == 0
    # Just inside and just outside the 130 degree bound.
    assert count(donor_with_angle(131.0)) == 1
    assert count(donor_with_angle(129.0)) == 0


def test_acceptor_angle_bounds_are_strict():
    # H exactly on the D-A segment: angle is exactly 180 degrees, excluded.
    donor = atom(1, (3.0, 0, 0), role=HBondRole.DONOR, hydrogens=[(2.0, 0, 0)])
    assert hbond_acceptor_count(ORIGIN, *_point_atom_distances(ORIGIN, [donor])) == 0


def test_acceptor_counts_atom_once_with_multiple_hydrogens():
    good = donor_with_angle(150.0)
    bad_h = np.array([0.5, 0.0, 0.0]) + good.position  # angle near 0
    donor = atom(
        1,
        good.position,
        role=HBondRole.DONOR,
        hydrogens=[bad_h, good.donor_hydrogens[0]],
    )
    assert hbond_acceptor_count(ORIGIN, *_point_atom_distances(ORIGIN, [donor])) == 1
    both_good = atom(
        2,
        good.position,
        role=HBondRole.DONOR,
        hydrogens=[good.donor_hydrogens[0], good.donor_hydrogens[0] + 1e-6],
    )
    assert hbond_acceptor_count(ORIGIN, *_point_atom_distances(ORIGIN, [both_good])) == 1


def test_acceptor_ignores_non_donor_roles():
    acceptor_only = atom(1, (2.5, 0, 0), role=HBondRole.ACCEPTOR)
    assert hbond_acceptor_count(ORIGIN, *_point_atom_distances(ORIGIN, [acceptor_only])) == 0


def test_donor_without_hydrogens_warns_and_skips():
    bare = atom(1, (2.5, 0, 0), role=HBondRole.DONOR)
    with pytest.warns(UserWarning, match="no explicit hydrogens"):
        assert hbond_acceptor_count(ORIGIN, *_point_atom_distances(ORIGIN, [bare])) == 0


# --------------------------------------------------------- H-bond donor

def test_donor_count_distance_window():
    def count(r):
        acceptor = atom(1, (r, 0, 0), role=HBondRole.ACCEPTOR)
        return hbond_donor_count(*_point_atom_distances(ORIGIN, [acceptor]))

    assert count(2.9) == 1
    assert count(3.6) == 0
    assert count(0.8) == 0
    # Window bounds are strict on both sides.
    assert count(VIRTUAL_H_BOND_LENGTH) == 0
    assert count(HBOND_DISTANCE_MAX) == 0
    assert count(1.0000001) == 1


def test_dual_role_atom_counts_for_both_directions():
    dual = atom(
        1,
        (2.0, 0, 0),
        role=HBondRole.DONOR_ACCEPTOR,
        hydrogens=[(1.0, 0, 0)],  # H on the segment: 180 degrees, no acceptor hit
    )
    assert hbond_donor_count(*_point_atom_distances(ORIGIN, [dual])) == 1
    assert hbond_acceptor_count(ORIGIN, *_point_atom_distances(ORIGIN, [dual])) == 0


# ---------------------------------------------------------- hydrophobic

def test_hydrophobic_count_gate():
    near = atom(1, (4.4, 0, 0), hydrophobic=True)
    assert hydrophobic_count(*_point_atom_distances(ORIGIN, [near])) == 1
    polar = atom(1, (1.0, 0, 0), hydrophobic=False)
    assert hydrophobic_count(*_point_atom_distances(ORIGIN, [polar])) == 0
    boundary = atom(1, (HYDROPHOBIC_DISTANCE_MAX, 0, 0), hydrophobic=True)
    assert hydrophobic_count(*_point_atom_distances(ORIGIN, [boundary])) == 0


def test_hydrophobic_count_three_of_five():
    protein = [
        atom(1, (1.0, 0, 0), hydrophobic=True),
        atom(2, (0, 3.0, 0), hydrophobic=True),
        atom(3, (0, 0, 4.4), hydrophobic=True),
        atom(4, (5.0, 0, 0), hydrophobic=True),
        atom(5, (0, 6.0, 0), hydrophobic=True),
    ]
    expected = sum(
        1 for a in protein if math.dist(ORIGIN, a.position) < HYDROPHOBIC_DISTANCE_MAX
    )
    assert expected == 3
    assert hydrophobic_count(*_point_atom_distances(ORIGIN, protein)) == 3


def test_counts_monotone_under_atom_addition():
    rng = np.random.default_rng(29)
    for _ in range(10):
        protein = []
        prev = (0, 0, 0)
        point = rng.uniform(-1.0, 1.0, 3)
        for k in range(8):
            h_pos = rng.uniform(1.0, 5.0, 3)
            protein.append(
                atom(
                    k + 1,
                    h_pos,
                    role=HBondRole.DONOR_ACCEPTOR,
                    hydrophobic=bool(rng.integers(0, 2)),
                    hydrogens=[h_pos + rng.normal(0, 0.5, 3)],
                )
            )
            cur = (
                hbond_acceptor_count(point, *_point_atom_distances(point, protein)),
                hbond_donor_count(*_point_atom_distances(point, protein)),
                hydrophobic_count(*_point_atom_distances(point, protein)),
            )
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur


# ------------------------------------------------------------ grid graph

def test_single_point_empty_protein_all_zero():
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [{"id": 1, "position": [0, 0, 0], "charge": 0.5, "type_index": 0}],
            "bonds": [],
        },
        "grid_points": [{"id": 7, "position": [1.0, 2.0, 3.0]}],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    graph = build_grid_graph(parse_complex(doc))
    assert graph.n_points == 1
    assert graph.point_ids == [7]
    assert graph.dist.shape == (1, 1) and graph.dist[0, 0] == 0.0
    assert graph.coulomb[0] == 0.0
    assert np.all(graph.lj == 0.0)
    assert graph.hb_acceptor[0] == 0 and graph.hb_donor[0] == 0
    assert graph.hydrophobic[0] == 0


def test_two_points_unit_apart_distance_matrix():
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [{"id": 1, "position": [0, 0, 0], "charge": 0.0, "type_index": 0}],
            "bonds": [],
        },
        "grid_points": [
            {"id": 1, "position": [0.0, 0.0, 0.0]},
            {"id": 2, "position": [1.0, 0.0, 0.0]},
        ],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    graph = build_grid_graph(parse_complex(doc))
    assert graph.dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_grid_point_on_protein_atom_rejected():
    doc = {
        "protein": [{"id": 1, "position": [1.0, 2.0, 3.0], "charge": 0.1, "type_index": 0}],
        "ligand": {
            "atoms": [{"id": 1, "position": [0, 0, 0], "charge": 0.0, "type_index": 0}],
            "bonds": [],
        },
        "grid_points": [{"id": 7, "position": [1.0, 2.0, 3.0]}],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    with pytest.raises(GraphBuildError, match="coincides with protein atom 1") as excinfo:
        build_grid_graph(parse_complex(doc))
    assert "grid point 7" in str(excinfo.value)


def test_grid_graph_measures_point_atom_distances_once(tiny4, monkeypatch):
    # Every coloring and the clash check read the one matrix.
    calls = []
    measure = grid._point_atom_distances

    def counted(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(grid, "_point_atom_distances", counted)
    graph = build_grid_graph(tiny4)
    assert len(calls) == 1
    assert graph.n_points == len(tiny4.grid_points)


def test_hand_built_coincident_grid_points_are_named(tiny4):
    # The builder checks the geometry of every complex, parsed or built in
    # Python; parse_complex measures no grid points.
    points = list(tiny4.grid_points)
    points[1] = replace(points[1], position=points[0].position)
    message = f"^grid points {points[0].id} and {points[1].id} coincide$"
    with pytest.raises(GraphBuildError, match=message):
        build_grid_graph(replace(tiny4, grid_points=points))


@pytest.mark.parametrize(
    "edit, kind",
    [
        (lambda doc: doc.update(dielectric=1e-320), "Coulomb potential"),
        (lambda doc: doc["type_table"]["r_min"].__setitem__(1, 1e100), "Lennard-Jones energy"),
    ],
    ids=["tiny-dielectric", "huge-r_min"],
)
def test_non_finite_colouring_names_its_grid_point(tiny4_doc, edit, kind):
    # No RuntimeWarning escapes either (it would be an error in this suite).
    doc = copy.deepcopy(tiny4_doc)
    edit(doc)
    with pytest.raises(GraphBuildError, match=f"^non-finite {kind} at grid point 101$"):
        build_grid_graph(parse_complex(doc))


def test_distance_matrix_properties():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        doc = {
            "protein": [],
            "ligand": {
                "atoms": [{"id": 1, "position": [0, 0, 0], "charge": 0.0, "type_index": 0}],
                "bonds": [],
            },
            "grid_points": [
                {"id": k + 1, "position": list(rng.uniform(-10.0, 10.0, 3))}
                for k in range(n)
            ],
            "type_table": {"epsilon": [0.2], "r_min": [1.5]},
        }
        graph = build_grid_graph(parse_complex(doc))
        d = graph.dist
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert d[a, c] <= d[a, b] + d[b, c] + 1e-9


def test_tiny4_colorings_match_composed_oracle(tiny4):
    graph = build_grid_graph(tiny4)
    protein = sorted(tiny4.protein, key=lambda a: a.id)
    table = tiny4.type_table
    for idx, gp in enumerate(tiny4.grid_points):
        point = gp.position
        vol = 0.0
        for a in protein:
            vol += COULOMB_CONSTANT / tiny4.dielectric * a.charge / math.dist(point, a.position)
        assert graph.coulomb[idx] == pytest.approx(vol, rel=1e-12, abs=1e-12)

        for t in range(table.n_types):
            lj = 0.0
            for a in protein:
                r = math.dist(point, a.position)
                eps = math.sqrt(table.epsilon[t] * table.epsilon[a.type_index])
                rmin = (table.r_min[t] + table.r_min[a.type_index]) / 2.0
                x4 = (rmin / r) ** 4
                lj += min(eps * (x4 * x4 - 2.0 * x4), LJ_CONTRIBUTION_CAP)
            assert graph.lj[idx, t] == pytest.approx(lj, rel=1e-12, abs=1e-12)

        n_acc = 0
        for a in protein:
            if not a.hbond_role.is_donor or math.dist(point, a.position) >= 3.5:
                continue
            for h in a.donor_hydrogens:
                v1, v2 = a.position - h, point - h
                cos_phi = float(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2)))
                if 130.0 < math.degrees(math.acos(max(-1.0, min(1.0, cos_phi)))) < 180.0:
                    n_acc += 1
                    break
        assert graph.hb_acceptor[idx] == n_acc

        n_don = sum(
            1
            for a in protein
            if a.hbond_role.is_acceptor and 1.0 < math.dist(point, a.position) < 3.5
        )
        assert graph.hb_donor[idx] == n_don

        n_hyd = sum(
            1
            for a in protein
            if a.hydrophobic and math.dist(point, a.position) < 4.5
        )
        assert graph.hydrophobic[idx] == n_hyd


def test_tiny4_pocket_signs(tiny4):
    # The potential flips sign across the pocket while every near-pose point
    # sits in an attractive LJ well; a quick guard against fixture drift.
    graph = build_grid_graph(tiny4)
    assert graph.coulomb[0] > 0 and graph.coulomb[1] > 0
    assert graph.coulomb[2] < 0 and graph.coulomb[3] < 0
    assert np.all(graph.lj[:4, 0] < 0)
    assert graph.hb_acceptor.tolist() == [0, 1, 0, 0, 0, 0]
    assert graph.hb_donor.tolist() == [0, 0, 1, 0, 0, 0]
    assert graph.hydrophobic.tolist() == [1, 0, 0, 1, 0, 0]


def test_grid_colorings_do_not_depend_on_batch():
    rng = np.random.default_rng(41)
    roles = list(HBondRole)
    protein = []
    for k in range(240):
        position = rng.uniform(-6.0, 6.0, 3)
        role = roles[k % len(roles)]
        hydrogens = []
        if role.is_donor:
            for _ in range(1 + k % 2):
                direction = rng.normal(size=3)
                hydrogens.append(position + direction / np.linalg.norm(direction))
        protein.append(
            atom(
                # ids run against list order, so id sorting matters
                1000 - 3 * k,
                position,
                charge=float(rng.normal(0.0, 0.5)),
                type_index=int(rng.integers(0, 3)),
                role=role,
                hydrophobic=bool(rng.integers(0, 2)),
                hydrogens=hydrogens,
            )
        )
    table = AtomTypeTable(epsilon=np.array([0.15, 0.2, 0.1]), r_min=np.array([3.4, 3.8, 3.2]))
    points = rng.uniform(-3.0, 3.0, (36, 3))
    cx = ComplexInput(
        protein=protein,
        ligand_atoms=[LigandAtom(id=1, position=np.zeros(3), charge=0.0, type_index=0)],
        ligand_bonds=[],
        grid_points=[GridPointInput(id=j, position=p) for j, p in enumerate(points)],
        type_table=table,
        dielectric=4.0,
    )
    graph = build_grid_graph(cx)
    batch = {
        "coulomb": coulomb_potential(*_point_atom_distances(points, protein), cx.dielectric),
        "lj": lj_vector(*_point_atom_distances(points, protein), table),
        "hb_acceptor": hbond_acceptor_count(points, *_point_atom_distances(points, protein)),
        "hb_donor": hbond_donor_count(*_point_atom_distances(points, protein)),
        "hydrophobic": hydrophobic_count(*_point_atom_distances(points, protein)),
    }
    for j, point in enumerate(points):
        single = {
            "coulomb": coulomb_potential(*_point_atom_distances(point, protein), cx.dielectric),
            "lj": lj_vector(*_point_atom_distances(point, protein), table),
            "hb_acceptor": hbond_acceptor_count(point, *_point_atom_distances(point, protein)),
            "hb_donor": hbond_donor_count(*_point_atom_distances(point, protein)),
            "hydrophobic": hydrophobic_count(*_point_atom_distances(point, protein)),
        }
        for name, value in single.items():
            assert np.array_equal(value, batch[name][j]), name
            assert np.array_equal(value, getattr(graph, name)[j]), name
    for name in ("hb_acceptor", "hb_donor", "hydrophobic"):
        assert 0 < batch[name].sum() < len(protein) * len(points), name

    # Bit-exact reference: a left fold in ascending id order over
    # np.linalg.norm distances, one point at a time.
    for j, point in enumerate(points):
        total = 0.0
        for a in sorted(protein, key=lambda a: a.id):
            r = float(np.linalg.norm(point - a.position))
            total += COULOMB_CONSTANT / cx.dielectric * a.charge / r
        assert batch["coulomb"][j] == total

    # The same per-point oracle that checks tiny4, over this complex.
    test_tiny4_colorings_match_composed_oracle(cx)

    bare = atom(1, points[0] + np.array([2.5, 0.0, 0.0]), role=HBondRole.DONOR)
    with pytest.warns(UserWarning, match="donor protein atom 1 has no explicit hydrogens"):
        with_bare = _point_atom_distances(points, protein + [bare])
        batch_with_bare = hbond_acceptor_count(points, *with_bare)
    assert np.array_equal(batch_with_bare, batch["hb_acceptor"])
