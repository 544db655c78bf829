"""Extended ligand graph: connectivity, bond-angle, and dihedral edges."""

import math
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from qdock import EdgeKind, GraphBuildError, build_ligand_graph, parse_complex


def make_complex(positions, bonds, locked=()):
    """Assemble a parseable complex from ligand geometry alone."""
    n = len(positions)
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [
                {"id": k + 1, "position": list(map(float, p)), "charge": 0.0, "type_index": 0}
                for k, p in enumerate(positions)
            ],
            "bonds": [
                {"atoms": [i + 1, j + 1], "dihedral_locked": (i, j) in locked or (j, i) in locked}
                for i, j in bonds
            ],
        },
        # Grid points are irrelevant here; supply enough spaced-out ones.
        "grid_points": [
            {"id": 100 + k, "position": [50.0 + 3.0 * k, 0.0, 0.0]} for k in range(n)
        ],
        "type_table": {"epsilon": [0.1], "r_min": [1.5]},
    }
    return parse_complex(doc)


def bfs_distances(n, bonds):
    """Shortest path length between every atom pair in the bond graph."""
    adj = {k: set() for k in range(n)}
    for i, j in bonds:
        adj[i].add(j)
        adj[j].add(i)
    dist = {}
    for start in range(n):
        seen = {start: 0}
        queue = deque([start])
        while queue:
            cur = queue.popleft()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        for other, d in seen.items():
            dist[(start, other)] = d
    return dist


def edges_by_kind(graph):
    out = {kind: set() for kind in EdgeKind}
    for e in graph.edges:
        out[e.kind].add((e.i, e.j))
    return out


def test_three_chain_unit_spacing():
    cx = make_complex([(0, 0, 0), (1, 0, 0), (2, 0, 0)], [(0, 1), (1, 2)])
    graph = build_ligand_graph(cx)
    got = {(e.i, e.j, e.kind, e.dist) for e in graph.edges}
    assert got == {
        (0, 1, EdgeKind.CONNECTIVITY, 1.0),
        (1, 2, EdgeKind.CONNECTIVITY, 1.0),
        (0, 2, EdgeKind.BOND_ANGLE, 2.0),
    }


def test_two_atom_molecule_single_edge():
    cx = make_complex([(0, 0, 0), (1.5, 0, 0)], [(0, 1)])
    graph = build_ligand_graph(cx)
    assert len(graph.edges) == 1
    edge = graph.edges[0]
    assert (edge.i, edge.j, edge.kind) == (0, 1, EdgeKind.CONNECTIVITY)
    assert edge.dist == 1.5


def test_four_chain_locked_middle_bond():
    positions = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)]
    bonds = [(0, 1), (1, 2), (2, 3)]
    graph = build_ligand_graph(make_complex(positions, bonds, locked={(1, 2)}))
    kinds = edges_by_kind(graph)
    assert kinds[EdgeKind.CONNECTIVITY] == {(0, 1), (1, 2), (2, 3)}
    assert kinds[EdgeKind.BOND_ANGLE] == {(0, 2), (1, 3)}
    assert kinds[EdgeKind.DIHEDRAL] == {(0, 3)}
    assert len(graph.edges) == 6
    # Without the lock, the 1-4 pair stays unconstrained.
    graph_free = build_ligand_graph(make_complex(positions, bonds))
    assert edges_by_kind(graph_free)[EdgeKind.DIHEDRAL] == set()
    assert len(graph_free.edges) == 5


def random_connected_molecule(rng, n):
    """Random tree plus a few extra bonds, with well-separated positions."""
    positions = rng.uniform(-8.0, 8.0, size=(n, 3))
    bonds = set()
    for k in range(1, n):
        bonds.add((int(rng.integers(0, k)), k))
    for _ in range(int(rng.integers(0, 3))):
        i, j = rng.choice(n, size=2, replace=False)
        i, j = int(min(i, j)), int(max(i, j))
        bonds.add((i, j))
    return positions, sorted(bonds)


def test_unlocked_edges_match_bfs_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        positions, bonds = random_connected_molecule(rng, n)
        graph = build_ligand_graph(make_complex(positions, bonds))
        dist = bfs_distances(n, bonds)
        expected_conn = {(i, j) for (i, j), d in dist.items() if d == 1 and i < j}
        expected_angle = {(i, j) for (i, j), d in dist.items() if d == 2 and i < j}
        kinds = edges_by_kind(graph)
        assert kinds[EdgeKind.CONNECTIVITY] == expected_conn
        assert kinds[EdgeKind.BOND_ANGLE] == expected_angle
        assert kinds[EdgeKind.DIHEDRAL] == set()


def test_edge_weights_are_euclidean_distances():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        positions, bonds = random_connected_molecule(rng, n)
        locked = {bonds[0]} if bonds else set()
        graph = build_ligand_graph(make_complex(positions, bonds, locked=locked))
        for e in graph.edges:
            expected = math.dist(positions[e.i], positions[e.j])
            assert e.dist == pytest.approx(expected, rel=1e-12)


def test_angle_pairs_are_never_bonds():
    # Triangle: every distance-2 pair is also a bond, so no angle edges appear.
    cx = make_complex(
        [(0, 0, 0), (1, 0, 0), (0.5, 1, 0)], [(0, 1), (1, 2), (0, 2)]
    )
    graph = build_ligand_graph(cx)
    kinds = edges_by_kind(graph)
    assert kinds[EdgeKind.CONNECTIVITY] == {(0, 1), (0, 2), (1, 2)}
    assert kinds[EdgeKind.BOND_ANGLE] == set()
    assert len(graph.edges) == 3


def test_multiple_paths_yield_single_edge():
    # Square: two distinct 2-step paths between opposite corners.
    cx = make_complex(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
    )
    graph = build_ligand_graph(cx)
    kinds = edges_by_kind(graph)
    assert kinds[EdgeKind.BOND_ANGLE] == {(0, 2), (1, 3)}
    assert len(graph.edges) == 6


def test_dihedral_never_duplicates_closer_edge():
    # Locked bond inside a 4-ring: each 1-4 candidate already sits at
    # distance <= 2, so no dihedral edge may be added on top.
    cx = make_complex(
        [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
        locked={(1, 2)},
    )
    graph = build_ligand_graph(cx)
    assert edges_by_kind(graph)[EdgeKind.DIHEDRAL] == set()
    pairs = [(e.i, e.j) for e in graph.edges]
    assert len(pairs) == len(set(pairs))


def test_branched_locked_bond_bridges_all_cross_pairs():
    # Two branches on each side of a locked central bond.
    positions = [
        (0, 0, 0),      # 0 branch of a
        (0, 2, 0),      # 1 branch of a
        (1, 1, 0),      # 2 = a
        (2.5, 1, 0),    # 3 = b
        (3.5, 0, 0),    # 4 branch of b
        (3.5, 2, 0),    # 5 branch of b
    ]
    bonds = [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]
    graph = build_ligand_graph(make_complex(positions, bonds, locked={(2, 3)}))
    kinds = edges_by_kind(graph)
    assert kinds[EdgeKind.DIHEDRAL] == {(0, 4), (0, 5), (1, 4), (1, 5)}


def test_edge_count_invariant_under_relabeling():
    rng = np.random.default_rng(37)
    for _ in range(15):
        n = int(rng.integers(3, 8))
        positions, bonds = random_connected_molecule(rng, n)
        locked = {bonds[int(rng.integers(0, len(bonds)))]}
        graph = build_ligand_graph(make_complex(positions, bonds, locked=locked))

        perm = rng.permutation(n)
        inv = np.argsort(perm)
        new_positions = [positions[inv[k]] for k in range(n)]
        new_bonds = [(int(perm[i]), int(perm[j])) for i, j in bonds]
        new_locked = {(int(perm[i]), int(perm[j])) for i, j in locked}
        relabeled = build_ligand_graph(
            make_complex(new_positions, new_bonds, locked=new_locked)
        )

        assert len(relabeled.edges) == len(graph.edges)
        original = {
            (min(perm[e.i], perm[e.j]), max(perm[e.i], perm[e.j]), e.kind): e.dist
            for e in graph.edges
        }
        mapped = {(e.i, e.j, e.kind): e.dist for e in relabeled.edges}
        assert set(original) == set(mapped)
        for key, d in original.items():
            assert mapped[key] == pytest.approx(d, rel=1e-12)


def test_disconnected_molecule_rejected():
    cx = make_complex(
        [(0, 0, 0), (1, 0, 0), (5, 5, 0), (6, 5, 0)],
        [(0, 1), (2, 3)],
    )
    with pytest.raises(GraphBuildError, match="disconnected"):
        build_ligand_graph(cx)


def test_coincident_bonded_atoms_rejected():
    cx = make_complex([(0, 0, 0), (0, 0, 0), (1, 0, 0)], [(0, 1), (1, 2)])
    with pytest.raises(GraphBuildError, match="zero-length"):
        build_ligand_graph(cx)


def test_hand_built_ligand_without_atoms_rejected(tiny4):
    # A ComplexInput built directly skips parse_complex's checks.
    with pytest.raises(GraphBuildError, match="^ligand has no atoms$"):
        build_ligand_graph(replace(tiny4, ligand_atoms=[]))


def test_single_atom_graph_is_empty():
    cx = make_complex([(0, 0, 0)], [])
    graph = build_ligand_graph(cx)
    assert graph.n_atoms == 1
    assert graph.edges == []


def test_tiny4_edges(tiny4):
    graph = build_ligand_graph(tiny4)
    by_kind = {}
    for e in graph.edges:
        by_kind.setdefault(e.kind, []).append((e.i, e.j, e.dist))
    conn = sorted(by_kind[EdgeKind.CONNECTIVITY])
    assert [(i, j) for i, j, _ in conn] == [(0, 1), (1, 2), (2, 3)]
    for _, _, d in conn:
        assert d == pytest.approx(1.5, rel=1e-12)
    angles = sorted(by_kind[EdgeKind.BOND_ANGLE])
    assert [(i, j) for i, j, _ in angles] == [(0, 2), (1, 3)]
    for _, _, d in angles:
        assert d == pytest.approx(1.5 * math.sqrt(2.0), rel=1e-12)
    dihedrals = by_kind[EdgeKind.DIHEDRAL]
    assert [(i, j) for i, j, _ in dihedrals] == [(0, 3)]
    assert dihedrals[0][2] == pytest.approx(math.sqrt(1.5**2 + 1.5**2 + 1.5**2), rel=1e-12)
