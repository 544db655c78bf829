"""Extended ligand graph construction.

The ligand is encoded as a weighted graph over its heavy atoms. Three edge
kinds keep the pose rigid where chemistry says it must be:

* connectivity edges, one per input bond;
* bond-angle edges between atoms at distance exactly two in the bond graph,
  freezing the angle formed by two consecutive bonds;
* dihedral edges bridging every 1-4 pair across a bond flagged
  ``dihedral_locked``, restricting rotations the input marked as forbidden.

Every edge carries the Euclidean distance between its endpoints in the
experimental pose.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GraphBuildError
from .grid import MIN_POINT_SEPARATION
from .model import ComplexInput, LigandAtom


class EdgeKind(Enum):
    CONNECTIVITY = "connectivity"
    BOND_ANGLE = "bond_angle"
    DIHEDRAL = "dihedral"


@dataclass(frozen=True)
class LigandEdge:
    i: int  # position in the atom list, i < j
    j: int
    dist: float
    kind: EdgeKind


@dataclass(frozen=True)
class LigandGraph:
    atoms: list[LigandAtom]
    edges: list[LigandEdge]

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)


def build_ligand_graph(complex_input: ComplexInput) -> LigandGraph:
    """Build the extended ligand graph from a validated complex.

    Edges are indexed by position in the atom list, not by atom id. Raises
    GraphBuildError for a disconnected bond graph, or for an edge shorter
    than `grid.MIN_POINT_SEPARATION`, the grid points' rule.
    """
    atoms = complex_input.ligand_atoms
    n = len(atoms)
    if n == 0:
        raise GraphBuildError("ligand has no atoms")
    index_of = {a.id: k for k, a in enumerate(atoms)}

    adjacency: list[set[int]] = [set() for _ in range(n)]
    bonds: set[tuple[int, int]] = set()
    locked: list[tuple[int, int]] = []
    for bond in complex_input.ligand_bonds:
        a, b = index_of[bond.i], index_of[bond.j]
        key = (min(a, b), max(a, b))
        bonds.add(key)
        adjacency[a].add(b)
        adjacency[b].add(a)
        if bond.dihedral_locked:
            locked.append((a, b))

    # The decoder treats the ligand as one body; a disconnected bond graph
    # would leave fragments free to drift apart.
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in adjacency[node]:
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    if len(reached) != n:
        raise GraphBuildError(
            f"ligand bond graph is disconnected ({len(reached)} of {n} atoms reachable)"
        )

    angle_pairs: set[tuple[int, int]] = set()
    for mid in range(n):
        neighbors = sorted(adjacency[mid])
        for x in range(len(neighbors)):
            for y in range(x + 1, len(neighbors)):
                pair = (neighbors[x], neighbors[y])
                if pair not in bonds:
                    angle_pairs.add(pair)

    dihedral_pairs: set[tuple[int, int]] = set()
    for a, b in locked:
        for x in adjacency[a] - {b}:
            for y in adjacency[b] - {a}:
                if x == y:
                    continue
                pair = (min(x, y), max(x, y))
                if pair not in bonds and pair not in angle_pairs:
                    dihedral_pairs.add(pair)

    def distance(i: int, j: int) -> float:
        d = float(np.linalg.norm(atoms[i].position - atoms[j].position))
        if d < MIN_POINT_SEPARATION:
            raise GraphBuildError(
                f"zero-length edge between ligand atoms {atoms[i].id} and {atoms[j].id} "
                f"(d = {d:.2e} A)"
            )
        return d

    edges = [LigandEdge(i, j, distance(i, j), EdgeKind.CONNECTIVITY) for i, j in sorted(bonds)]
    edges += [LigandEdge(i, j, distance(i, j), EdgeKind.BOND_ANGLE) for i, j in sorted(angle_pairs)]
    edges += [LigandEdge(i, j, distance(i, j), EdgeKind.DIHEDRAL) for i, j in sorted(dihedral_pairs)]
    return LigandGraph(atoms=list(atoms), edges=edges)
