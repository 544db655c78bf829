"""Seeded synthetic docking complexes with a planted pose.

Everything here uses numpy only; qdock sees nothing but the generated JSON
documents. A complex is a chain ligand with known bond geometry, a pocket
grid that contains one jittered copy of the ligand (the planted pose)
shuffled among decoy points, and a protein shell kept clear of the grid.

`make_complex` returns the document together with the planted mapping
(ligand atom id -> grid point id), so solvers can be scored against it.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BOND_LENGTH = 1.5          # Angstrom
BOND_ANGLE_DEG = 111.0     # mean; each angle is drawn within +-2 degrees
JITTER = 0.05              # planted point offset from its atom, Angstrom (<= 0.1)
DECOY_SEPARATION = 0.8     # minimum distance between any two grid points
PROTEIN_CLEARANCE = 2.5    # minimum protein-atom to grid-point distance
NONBONDED_MIN = 2.2        # minimum distance between ligand atoms >= 3 bonds apart
POCKET_MARGIN = 2.0        # decoys fill the ligand box grown by this much
SHELL_MARGIN = 6.0         # protein atoms fill the grid box grown by this much
ENUMERABLE_PLACEMENTS = 5040
GEOMETRIC_MARGIN = 1.0     # Angstrom^2, planted vs the next-best placement
HBOND_ROLES = ("none", "donor", "acceptor", "donor_acceptor")
TYPE_TABLE = {"epsilon": [0.15, 0.2, 0.1], "r_min": [3.4, 3.8, 3.2]}


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _random_direction(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def _chain(rng: np.random.Generator, n_atoms: int) -> np.ndarray:
    """Chain coordinates: fixed bond length, ~111 degree angles, random torsions.

    Placement follows the natural-extension-reference-frame construction;
    a chain that folds back onto itself is redrawn from the same stream.
    """
    while True:
        pos = np.zeros((n_atoms, 3))
        if n_atoms > 1:
            pos[1] = [BOND_LENGTH, 0.0, 0.0]
        if n_atoms > 2:
            theta = np.radians(BOND_ANGLE_DEG + rng.uniform(-2.0, 2.0))
            pos[2] = pos[1] + BOND_LENGTH * np.array([-np.cos(theta), np.sin(theta), 0.0])
        for k in range(3, n_atoms):
            a, b, c = pos[k - 3], pos[k - 2], pos[k - 1]
            theta = np.radians(BOND_ANGLE_DEG + rng.uniform(-2.0, 2.0))
            phi = rng.uniform(-np.pi, np.pi)
            bc = _unit(c - b)
            normal = _unit(np.cross(b - a, bc))
            m = np.stack([bc, np.cross(normal, bc), normal], axis=1)
            local = BOND_LENGTH * np.array(
                [-np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)]
            )
            pos[k] = c + m @ local
        gaps = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        far = np.triu(np.ones((n_atoms, n_atoms), dtype=bool), k=3)
        if not far.any() or gaps[far].min() >= NONBONDED_MIN:
            return pos


def _planted_is_geometric_optimum(ligand: np.ndarray, grid: np.ndarray, planted_row: np.ndarray) -> bool:
    """Whether the planted placement beats, by at least GEOMETRIC_MARGIN,
    every injective placement that uses another set of grid points, on the
    summed squared mismatch of all pairwise distances.

    Placements on the planted points themselves are left out: a chain read
    backwards has nearly (for 3 atoms, exactly) the same distances. For
    chains of up to 4 atoms with this module's bond locking, every pair is
    an edge of qdock's ligand graph.
    """
    n = len(ligand)
    pairs = np.triu_indices(n, k=1)
    target = np.linalg.norm(ligand[:, None, :] - ligand[None, :, :], axis=-1)[pairs]
    grid_dist = np.linalg.norm(grid[:, None, :] - grid[None, :, :], axis=-1)
    placements = np.array(list(itertools.permutations(range(len(grid)), n)))
    mismatch = grid_dist[placements[:, pairs[0]], placements[:, pairs[1]]] - target
    cost = (mismatch * mismatch).sum(axis=1)
    planted_cost = cost[(placements == planted_row).all(axis=1)][0]
    on_planted_points = np.isin(placements, planted_row).all(axis=1)
    return bool(cost[~on_planted_points].min() >= planted_cost + GEOMETRIC_MARGIN)


def _grid(rng: np.random.Generator, ligand: np.ndarray, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Planted points (one per atom) plus decoys, shuffled; returns positions
    and, for each ligand atom, the row of its planted point.

    When the placements can be enumerated (at most ENUMERABLE_PLACEMENTS),
    the grid is redrawn until the planted points beat every other set of
    points on geometry, so a geometry-only solve lands on them.
    """
    for _ in range(1000):
        positions, planted_row = _draw_grid(rng, ligand, n_points)
        if math.perm(n_points, len(ligand)) > ENUMERABLE_PLACEMENTS or _planted_is_geometric_optimum(
            ligand, positions, planted_row
        ):
            return positions, planted_row
    raise RuntimeError("could not draw a grid whose planted placement is the geometric optimum")


def _draw_grid(rng: np.random.Generator, ligand: np.ndarray, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    planted = ligand + JITTER * np.array([_random_direction(rng) for _ in ligand])
    lo = ligand.min(axis=0) - POCKET_MARGIN
    hi = ligand.max(axis=0) + POCKET_MARGIN
    points = list(planted)
    attempts = 0
    while len(points) < n_points:
        attempts += 1
        if attempts > 200_000:
            raise RuntimeError(f"could not place {n_points} grid points")
        candidate = rng.uniform(lo, hi)
        if np.linalg.norm(np.asarray(points) - candidate, axis=1).min() >= DECOY_SEPARATION:
            points.append(candidate)
    order = rng.permutation(n_points)
    positions = np.asarray(points)[order]
    planted_row = np.argsort(order)[: len(ligand)]
    return positions, planted_row


def _protein(rng: np.random.Generator, grid: np.ndarray, n_atoms: int) -> list[dict]:
    lo = grid.min(axis=0) - SHELL_MARGIN
    hi = grid.max(axis=0) + SHELL_MARGIN
    atoms: list[dict] = []
    while len(atoms) < n_atoms:
        batch = rng.uniform(lo, hi, size=(4 * n_atoms, 3))
        clear = np.linalg.norm(batch[:, None, :] - grid[None, :, :], axis=-1).min(axis=1)
        for position in batch[clear >= PROTEIN_CLEARANCE]:
            if len(atoms) == n_atoms:
                break
            k = len(atoms)
            role = HBOND_ROLES[k] if k < len(HBOND_ROLES) else HBOND_ROLES[rng.integers(4)]
            hydrogens = []
            if role in ("donor", "donor_acceptor"):
                hydrogens = [(position + 1.0 * _random_direction(rng)).tolist()]
            atoms.append(
                {
                    "id": 1000 + k,
                    "position": position.tolist(),
                    "charge": float(rng.uniform(-0.8, 0.8)),
                    "type_index": int(rng.integers(len(TYPE_TABLE["epsilon"]))),
                    "hbond_role": role,
                    "hydrophobic": bool(rng.random() < 0.4),
                    "donor_hydrogens": hydrogens,
                }
            )
    return atoms


def make_complex(
    seed, n_atoms: int, n_points: int, n_protein: int, name: str, inert: bool = False
) -> tuple[dict, dict[int, int]]:
    """One complex document and its planted mapping, fully determined by `seed`.

    `seed` is anything `numpy.random.default_rng` accepts, such as a list
    of ints, so one workload seed can fan out to several complexes. An
    `inert` ligand has no charges, no H-bond or hydrophobic flags and a
    single atom type, so no interaction weight can tell the chain from its
    reverse; only geometry and the set of grid points used matter.
    """
    rng = np.random.default_rng(seed)
    ligand = _chain(rng, n_atoms)
    grid, planted_row = _grid(rng, ligand, n_points)
    atoms = []
    for k in range(n_atoms):
        charge = float(rng.uniform(-0.5, 0.5))
        type_index = int(rng.integers(len(TYPE_TABLE["epsilon"])))
        flags = [int(rng.random() < p) for p in (0.3, 0.3, 0.5)]
        if inert:
            charge, type_index, flags = 0.0, 0, [0, 0, 0]
        atoms.append(
            {
                "id": k + 1,
                "position": ligand[k].tolist(),
                "charge": charge,
                "type_index": type_index,
                "hbond_acceptor": flags[0],
                "hbond_donor": flags[1],
                "hydrophobic": flags[2],
            }
        )
    bonds = [
        {"atoms": [k + 1, k + 2], "rotatable": False, "dihedral_locked": k % 2 == 1}
        for k in range(n_atoms - 1)
    ]
    grid_ids = [101 + j for j in range(n_points)]
    doc = {
        "name": name,
        "dielectric": 4.0,
        "type_table": {"n_types": len(TYPE_TABLE["epsilon"]), **TYPE_TABLE},
        "protein": _protein(rng, grid, n_protein),
        "ligand": {"atoms": atoms, "bonds": bonds},
        "grid_points": [
            {"id": grid_ids[j], "position": grid[j].tolist()} for j in range(n_points)
        ],
    }
    planted = {k + 1: grid_ids[int(planted_row[k])] for k in range(n_atoms)}
    return doc, planted
