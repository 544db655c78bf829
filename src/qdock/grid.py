"""Pocket grid graph and its physicochemical colorings.

Every grid point gets precomputed protein-environment labels so the
Hamiltonian assembly never touches protein atoms again:

* Coulomb potential: sum of charge/distance over protein atoms, with the
  332.0636/dielectric prefactor applied per atom (kcal/(mol*e));
* a Lennard-Jones 8-4 energy vector, one entry per ligand atom type, using
  Lorentz-Berthelot mixing against each protein atom's type;
* hydrogen-bond acceptor potential: number of protein donors that could
  donate to an acceptor placed at the point (distance < 3.5 A and
  donor-H-acceptor angle strictly between 130 and 180 degrees);
* hydrogen-bond donor potential: number of protein acceptors reachable by
  a donor placed at the point. The donor's hydrogen is implicit, so the
  angle condition reduces to a distance window (see hbond_donor_count);
* hydrophobic contact count: hydrophobic protein atoms within 4.5 A.

Edge weights are the complete pairwise distance matrix. `build_grid_graph`
measures the point-atom distances to the id-sorted protein once per grid;
each coloring reads them and the protein's columns (`ProteinAtoms`), for
one point or an (n, 3) array, and gives one value (an LJ row) per point,
the same bit for bit either way. The Coulomb potential adds atoms one at a
time in ascending id order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GraphBuildError
from .model import COULOMB_CONSTANT, AtomTypeTable, ComplexInput, ProteinAtoms

HBOND_DISTANCE_MAX = 3.5      # donor-acceptor heavy-atom distance gate, Angstrom
HBOND_ANGLE_MIN_DEG = 130.0   # donor-H-acceptor angle window (strict bounds)
HBOND_ANGLE_MAX_DEG = 180.0
VIRTUAL_H_BOND_LENGTH = 1.0   # implicit ligand donor-H bond length, Angstrom
HYDROPHOBIC_DISTANCE_MAX = 4.5
LJ_CONTRIBUTION_CAP = 1e4     # per-atom LJ clamp, keeps clash coefficients finite
MIN_POINT_SEPARATION = 1e-6


@dataclass(frozen=True)
class GridGraph:
    point_ids: list[int]
    positions: np.ndarray      # (n_points, 3)
    dist: np.ndarray           # (n_points, n_points) symmetric, zero diagonal
    coulomb: np.ndarray        # (n_points,)
    lj: np.ndarray             # (n_points, n_types)
    hb_acceptor: np.ndarray    # (n_points,) int
    hb_donor: np.ndarray       # (n_points,) int
    hydrophobic: np.ndarray    # (n_points,) int

    @property
    def n_points(self) -> int:
        return len(self.point_ids)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis through `np.dot`'s kernel, so distances equal
    `np.linalg.norm`'s bit for bit (a summed `d * d` or `einsum` rounds differently)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _point_atom_distances(points, protein: ProteinAtoms):
    """The protein's atoms sorted by id (stably) and the (..., n_atoms)
    distances from one point or an (n, 3) array of points to them, in that order."""
    atoms = protein.take(np.argsort(protein.ids, kind="stable"))
    delta = np.asarray(points, dtype=float)[..., None, :] - atoms.positions
    return atoms, np.sqrt(_dot(delta, delta))


def coulomb_potential(atoms: ProteinAtoms, r, dielectric: float):
    """Electrostatic potential at the points `r` measures, kcal/(mol*e).

    The prefactor is applied per atom before summing, so the potential of a
    protein split into disjoint parts is the sum of the parts' potentials.
    Atoms are added one at a time in ascending id order, so splitting off
    the highest-id atom is exact bit for bit.
    """
    terms = COULOMB_CONSTANT / dielectric * atoms.charges / r
    # cumsum folds left like `total += term` from total = 0.0
    return np.cumsum(np.insert(terms, 0, 0.0, axis=-1), axis=-1)[..., -1][()]


def lj_vector(atoms: ProteinAtoms, r, table: AtomTypeTable) -> np.ndarray:
    """Lennard-Jones 8-4 energy for every ligand atom type: (n_types,) at
    one point, (n, n_types) at n points.

    Cross parameters use Lorentz-Berthelot mixing: geometric mean for the
    well depth, arithmetic mean for the minimum position. Per-atom
    contributions are clamped to LJ_CONTRIBUTION_CAP before summation so a
    near-clash cannot blow up the coefficient range.
    """
    types = atoms.type_indices
    # (n_types, n_atoms) mixed parameters
    eps_mix = np.sqrt(np.outer(table.epsilon, table.epsilon[types]))
    rmin_mix = (table.r_min[:, None] + table.r_min[types][None, :]) / 2.0
    ratio4 = (rmin_mix / r[..., None, :]) ** 4
    contrib = eps_mix * (ratio4 * ratio4 - 2.0 * ratio4)
    np.minimum(contrib, LJ_CONTRIBUTION_CAP, out=contrib)
    return contrib.sum(axis=-1)


def _dha_angle_deg(donor: np.ndarray, hydrogens: np.ndarray, acceptor_points) -> np.ndarray:
    """Donor-H-acceptor angles at the hydrogen vertices, degrees, (..., n_hydrogens)."""
    to_donor = donor - hydrogens
    to_acceptor = np.asarray(acceptor_points, dtype=float)[..., None, :] - hydrogens
    nd = np.sqrt(_dot(to_donor, to_donor))
    na = np.sqrt(_dot(to_acceptor, to_acceptor))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_phi = _dot(to_donor, to_acceptor) / (nd * na)
    phi = np.degrees(np.arccos(np.clip(cos_phi, -1.0, 1.0)))
    return np.where((nd < 1e-12) | (na < 1e-12), np.nan, phi)


def hbond_acceptor_count(points, atoms: ProteinAtoms, r):
    """Protein donors that could hydrogen-bond to an acceptor at `points`, which `r` measures.

    The angles of every (donor, hydrogen) pair are measured in one pass; a donor
    counts at a point within its distance gate where any of its pairs is in the window."""
    in_range = r < HBOND_DISTANCE_MAX
    bare = atoms.donor & (atoms.hydrogen_counts == 0)
    for k in np.flatnonzero(bare):
        if in_range[..., k].any():
            warnings.warn(
                f"donor protein atom {atoms.ids[k]} has no explicit hydrogens; "
                "it cannot satisfy the angle condition",
                stacklevel=2,
            )
    donors = atoms.donor & ~bare
    sizes = atoms.hydrogen_counts[donors]
    heavy = np.repeat(atoms.positions[donors], sizes, axis=0)
    hydrogens = atoms.donor_hydrogens[np.repeat(donors, atoms.hydrogen_counts)]
    phi = _dha_angle_deg(heavy, hydrogens, points)
    in_window = (HBOND_ANGLE_MIN_DEG < phi) & (phi < HBOND_ANGLE_MAX_DEG)
    # Each donor's pairs are contiguous, from the running sum of the sizes before it.
    angled = np.logical_or.reduceat(in_window, np.cumsum(sizes) - sizes, axis=-1)
    return (angled & in_range[..., donors]).sum(axis=-1)


def hbond_donor_count(atoms: ProteinAtoms, r):
    """Protein acceptors a donor at the points `r` measures could reach.

    The ligand model has no explicit hydrogens, so the hydrogen is free to
    sit anywhere at VIRTUAL_H_BOND_LENGTH from the point. Placing it on the
    segment toward the acceptor makes the angle approach 180 degrees, hence
    the angle condition is satisfiable exactly when the acceptor lies
    beyond that radius; only the distance window remains.
    """
    return (atoms.acceptor & (VIRTUAL_H_BOND_LENGTH < r) & (r < HBOND_DISTANCE_MAX)).sum(axis=-1)


def hydrophobic_count(atoms: ProteinAtoms, r):
    """Hydrophobic protein atoms within HYDROPHOBIC_DISTANCE_MAX of the points `r` measures."""
    return (atoms.hydrophobic & (r < HYDROPHOBIC_DISTANCE_MAX)).sum(axis=-1)


def build_grid_graph(complex_input: ComplexInput) -> GridGraph:
    """Assemble the complete pocket grid graph with all colorings. Raises
    GraphBuildError naming the first pair of coincident grid points, the
    first grid point (in input order) on a protein atom (by id) and that
    atom, or the first grid point whose Coulomb potential or Lennard-Jones
    row is not finite."""
    points = complex_input.grid_points
    n = len(points)
    positions = np.array([p.position for p in points], dtype=float).reshape(n, 3)

    delta = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((delta * delta).sum(axis=-1))
    coincident = np.argwhere(np.triu(dist < MIN_POINT_SEPARATION, k=1))
    if len(coincident):
        a, b = (points[k].id for k in coincident[0])
        raise GraphBuildError(f"grid points {a} and {b} coincide")
    atoms, r = _point_atom_distances(positions, complex_input.protein)
    clashes = np.argwhere(r < MIN_POINT_SEPARATION)
    if len(clashes):
        k, j = clashes[0]
        raise GraphBuildError(
            f"grid point {points[k].id} coincides with protein atom {atoms.ids[j]} "
            f"(r = {r[k, j]:.2e} A)"
        )

    # An extreme dielectric or type table overflows these; the check names the point.
    with np.errstate(over="ignore", invalid="ignore"):
        coulomb = coulomb_potential(atoms, r, complex_input.dielectric)
        lj = lj_vector(atoms, r, complex_input.type_table)
    bad = np.flatnonzero(~(np.isfinite(coulomb) & np.isfinite(lj).all(axis=-1)))
    if len(bad):
        kind = "Lennard-Jones energy" if np.isfinite(coulomb[bad[0]]) else "Coulomb potential"
        raise GraphBuildError(f"non-finite {kind} at grid point {points[bad[0]].id}")

    return GridGraph(
        point_ids=[p.id for p in points],
        positions=positions,
        dist=dist,
        coulomb=coulomb,
        lj=lj,
        hb_acceptor=hbond_acceptor_count(positions, atoms, r),
        hb_donor=hbond_donor_count(atoms, r),
        hydrophobic=hydrophobic_count(atoms, r),
    )
