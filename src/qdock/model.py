"""Domain data model and ingestion of complex documents.

A "complex" bundles everything the pipeline consumes: protein atoms with
precomputed charges/types/roles, the ligand (atoms + bonds) in its
experimental pose, the pocket grid points, and the per-type Lennard-Jones
parameter table. All chemistry perception happens upstream; this module
only validates and carries the data. `read_json` is the one reader of a
JSON input file, `parse_complex` the one check of a complex document.

Units are fixed globally: Angstrom for lengths, elementary charges for q,
kcal/mol for energies.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ComplexFormatError, InfeasibleComplexError, QdockError

# Coulomb prefactor 1/(4*pi*eps0) in kcal*Angstrom/(mol*e^2); divide by the
# relative dielectric to get the working constant.
COULOMB_CONSTANT = 332.0636

# Largest accepted |coordinate|, in Angstrom. Far beyond any molecular
# scale, yet small enough that every squared distance (at most 12e200),
# the geometric coefficients and the penalty sized from them stay finite.
COORDINATE_LIMIT = 1e100


class HBondRole(Enum):
    NONE = "none"
    DONOR = "donor"
    ACCEPTOR = "acceptor"
    DONOR_ACCEPTOR = "donor_acceptor"

    @property
    def is_donor(self) -> bool:
        return self in (HBondRole.DONOR, HBondRole.DONOR_ACCEPTOR)

    @property
    def is_acceptor(self) -> bool:
        return self in (HBondRole.ACCEPTOR, HBondRole.DONOR_ACCEPTOR)


@dataclass(frozen=True)
class ProteinAtom:
    id: int
    position: np.ndarray
    charge: float
    type_index: int
    hbond_role: HBondRole = HBondRole.NONE
    hydrophobic: bool = False
    donor_hydrogens: tuple[np.ndarray, ...] = ()


@dataclass(frozen=True)
class LigandAtom:
    id: int
    position: np.ndarray  # experimental pose
    charge: float
    type_index: int
    hbond_acceptor: int = 0
    hbond_donor: int = 0
    hydrophobic: int = 0


@dataclass(frozen=True)
class LigandBond:
    i: int
    j: int
    dihedral_locked: bool = False


@dataclass(frozen=True)
class AtomTypeTable:
    epsilon: np.ndarray  # well depth per type, kcal/mol
    r_min: np.ndarray    # potential-minimum distance per type, Angstrom

    @property
    def n_types(self) -> int:
        return len(self.epsilon)


@dataclass(frozen=True)
class GridPointInput:
    id: int
    position: np.ndarray


@dataclass(frozen=True)
class ComplexInput:
    protein: list[ProteinAtom]
    ligand_atoms: list[LigandAtom]
    ligand_bonds: list[LigandBond]
    grid_points: list[GridPointInput]
    type_table: AtomTypeTable
    dielectric: float = 1.0
    name: str = ""

    def ligand_coordinates(self) -> np.ndarray:
        """Experimental ligand positions, one row per atom in input order."""
        return np.array([a.position for a in self.ligand_atoms], dtype=float)


# The Python types `json` gives a JSON number; bool, an int subclass, is not one.
_JSON_NUMBERS = (int, float)
_HBOND_ROLES = tuple(role.value for role in HBondRole)


def _plain(value, limit: float = sys.float_info.max) -> bool:
    """A JSON int or float of magnitude at most `limit` (so not NaN)."""
    return type(value) in _JSON_NUMBERS and abs(value) <= limit


def _real(value) -> bool:
    """A `numbers.Real` other than bool: numpy scalars pass, JSON true does not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _at(where: str, key) -> str:
    """A value's location in an error message: `where`, or where.key."""
    return where if key is None else f"{where}.{key}"


def _number(value, where: str, kind=float, key=None):
    """A finite JSON number; with kind=int, one with an integral value.
    A JSON int or float skips the `_real` test."""
    if _plain(value) and (kind is float or value == int(value)):
        return kind(value)
    if not (_real(value) and abs(value) <= sys.float_info.max):
        raise ComplexFormatError(f"{_at(where, key)}: expected a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ComplexFormatError(f"{_at(where, key)}: expected an integer, got {value!r}")
    return kind(value)


def _array(value, where: str, key=None) -> list:
    if not isinstance(value, (list, tuple)):
        raise ComplexFormatError(
            f"{_at(where, key)}: expected a JSON array, got {type(value).__name__}"
        )
    return value


def _numbers(value, where: str) -> np.ndarray:
    value = _array(value, where)
    if all(_plain(v) for v in value):
        return np.array(value, dtype=float)
    return np.array([_number(v, f"{where}[{k}]") for k, v in enumerate(value)])


def _as_vec3(value, where: str, key=None) -> np.ndarray:
    if type(value) is list and len(value) == 3 and all(_plain(c, COORDINATE_LIMIT) for c in value):
        return np.array(value, dtype=float)
    where = _at(where, key)
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ComplexFormatError(f"{where}: expected a 3-vector, got {value!r}")
    if not all(_real(c) for c in value):
        raise ComplexFormatError(f"{where}: non-numeric coordinate in {value!r}")
    vec = _numbers(value, where)
    for k, c in enumerate(value):
        if abs(c) > COORDINATE_LIMIT:
            raise ComplexFormatError(
                f"{where}[{k}]: coordinate {c!r} exceeds {COORDINATE_LIMIT:g} A in magnitude"
            )
    return vec


def _flag(entry: dict, key: str, where: str, default) -> int:
    value = entry.get(key, default)
    if value not in (0, 1, False, True):
        raise ComplexFormatError(f"{where}.{key}: flag must be 0 or 1, got {value!r}")
    return int(value)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ComplexFormatError(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


def _objects(value, where: str) -> list[tuple[str, dict]]:
    """(path, entry) for each entry of a JSON array of objects."""
    value = _array(value, where)
    return [(f"{where}[{k}]", _object(e, f"{where}[{k}]")) for k, e in enumerate(value)]


def _required(entry: dict, key: str, where: str):
    if key not in entry:
        raise ComplexFormatError(f"{where}.{key}: missing required key")
    return entry[key]


def _field(entry: dict, key: str, where: str, kind=float):
    return _number(_required(entry, key, where), where, kind, key)


def _type_index(entry: dict, where: str, table: AtomTypeTable) -> int:
    index = _field(entry, "type_index", where, int)
    if not 0 <= index < table.n_types:
        raise ComplexFormatError(f"{where}: type_index {index} outside table of size {table.n_types}")
    return index


def _position(entry: dict, where: str) -> np.ndarray:
    return _as_vec3(_required(entry, "position", where), where, "position")


def _check_unique_ids(items, kind: str) -> None:
    seen = set()
    for item in items:
        if item.id in seen:
            raise ComplexFormatError(f"duplicate {kind} id {item.id}")
        seen.add(item.id)


def parse_complex(doc: dict, name: str = "") -> ComplexInput:
    """Build and validate a ComplexInput from an already-decoded JSON document.
    This checks the document; the graph builders check its geometry."""
    if not isinstance(doc, dict):
        raise ComplexFormatError("top level must be a JSON object")
    for key in ("protein", "ligand", "grid_points", "type_table"):
        if key not in doc:
            raise ComplexFormatError(f"missing top-level key '{key}'")

    table_doc = _object(doc["type_table"], "type_table")
    epsilon = _numbers(table_doc.get("epsilon", []), "type_table.epsilon")
    r_min = _numbers(table_doc.get("r_min", []), "type_table.r_min")
    if len(epsilon) == 0 or len(epsilon) != len(r_min):
        raise ComplexFormatError(
            "type_table: epsilon and r_min must be non-empty and equal length"
        )
    if "n_types" in table_doc and _field(table_doc, "n_types", "type_table", int) != len(epsilon):
        raise ComplexFormatError("type_table: n_types does not match vector length")
    if not np.all(epsilon > 0):
        raise ComplexFormatError("type_table: all epsilon must be > 0")
    if not np.all(r_min > 0):
        raise ComplexFormatError("type_table: all r_min must be > 0")
    table = AtomTypeTable(epsilon=epsilon, r_min=r_min)

    dielectric = _number(doc.get("dielectric", 1.0), "dielectric")
    if not dielectric > 0:
        raise ComplexFormatError(f"dielectric must be > 0, got {dielectric}")

    protein = []
    for where, entry in _objects(doc["protein"], "protein"):
        role = entry.get("hbond_role", "none")
        if role not in _HBOND_ROLES:
            raise ComplexFormatError(f"{where}.hbond_role: unknown role {role!r}")
        hydrogens = _array(entry.get("donor_hydrogens", []), where, "donor_hydrogens")
        hydrogens = tuple(
            _as_vec3(h, f"{where}.donor_hydrogens[{k}]") for k, h in enumerate(hydrogens)
        )
        atom = ProteinAtom(
            id=_field(entry, "id", where, int),
            position=_position(entry, where),
            charge=_field(entry, "charge", where),
            type_index=_type_index(entry, where, table),
            hbond_role=HBondRole(role),
            hydrophobic=bool(_flag(entry, "hydrophobic", where, False)),
            donor_hydrogens=hydrogens,
        )
        if atom.hbond_role.is_donor and not hydrogens:
            raise ComplexFormatError(
                f"{where}: donor role requires at least one explicit hydrogen"
            )
        if not atom.hbond_role.is_donor and hydrogens:
            raise ComplexFormatError(
                f"{where}: donor_hydrogens given but hbond_role is {role}"
            )
        protein.append(atom)
    _check_unique_ids(protein, "protein atom")

    ligand_doc = _object(doc["ligand"], "ligand")
    if "atoms" not in ligand_doc:
        raise ComplexFormatError("ligand: missing 'atoms'")
    ligand_atoms = []
    for where, entry in _objects(ligand_doc["atoms"], "ligand.atoms"):
        atom = LigandAtom(
            id=_field(entry, "id", where, int),
            position=_position(entry, where),
            charge=_field(entry, "charge", where),
            type_index=_type_index(entry, where, table),
            hbond_acceptor=_flag(entry, "hbond_acceptor", where, 0),
            hbond_donor=_flag(entry, "hbond_donor", where, 0),
            hydrophobic=_flag(entry, "hydrophobic", where, 0),
        )
        ligand_atoms.append(atom)
    if not ligand_atoms:
        raise ComplexFormatError("ligand must have at least one atom")
    _check_unique_ids(ligand_atoms, "ligand atom")
    atom_ids = {a.id for a in ligand_atoms}

    ligand_bonds = []
    for where, entry in _objects(ligand_doc.get("bonds", []), "ligand.bonds"):
        pair = entry.get("atoms")
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ComplexFormatError(f"{where}: 'atoms' must be a pair of atom ids")
        i, j = _number(pair[0], where, int, "atoms[0]"), _number(pair[1], where, int, "atoms[1]")
        if i == j:
            raise ComplexFormatError(f"{where}: bond endpoints must be distinct")
        if i not in atom_ids or j not in atom_ids:
            raise ComplexFormatError(f"{where}: bond references unknown atom id")
        locked = _flag(entry, "dihedral_locked", where, False)
        ligand_bonds.append(LigandBond(i=i, j=j, dihedral_locked=bool(locked)))

    grid_points = []
    for where, entry in _objects(doc["grid_points"], "grid_points"):
        grid_points.append(
            GridPointInput(
                id=_field(entry, "id", where, int),
                position=_position(entry, where),
            )
        )
    _check_unique_ids(grid_points, "grid")

    if len(ligand_atoms) > len(grid_points):
        raise InfeasibleComplexError(
            f"infeasible: {len(ligand_atoms)} ligand atoms but only "
            f"{len(grid_points)} grid points"
        )

    return ComplexInput(
        protein=protein,
        ligand_atoms=ligand_atoms,
        ligand_bonds=ligand_bonds,
        grid_points=grid_points,
        type_table=table,
        dielectric=dielectric,
        name=name,
    )


def read_json(path: str | Path, error: type[QdockError], what: str):
    """The decoded JSON document at `path`, a complex, config or samples
    file. A missing file, a decode error (its line and column), text that
    is not UTF-8 or nests too deep raise `error` naming `path` as given."""
    if not Path(path).exists():
        raise error(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{path}: not readable as JSON ({exc})") from None


def load_complex(path: str | Path) -> ComplexInput:
    """Load and validate a complex JSON document from disk."""
    path = Path(path)
    return parse_complex(read_json(path, ComplexFormatError, "complex"), name=path.stem)
