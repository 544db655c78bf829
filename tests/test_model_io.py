"""Parsing, validation, and loading of complex documents."""

import copy
import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdock import (
    ComplexFormatError,
    GraphBuildError,
    Hyperparameters,
    InfeasibleComplexError,
    build_full,
    build_grid_graph,
    load_complex,
    parse_complex,
)
from qdock import model
from qdock.model import COULOMB_CONSTANT, AtomTypeTable, HBondRole, ProteinAtom, ProteinAtoms

from conftest import records


def minimal_doc():
    """Smallest valid complex: one ligand atom, one grid point, empty protein."""
    return {
        "protein": [],
        "ligand": {
            "atoms": [{"id": 1, "position": [0.0, 0.0, 0.0], "charge": 0.0, "type_index": 0}],
            "bonds": [],
        },
        "grid_points": [{"id": 10, "position": [1.0, 0.0, 0.0]}],
        "type_table": {"epsilon": [0.1], "r_min": [1.5]},
    }


def test_minimal_document_parses():
    cx = parse_complex(minimal_doc())
    assert len(cx.ligand_atoms) == 1
    assert len(cx.grid_points) == 1
    assert len(cx.protein) == 0
    assert cx.dielectric == 1.0


def test_coulomb_constant_value():
    assert COULOMB_CONSTANT == 332.0636


def test_tiny4_counts(tiny4, tiny4_doc):
    # Independent walk over the raw JSON rather than the parsed object.
    assert len(tiny4.ligand_atoms) == len(tiny4_doc["ligand"]["atoms"]) == 4
    assert len(tiny4.grid_points) == len(tiny4_doc["grid_points"]) == 6
    assert len(tiny4.protein) == len(tiny4_doc["protein"])
    assert len(tiny4.ligand_bonds) == len(tiny4_doc["ligand"]["bonds"]) == 3
    assert cx_ids(tiny4) == sorted(a["id"] for a in tiny4_doc["ligand"]["atoms"])


def cx_ids(cx):
    return sorted(a.id for a in cx.ligand_atoms)


def test_parse_preserves_document_values(tiny4, tiny4_doc):
    assert tiny4.dielectric == tiny4_doc["dielectric"]
    by_id = {a.id: a for a in tiny4.ligand_atoms}
    for entry in tiny4_doc["ligand"]["atoms"]:
        atom = by_id[entry["id"]]
        assert list(atom.position) == entry["position"]
        assert atom.charge == entry["charge"]
        assert atom.type_index == entry["type_index"]


def test_duplicate_grid_id_rejected():
    doc = minimal_doc()
    doc["grid_points"] = [
        {"id": 10, "position": [1.0, 0.0, 0.0]},
        {"id": 10, "position": [2.0, 0.0, 0.0]},
    ]
    with pytest.raises(ComplexFormatError, match="duplicate grid id 10"):
        parse_complex(doc)


def test_duplicate_ligand_atom_id_rejected():
    doc = minimal_doc()
    doc["ligand"]["atoms"].append(
        {"id": 1, "position": [0.5, 0.0, 0.0], "charge": 0.0, "type_index": 0}
    )
    doc["grid_points"].append({"id": 11, "position": [2.0, 0.0, 0.0]})
    with pytest.raises(ComplexFormatError, match="duplicate ligand atom id 1"):
        parse_complex(doc)


def test_duplicate_protein_atom_id_rejected():
    doc = minimal_doc()
    atom = {"id": 5, "position": [9.0, 0.0, 0.0], "charge": 0.0, "type_index": 0}
    doc["protein"] = [atom, dict(atom)]
    with pytest.raises(ComplexFormatError, match="duplicate protein atom id 5"):
        parse_complex(doc)


def test_missing_top_level_keys_rejected():
    for key in ("protein", "ligand", "grid_points", "type_table"):
        doc = minimal_doc()
        del doc[key]
        with pytest.raises(ComplexFormatError, match=f"missing top-level key '{key}'"):
            parse_complex(doc)


def _parent(doc, path):
    for step in path[:-1]:
        doc = doc[step]
    return doc


def _drop(*path):
    return lambda doc: _parent(doc, path).pop(path[-1])


def _replace(value, *path):
    return lambda doc: _parent(doc, path).__setitem__(path[-1], value)


MALFORMED_ENTRIES = [
    (_drop("protein", 0, "id"), "protein[0].id"),
    (_drop("protein", 0, "position"), "protein[0].position"),
    (_drop("protein", 0, "charge"), "protein[0].charge"),
    (_drop("protein", 0, "type_index"), "protein[0].type_index"),
    (_drop("ligand", "atoms", 0, "id"), "ligand.atoms[0].id"),
    (_drop("ligand", "atoms", 0, "position"), "ligand.atoms[0].position"),
    (_drop("ligand", "atoms", 0, "charge"), "ligand.atoms[0].charge"),
    (_drop("ligand", "atoms", 0, "type_index"), "ligand.atoms[0].type_index"),
    (_drop("grid_points", 0, "id"), "grid_points[0].id"),
    (_drop("grid_points", 0, "position"), "grid_points[0].position"),
    (_replace([0.1, 1.5], "type_table"), "type_table"),
    (_replace([1], "ligand"), "ligand"),
    (_replace({"id": 5}, "protein"), "protein"),
    (_replace(7, "protein", 0), "protein[0]"),
    (_replace("atom", "ligand", "atoms", 0), "ligand.atoms[0]"),
    (_replace([[1, 2]], "ligand", "bonds"), "ligand.bonds[0]"),
    (_replace(None, "grid_points", 0), "grid_points[0]"),
    (_replace("five", "protein", 0, "id"), "protein[0].id"),
    (_replace(float("inf"), "ligand", "atoms", 0, "id"), "ligand.atoms[0].id"),
    (_replace(None, "dielectric"), "dielectric"),
    (_replace(float("inf"), "dielectric"), "dielectric"),
    (_replace([{"atoms": [None, 1]}], "ligand", "bonds"), "ligand.bonds[0].atoms[0]"),
    (_replace(5, "protein", 0, "donor_hydrogens"), "protein[0].donor_hydrogens"),
    (
        lambda doc: doc["protein"][0].update(
            hbond_role="donor", donor_hydrogens=[[5.0, 5.0, float("nan")]]
        ),
        "protein[0].donor_hydrogens[0][2]",
    ),
    (_replace([0.0, float("nan"), 0.0], "protein", 0, "position"), "protein[0].position[1]"),
    (_replace(float("inf"), "ligand", "atoms", 0, "charge"), "ligand.atoms[0].charge"),
    (_replace(1.7, "protein", 0, "type_index"), "protein[0].type_index"),
    (_replace(1.5, "grid_points", 0, "id"), "grid_points[0].id"),
    (_replace("foo", "protein", 0, "hbond_role"), "protein[0].hbond_role"),
    (_replace("x", "type_table", "epsilon"), "type_table.epsilon"),
    (_replace([float("inf")], "type_table", "epsilon"), "type_table.epsilon[0]"),
    (_replace([float("nan")], "type_table", "r_min"), "type_table.r_min[0]"),
    (_replace("a", "type_table", "n_types"), "type_table.n_types"),
    (_replace("false", "protein", 0, "hydrophobic"), "protein[0].hydrophobic"),
    (
        lambda doc: doc["ligand"].update(
            atoms=doc["ligand"]["atoms"]
            + [{"id": 2, "position": [1.0, 0.0, 0.0], "charge": 0.0, "type_index": 0}],
            bonds=[{"atoms": [1, 2], "dihedral_locked": "no"}],
        ),
        "ligand.bonds[0].dihedral_locked",
    ),
    (_replace([1e200, 0.0, 0.0], "grid_points", 0, "position"), "grid_points[0].position[0]"),
    (_replace([0.0, 0.0, -1e101], "ligand", "atoms", 0, "position"), "ligand.atoms[0].position[2]"),
    (_replace([0.0, 2e100, 0.0], "protein", 0, "position"), "protein[0].position[1]"),
    # JSON true is not a number, although bool is a `numbers.Real`.
    (_replace(True, "protein", 0, "charge"), "protein[0].charge"),
    (_replace(True, "ligand", "atoms", 0, "id"), "ligand.atoms[0].id"),
    (_replace(True, "grid_points", 0, "id"), "grid_points[0].id"),
    (_replace([{"atoms": [1, True]}], "ligand", "bonds"), "ligand.bonds[0].atoms[1]"),
    (_replace(True, "protein", 0, "type_index"), "protein[0].type_index"),
    (_replace(True, "dielectric"), "dielectric"),
    (_replace([True], "type_table", "epsilon"), "type_table.epsilon[0]"),
    (_replace([0.0, True, 0.0], "grid_points", 0, "position"), "grid_points[0].position"),
]


@pytest.mark.parametrize(
    "mutate, where",
    MALFORMED_ENTRIES,
    ids=[f"case{k}-{where}" for k, (_, where) in enumerate(MALFORMED_ENTRIES)],
)
def test_malformed_entry_names_its_json_path(mutate, where):
    doc = minimal_doc()
    doc["protein"].append({"id": 5, "position": [5.0, 5.0, 5.0], "charge": 0.0, "type_index": 0})
    mutate(doc)
    with pytest.raises(ComplexFormatError, match=re.escape(where) + "[: ]"):
        parse_complex(doc)


def test_type_table_invariants():
    doc = minimal_doc()
    doc["type_table"] = {"epsilon": [0.1, 0.2], "r_min": [1.5]}
    with pytest.raises(ComplexFormatError, match="equal length"):
        parse_complex(doc)

    doc = minimal_doc()
    doc["type_table"] = {"epsilon": [], "r_min": []}
    with pytest.raises(ComplexFormatError, match="non-empty"):
        parse_complex(doc)

    doc = minimal_doc()
    doc["type_table"]["epsilon"] = [0.0]
    with pytest.raises(ComplexFormatError, match="epsilon must be > 0"):
        parse_complex(doc)

    doc = minimal_doc()
    doc["type_table"]["r_min"] = [-1.0]
    with pytest.raises(ComplexFormatError, match="r_min must be > 0"):
        parse_complex(doc)

    doc = minimal_doc()
    doc["type_table"]["n_types"] = 3
    with pytest.raises(ComplexFormatError, match="n_types does not match"):
        parse_complex(doc)


def test_dielectric_must_be_positive():
    doc = minimal_doc()
    doc["dielectric"] = 0.0
    with pytest.raises(ComplexFormatError, match="dielectric must be > 0"):
        parse_complex(doc)


def test_type_index_out_of_range_rejected():
    doc = minimal_doc()
    doc["ligand"]["atoms"][0]["type_index"] = 1
    with pytest.raises(ComplexFormatError, match="type_index 1 outside table of size 1"):
        parse_complex(doc)

    doc = minimal_doc()
    doc["protein"] = [{"id": 2, "position": [5.0, 0.0, 0.0], "charge": 0.0, "type_index": 7}]
    with pytest.raises(ComplexFormatError, match="type_index 7"):
        parse_complex(doc)

    # The index is read with the id, position and charge, before the flags.
    doc = minimal_doc()
    doc["ligand"]["atoms"][0].update(type_index=3, hydrophobic=2)
    doc["protein"] = [{"id": 2, "position": [5.0, 0.0, 0.0], "charge": 0.0, "type_index": 3,
                       "hydrophobic": 2}]
    for where in ("protein[0]", "ligand.atoms[0]"):
        message = f"^{re.escape(where)}: type_index 3 outside table of size 1$"
        with pytest.raises(ComplexFormatError, match=message):
            parse_complex(doc)
        doc["protein"] = []


def test_flags_must_be_binary():
    doc = minimal_doc()
    doc["ligand"]["atoms"][0]["hydrophobic"] = 2
    with pytest.raises(ComplexFormatError, match="flag must be 0 or 1"):
        parse_complex(doc)


def test_donor_role_requires_hydrogens():
    doc = minimal_doc()
    doc["protein"] = [
        {
            "id": 3,
            "position": [4.0, 0.0, 0.0],
            "charge": 0.0,
            "type_index": 0,
            "hbond_role": "donor",
        }
    ]
    with pytest.raises(ComplexFormatError, match="donor role requires at least one"):
        parse_complex(doc)


def test_hydrogens_without_donor_role_rejected():
    doc = minimal_doc()
    doc["protein"] = [
        {
            "id": 3,
            "position": [4.0, 0.0, 0.0],
            "charge": 0.0,
            "type_index": 0,
            "donor_hydrogens": [[4.5, 0.5, 0.0]],
        }
    ]
    with pytest.raises(ComplexFormatError, match="donor_hydrogens given but hbond_role"):
        parse_complex(doc)


def test_donor_acceptor_role_accepted():
    doc = minimal_doc()
    doc["protein"] = [
        {
            "id": 3,
            "position": [4.0, 0.0, 0.0],
            "charge": 0.0,
            "type_index": 0,
            "hbond_role": "donor_acceptor",
            "donor_hydrogens": [[4.5, 0.5, 0.0]],
        }
    ]
    cx = parse_complex(doc)
    role = records(cx.protein)[0].hbond_role
    assert role is HBondRole.DONOR_ACCEPTOR
    assert role.is_donor and role.is_acceptor


def test_bond_invariants():
    doc = minimal_doc()
    doc["ligand"]["atoms"].append(
        {"id": 2, "position": [1.5, 0.0, 0.0], "charge": 0.0, "type_index": 0}
    )
    doc["grid_points"].append({"id": 11, "position": [2.0, 0.0, 0.0]})

    bad = copy.deepcopy(doc)
    bad["ligand"]["bonds"] = [{"atoms": [1, 1]}]
    with pytest.raises(ComplexFormatError, match="endpoints must be distinct"):
        parse_complex(bad)

    bad = copy.deepcopy(doc)
    bad["ligand"]["bonds"] = [{"atoms": [1, 99]}]
    with pytest.raises(ComplexFormatError, match="unknown atom id"):
        parse_complex(bad)

    bad = copy.deepcopy(doc)
    bad["ligand"]["bonds"] = [{"atoms": [1]}]
    with pytest.raises(ComplexFormatError, match="pair of atom ids"):
        parse_complex(bad)


def test_coincident_grid_points_rejected():
    # parse_complex checks the document; the grid builder, which measures
    # the points, names the pair within its tolerance.
    doc = minimal_doc()
    doc["grid_points"] = [
        {"id": 10, "position": [1.0, 0.0, 0.0]},
        {"id": 11, "position": [1.0, 0.0, 1e-9]},
    ]
    complex_input = parse_complex(doc)
    with pytest.raises(GraphBuildError, match="^grid points 10 and 11 coincide$"):
        build_grid_graph(complex_input)


def test_more_ligand_atoms_than_grid_points_infeasible():
    doc = minimal_doc()
    doc["ligand"]["atoms"].append(
        {"id": 2, "position": [1.5, 0.0, 0.0], "charge": 0.0, "type_index": 0}
    )
    with pytest.raises(InfeasibleComplexError, match="2 ligand atoms but only 1 grid"):
        parse_complex(doc)


def test_empty_ligand_rejected():
    doc = minimal_doc()
    doc["ligand"]["atoms"] = []
    with pytest.raises(ComplexFormatError, match="at least one atom"):
        parse_complex(doc)


def test_bad_position_vector_rejected():
    doc = minimal_doc()
    doc["ligand"]["atoms"][0]["position"] = [0.0, 0.0]
    with pytest.raises(ComplexFormatError, match="expected a 3-vector"):
        parse_complex(doc)

    doc = minimal_doc()
    doc["grid_points"][0]["position"] = [0.0, "x", 0.0]
    with pytest.raises(ComplexFormatError, match="non-numeric coordinate"):
        parse_complex(doc)


def test_coordinates_at_the_limit_build_finite_coefficients(tiny4_doc):
    # Opposite corners of the accepted cube: the largest squared distance
    # (12e200) and the penalty sized from it stay finite, with no overflow
    # warning (RuntimeWarning is an error in this suite).
    doc = copy.deepcopy(tiny4_doc)
    doc["grid_points"][0]["position"] = [1e100, 1e100, 1e100]
    doc["grid_points"][1]["position"] = [-1e100, -1e100, -1e100]
    problem = build_full(parse_complex(doc), Hyperparameters(lambdas=(1.0,) * 5))
    assert np.isfinite(problem.coeffs.arrays[2]).all() and math.isfinite(problem.offset)


def test_load_complex_missing_file(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ComplexFormatError, match="not found"):
        load_complex(missing)


def test_load_complex_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"protein": [\n')
    with pytest.raises(ComplexFormatError, match="JSON parse error at line"):
        load_complex(path)


def test_load_complex_is_deterministic(tmp_path):
    doc = minimal_doc()
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(doc))
    a = load_complex(path)
    b = load_complex(path)
    assert repr(a.ligand_atoms) == repr(b.ligand_atoms)
    assert repr(a.grid_points) == repr(b.grid_points)
    assert a.name == b.name == "mini"


def test_ligand_coordinates_order(tiny4):
    coords = tiny4.ligand_coordinates()
    assert coords.shape == (4, 3)
    for row, atom in zip(coords, tiny4.ligand_atoms):
        assert list(row) == list(atom.position)


# ------------------------------------------------------ protein columns

TABLE = AtomTypeTable(epsilon=np.array([0.1, 0.2, 0.3]), r_min=np.array([1.5, 1.6, 1.7]))
COORDINATES = st.one_of(st.integers(-50, 50), st.floats(-50.0, 50.0))
VEC3 = st.lists(COORDINATES, min_size=3, max_size=3)


def protein_doc(entries):
    doc = minimal_doc()
    doc["protein"] = entries
    doc["type_table"] = {"epsilon": TABLE.epsilon.tolist(), "r_min": TABLE.r_min.tolist()}
    return doc


@st.composite
def protein_entries(draw, floats=True):
    """Valid protein entries with shuffled distinct ids: ints or (with
    `floats`) integral floats for ids and type indices, int or float
    coordinates and charges, every role (or none given), bool or 0/1 flags
    (or none given), and donors with 1-3 hydrogens."""
    n = draw(st.integers(0, 12))
    entries = []
    integral = (lambda k: st.sampled_from([k, float(k)])) if floats else st.just
    for id in draw(st.permutations(range(-3, 30)))[:n]:
        entry = {
            "id": draw(integral(id)),
            "position": draw(VEC3),
            "charge": draw(st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))),
            "type_index": draw(integral(draw(st.integers(0, TABLE.n_types - 1)))),
        }
        role = draw(st.sampled_from([None, *(r.value for r in HBondRole)]))
        if role is not None:
            entry["hbond_role"] = role
        flag = draw(st.sampled_from([None, False, True, 0, 1]))
        if flag is not None:
            entry["hydrophobic"] = flag
        if role is not None and HBondRole(role).is_donor:
            entry["donor_hydrogens"] = draw(st.lists(VEC3, min_size=1, max_size=3))
        elif draw(st.booleans()):
            entry["donor_hydrogens"] = []
        entries.append(entry)
    return entries


def record(entry) -> ProteinAtom:
    """The ProteinAtom an entry describes, read field by field."""
    return ProteinAtom(
        id=int(entry["id"]),
        position=np.array(entry["position"], dtype=float),
        charge=float(entry["charge"]),
        type_index=int(entry["type_index"]),
        hbond_role=HBondRole(entry.get("hbond_role", "none")),
        hydrophobic=bool(entry.get("hydrophobic", False)),
        donor_hydrogens=tuple(np.array(h, dtype=float) for h in entry.get("donor_hydrogens", [])),
    )


def assert_same_columns(got: ProteinAtoms, expected: ProteinAtoms):
    """Equal dtypes, shapes and bits (-0.0 is not 0.0), every array read-only."""
    for column in dataclasses.fields(ProteinAtoms):
        a, b = getattr(got, column.name), getattr(expected, column.name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), column.name
        if a.dtype == object:
            assert a.tolist() == b.tolist(), column.name
        else:
            assert a.tobytes() == b.tobytes(), column.name
        assert not a.flags.writeable, column.name


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(entries=protein_entries())
def test_bulk_protein_columns_equal_the_records(entries):
    expected = ProteinAtoms.from_atoms([record(e) for e in entries])
    assert_same_columns(parse_complex(protein_doc(entries)).protein, expected)
    assert_same_columns(model._protein_walk(entries, TABLE), expected)
    # Only a float id or type index sends a valid protein to the walk.
    plain = all(type(e["id"]) is int and type(e["type_index"]) is int for e in entries)
    assert (model._protein_columns(entries, TABLE.n_types) is not None) == plain


ODD_VALUES = [None, "", "x", "donor", [], {}, [1.0, 2.0], [[0, 0, 0]], 1e308, -1e308, 1.7976931348623157e308,
              1e-320, math.nan, math.inf, True, False, 0, 1, 2, -1, 1.5, 3.0, 1e100, -1e100, 1e101,
              2**63, 2**70, 10**100, 10**400, int(1e100) + 1]


@st.composite
def edited_entries(draw):
    """Valid entries with one or two fields, coordinates or hydrogens
    replaced by odd values, deleted, or an entry's id copied to another."""
    entries = draw(protein_entries(floats=False).filter(len))
    for _ in range(draw(st.integers(1, 2))):
        entry = draw(st.sampled_from(entries))
        key = draw(st.sampled_from(["id", "position", "charge", "type_index", "hbond_role",
                                    "hydrophobic", "donor_hydrogens"]))
        kind = draw(st.sampled_from(["set", "delete", "item", "copy-id"]))
        if kind == "delete":
            entry.pop(key, None)
        elif kind == "copy-id":
            entry["id"] = draw(st.sampled_from(entries)).get("id")
        elif kind == "item" and isinstance(entry.get(key), list) and entry[key]:
            entry[key][draw(st.integers(0, len(entry[key]) - 1))] = draw(st.sampled_from(ODD_VALUES))
        else:
            entry[key] = draw(st.sampled_from(ODD_VALUES))
    return entries


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(entries=edited_entries())
def test_bulk_protein_columns_never_disagree_with_the_walk(entries):
    # The bulk pass either steps aside or gives the walk's columns; it never
    # accepts an entry that the walk rejects.
    columns = model._protein_columns(entries, TABLE.n_types)
    try:
        walked = model._protein_walk(entries, TABLE)
    except ComplexFormatError:
        assert columns is None
    else:
        if columns is not None:
            assert_same_columns(columns, walked)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("charge", int(sys.float_info.max) + 1, "protein[0].charge: expected a finite number"),
        ("position", [0, int(1e100) + 1, 0], "protein[0].position[1]: coordinate"),
    ],
    ids=["charge", "position"],
)
def test_protein_bounds_compare_the_json_int(key, value, message):
    # These ints round onto the bound as floats; the check compares the int.
    entries = [{"id": 1, "position": [5.0, 0.0, 0.0], "charge": 0.0, "type_index": 0, key: value}]
    with pytest.raises(ComplexFormatError, match="^" + re.escape(message)):
        parse_complex(protein_doc(entries))


def test_unusual_protein_values_are_normalised():
    entries = [
        {"id": 3.0, "position": (4.0, 0, 0), "charge": np.float64(0.5),
         "type_index": np.int64(1), "hydrophobic": 1.0},
        {"id": 2**70, "position": [0, 4, 0], "charge": 1, "type_index": 0,
         "hbond_role": "donor", "donor_hydrogens": ((0, 3, 0),)},
    ]
    cx = parse_complex(protein_doc(entries))
    assert cx.protein.ids.tolist() == [3, 2**70]
    assert_same_columns(cx.protein, ProteinAtoms.from_atoms([record(e) for e in entries]))
    assert build_grid_graph(cx).n_points == 1


# Where a Python-built document can hold a numpy float.
FLOAT_PATHS = {
    "protein-charge": ("protein", 0, "charge"),
    "ligand-charge": ("ligand", "atoms", 0, "charge"),
    "dielectric": ("dielectric",),
    "grid-point": ("grid_points", 0, "position", 1),
}


def assert_same_records(got: list, expected: list):
    """Records equal field by field: arrays by dtype, shape and bits,
    other fields by type and value."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(y, np.ndarray):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            else:
                assert (type(x), x) == (type(y), y), field.name


@pytest.mark.parametrize("path", FLOAT_PATHS.values(), ids=FLOAT_PATHS.keys())
def test_float32_values_parse_as_their_python_floats(tiny4_doc, path):
    # The suite turns RuntimeWarning into an error, so an overflowing cast
    # of a bound to float32 fails this test.
    value = np.float32(0.3)
    doc, expected_doc = copy.deepcopy(tiny4_doc), copy.deepcopy(tiny4_doc)
    _replace(value, *path)(doc)
    _replace(float(value), *path)(expected_doc)
    got, expected = parse_complex(doc), parse_complex(expected_doc)
    assert_same_columns(got.protein, expected.protein)
    for name in ("ligand_atoms", "ligand_bonds", "grid_points"):
        assert_same_records(getattr(got, name), getattr(expected, name))
    assert (type(got.dielectric), got.dielectric) == (float, expected.dielectric)


@pytest.mark.parametrize(
    "path, where",
    [(FLOAT_PATHS["protein-charge"], "protein[0].charge"),
     (FLOAT_PATHS["ligand-charge"], "ligand.atoms[0].charge")],
    ids=["protein", "ligand"],
)
def test_charge_past_the_float_range_is_rejected(tiny4_doc, path, where):
    doc = copy.deepcopy(tiny4_doc)
    _replace(10**400, *path)(doc)
    with pytest.raises(ComplexFormatError, match="^" + re.escape(f"{where}: expected a finite number")):
        parse_complex(doc)


def _entries():
    return [
        {"id": k, "position": [5.0 + k, 0.0, 0.0], "charge": 0.0, "type_index": 0}
        for k in range(1, 6)
    ]


def _set(k, key, value):
    return lambda entries: entries[k].__setitem__(key, value)


TWO_BAD_ENTRIES = [
    # Within an entry the role is checked first, so the later entry's role
    # would be reported if the walk went by field rather than by entry.
    (_set(1, "charge", float("nan")), _set(3, "hbond_role", "foo"), "protein[1].charge: "),
    (_set(1, "type_index", 7), lambda e: e[2].pop("position"),
     "protein[1]: type_index 7 outside table of size 3"),
    (_set(2, "hbond_role", "donor"), _set(3, "id", "x"),
     "protein[2]: donor role requires at least one explicit hydrogen"),
    # A duplicate id is checked once every entry has passed.
    (_set(1, "id", 1), _set(3, "hydrophobic", 2), "protein[3].hydrophobic: flag must be 0 or 1"),
    # Every entry must be a JSON object before any field is read, as before.
    (_set(1, "hbond_role", "foo"), lambda e: e.__setitem__(3, 7), "protein[3]: expected a JSON object"),
]


@pytest.mark.parametrize("earlier, later, message", TWO_BAD_ENTRIES)
def test_first_bad_protein_entry_is_named(earlier, later, message):
    entries = _entries()
    earlier(entries)
    later(entries)
    with pytest.raises(ComplexFormatError, match="^" + re.escape(message)):
        parse_complex(protein_doc(entries))


def test_complex_input_converts_protein_records(tiny4):
    cx = dataclasses.replace(tiny4, protein=records(tiny4.protein))
    assert isinstance(cx.protein, ProteinAtoms)
    assert_same_columns(cx.protein, tiny4.protein)
    assert len(cx.protein) == 7


def test_take_moves_each_atoms_hydrogens():
    atoms = [
        record({"id": 1, "position": [0, 0, 0], "charge": 0.1, "type_index": 0,
                "hbond_role": "donor", "donor_hydrogens": [[1, 0, 0], [0, 1, 0]]}),
        record({"id": 2, "position": [5, 0, 0], "charge": 0.2, "type_index": 1}),
        record({"id": 3, "position": [0, 5, 0], "charge": 0.3, "type_index": 2,
                "hbond_role": "donor_acceptor", "donor_hydrogens": [[0, 6, 0]]}),
    ]
    columns = ProteinAtoms.from_atoms(atoms)
    for order in ([2, 0], [1, 2, 0], [0, 0], []):
        expected = ProteinAtoms.from_atoms([atoms[k] for k in order])
        assert_same_columns(columns.take(order), expected)
