"""Parsing, validation, and loading of complex documents."""

import copy
import json
import math
import re

import numpy as np
import pytest

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
from qdock.model import COULOMB_CONSTANT, HBondRole


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
    assert cx.protein == []
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
    role = cx.protein[0].hbond_role
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
