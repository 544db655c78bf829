"""Coefficient maps as read-only (a, b, value) arrays."""

import re

import numpy as np
import pytest

from qdock import (
    AnnealSchedule,
    Assignment,
    Hyperparameters,
    QuboProblem,
    brute_force,
    build_full,
    energy,
    export_qubo,
    import_qubo,
    one_hot_assignment,
    simulated_anneal,
)
from qdock import qubo
from qdock.anneal import _dense
from qdock.qubo import CoeffMap

from conftest import PLANTED6_PLANTED, TINY4_PLANTED, index_mapping, shuffled_map

UNIT_HP = Hyperparameters(lambdas=(1.0, 1.0, 1.0, 1.0, 1.0), gamma=25.0)


def views(problem):
    return [problem.coeffs, *problem.term_coeffs.values()]


def forbid_key_access(monkeypatch):
    """Make listing a map's entries fail: the arrays are all that is left."""
    monkeypatch.setattr(CoeffMap, "items", lambda *args: pytest.fail("called items"))


def test_pipeline_builds_no_coefficient_dict(tiny4, planted6, tmp_path, monkeypatch):
    forbid_key_access(monkeypatch)
    built = build_full(tiny4, UNIT_HP)
    export_qubo(built, tmp_path / "tiny4.qubo")
    imported = import_qubo(tmp_path / "tiny4.qubo")
    assignment = one_hot_assignment(built, index_mapping(built, TINY4_PLANTED))
    energy(built, assignment)
    energy(imported, assignment)
    brute_force(built)
    planted = build_full(planted6, UNIT_HP)
    simulated_anneal(planted, AnnealSchedule(n_reads=4, n_sweeps=10, seed=3))
    energy(planted, one_hot_assignment(planted, index_mapping(planted, PLANTED6_PLANTED)))
    assert len(built.coeffs) == len(imported.coeffs) == 296
    assert [len(view) for view in views(planted)] == [165, 84, 81, 0, 18, 0, 0, 9]
    assert imported.coeffs == built.coeffs


def test_views_compare_equal_to_plain_dicts_in_both_orders(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    plain = {key: value for key, value in build_full(tiny4, UNIT_HP).coeffs.items()}
    assert problem.coeffs == plain and plain == problem.coeffs
    assert not (problem.coeffs != plain or plain != problem.coeffs)
    changed = dict(plain)
    changed[next(iter(changed))] += 1.0
    assert problem.coeffs != changed and changed != problem.coeffs
    assert problem.coeffs != {**plain, (0, 23): 1.0}
    inert = build_full(tiny4, Hyperparameters()).term_coeffs["el"]
    assert inert == {} and {} == inert
    assert problem.coeffs != list(plain.items())


def test_views_compare_like_dicts_between_views():
    def view(mapping):
        return CoeffMap.wrap(mapping)

    assert view({(0, 1): 2.0, (0, 0): -0.0}) == view({(0, 0): 0.0, (0, 1): 2.0})
    assert view({(0, 1): 2.0}) != view({(0, 1): 3.0})
    assert view({(0, 1): 2.0}) != view({(1, 1): 2.0})
    assert view({(0, 1): 2.0}) != view({(0, 1): 2.0, (1, 1): 2.0})


def test_assembled_views_keep_insertion_order_and_python_types(tiny4):
    problem = build_full(tiny4, UNIT_HP)
    geom, penalty = problem.term_coeffs["geom"], problem.term_coeffs["penalty"]
    keys = [key for key, _ in problem.coeffs.items()]
    assert keys == [key for view in (geom, penalty) for key, _ in view.items()]
    a, b, values = geom.arrays
    assert list(geom.items()) == list(zip(zip(a.tolist(), b.tolist()), values.tolist()))
    for view in views(problem):
        assert all(type(x) is int and type(y) is int and type(v) is float for (x, y), v in view.items())


def test_imported_views_keep_file_order_and_python_types(tmp_path):
    path = tmp_path / "order.qubo"
    path.write_text("p qubo 3 3\n1 2 0.5\n0 0 -1\n0 2 3e0\n", encoding="utf-8")
    problem = import_qubo(path)
    assert problem.term_coeffs["imported"] is problem.coeffs
    assert list(problem.coeffs.items()) == [((1, 2), 0.5), ((0, 0), -1.0), ((0, 2), 3.0)]
    assert all(type(x) is int and type(y) is int and type(v) is float for (x, y), v in problem.coeffs.items())


def test_plain_dicts_are_wrapped_as_arrays():
    coeffs = {(0, 0): 1, (0, 1): -2.5}
    problem = QuboProblem(n_mol=1, n_grid=2, coeffs=coeffs, term_coeffs={"imported": coeffs})
    assert isinstance(problem.coeffs, CoeffMap)
    a, b, values = problem.coeffs.arrays
    assert a.tolist() == [0, 0] and b.tolist() == [0, 1] and values.tolist() == [1.0, -2.5]
    assert len(problem.coeffs) == 2
    h, q_sym = _dense(problem)
    assert h.tolist() == [1.0, 0.0] and q_sym.tolist() == [[0.0, -2.5], [-2.5, 0.0]]
    assert energy(problem, one_hot_assignment(problem, {0: 1})).total == 0.0
    assert QuboProblem(n_mol=1, n_grid=2, coeffs=problem.coeffs, term_coeffs={}).coeffs is problem.coeffs
    numpy_ids = QuboProblem(n_mol=1, n_grid=2, coeffs={(np.int64(0), np.uint8(1)): 1.0}, term_coeffs={})
    assert [key for key, _ in numpy_ids.coeffs.items()] == [(0, 1)]


@pytest.mark.parametrize(
    "key", [(0.5, 1), (-1, 0), (0, 5), (1, 0), (2**70, 1), (0, 1, 1), (0,), (0, 1, 2), "01", 1]
)
def test_hand_built_keys_must_be_variable_pairs(key):
    # Unchecked, 0.5 would truncate to 0, -1 would read the last bit and 5
    # would index past the dense arrays; a key of three ids would be read
    # as its first two, and the ids of the keys after a short one would shift.
    message = f"term 'imported' key {key!r} is not (a, b) with integers 0 <= a <= b < 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        QuboProblem(n_mol=1, n_grid=2, coeffs={}, term_coeffs={"imported": {(0, 0): 1.0, key: 1.0}})


def test_a_bad_key_in_arrays_is_named():
    with pytest.raises(ValueError, match=re.escape("coeffs key (0, 5) is not (a, b)")):
        QuboProblem(n_mol=1, n_grid=2, coeffs=CoeffMap([0, 0], [1, 5], [1.0, 1.0]), term_coeffs={})


def test_a_term_that_is_the_summed_map_is_checked_once(monkeypatch, tmp_path):
    """An imported problem's one term is its `coeffs` map: one check, and a
    bad key in it is named as a key of `coeffs`."""
    checked, check = [], QuboProblem._checked

    def counted(self, label, mapping):
        checked.append(label)
        return check(self, label, mapping)

    monkeypatch.setattr(QuboProblem, "_checked", counted)
    path = tmp_path / "p.qubo"
    path.write_text("p qubo 2 2\n0 0 1.0\n0 1 -2.0\n", encoding="utf-8")
    import_qubo(path)
    assert checked == ["coeffs"]
    coeffs = {(0, 0): 1.0, (0, 1): -2.0}
    problem = QuboProblem(n_mol=1, n_grid=2, coeffs=coeffs, term_coeffs={"imported": coeffs})
    assert problem.term_coeffs["imported"] is problem.coeffs and checked == ["coeffs"] * 2
    shared = CoeffMap([0, 0], [1, 5], [1.0, 1.0])
    with pytest.raises(ValueError, match=re.escape("coeffs key (0, 5) is not (a, b)")):
        QuboProblem(n_mol=1, n_grid=2, coeffs=shared, term_coeffs={"imported": shared})


def test_views_are_read_only_and_share_the_summed_arrays(planted6):
    problem = build_full(planted6, UNIT_HP)
    for view in views(problem):
        for x in view.arrays:
            assert not x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                x[:1] = 0
    # The summed map is the one stored copy of the geom entries and of the
    # penalty keys; the penalty map keeps only its values.
    geom, penalty = problem.term_coeffs["geom"].arrays, problem.term_coeffs["penalty"].arrays
    for k in range(3):
        assert np.shares_memory(geom[k], problem.coeffs.arrays[k])
    for k in range(2):
        assert np.shares_memory(penalty[k], problem.coeffs.arrays[k])
    assert not np.shares_memory(penalty[2], problem.coeffs.arrays[2])
    # The flag is set on the map's own views: the caller's arrays stay writeable.
    a, b, values = np.arange(3), np.arange(3), np.ones(3)
    view = CoeffMap(a, b, values)
    assert np.shares_memory(view.arrays[2], values) and values.flags.writeable
    # Without a zero value, `nonzero` keeps the arrays it was given.
    assert CoeffMap.nonzero(a, b, values).arrays[0].base is a


def test_views_list_entries_without_lookups(tiny4):
    view = build_full(tiny4, UNIT_HP).coeffs
    a, b, values = view.arrays
    keys = list(zip(a.tolist(), b.tolist()))
    plain = dict(zip(keys, values.tolist()))
    assert list(view.items()) == list(plain.items())
    assert dict(view.items()) == plain
    assert view == plain and plain == view


def test_energy_counts_any_nonzero_bit_as_set():
    coeffs = {(0, 1): 4.0, (1, 1): 1.0}
    problem = QuboProblem(n_mol=1, n_grid=2, coeffs=coeffs, term_coeffs={"imported": coeffs})
    assert energy(problem, Assignment(np.array([2, 255], dtype=np.uint8))).total == 5.0


def test_views_list_entries_across_blocks():
    view = shuffled_map(2 * qubo._BLOCK + 7)
    a, b, values = view.arrays
    keys = list(zip(a.tolist(), b.tolist()))
    assert len(view) == 2 * qubo._BLOCK + 7
    assert list(view.items()) == list(zip(keys, values.tolist()))
    assert all(type(x) is int and type(y) is int and type(v) is float for (x, y), v in view.items())


def test_views_compare_across_blocks():
    view = shuffled_map(2 * qubo._BLOCK + 7)
    a, b, values = view.arrays
    shuffled = np.random.default_rng(8).permutation(len(view))
    assert view == CoeffMap(a[shuffled], b[shuffled], values[shuffled])
    # Values compare as floats: -0.0 equals 0.0.
    assert view == CoeffMap(a, b, np.where(values == 0.0, 0.0, values))
    last = np.lexsort((b, a))[-1]  # the last entry of the last block compared
    changed = values.copy()
    changed[last] = np.nextafter(changed[last], np.inf)
    assert view != CoeffMap(a, b, changed)
    moved = b.copy()
    moved[last] += 1
    assert (int(a[last]), int(moved[last])) not in dict(view.items())
    assert view != CoeffMap(a, moved, values)
