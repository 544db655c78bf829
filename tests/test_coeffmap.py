"""Coefficient maps as read-only views over (a, b, value) arrays."""

import time

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
from qdock.qubo import CoeffMap

from conftest import PLANTED6_PLANTED, TINY4_PLANTED, index_mapping, shuffled_map

UNIT_HP = Hyperparameters(lambdas=(1.0, 1.0, 1.0, 1.0, 1.0), gamma=25.0)


def views(problem):
    return [problem.coeffs, *problem.term_coeffs.values()]


def forbid_key_access(monkeypatch):
    """Make every per-key read of a view fail: the arrays are all that is left."""
    for name in ("__iter__", "__getitem__", "items", "values"):
        monkeypatch.setattr(CoeffMap, name, lambda *args, name=name: pytest.fail(f"called {name}"))


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
    assert list(problem.coeffs) == list(geom) + list(penalty)
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
    assert problem.coeffs[(0, 0)] == 1 and problem.coeffs.get((1, 1)) is None
    assert (0, 1) in problem.coeffs and len(problem.coeffs) == 2
    h, q_sym = problem.dense
    assert h.tolist() == [1.0, 0.0] and q_sym.tolist() == [[0.0, -2.5], [-2.5, 0.0]]
    assert energy(problem, one_hot_assignment(problem, {0: 1})).total == 0.0
    assert QuboProblem(n_mol=1, n_grid=2, coeffs=problem.coeffs, term_coeffs={}).coeffs is problem.coeffs


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


def test_views_list_entries_without_lookups(tiny4, monkeypatch):
    view = build_full(tiny4, UNIT_HP).coeffs
    a, b, values = view.arrays
    keys = list(zip(a.tolist(), b.tolist()))
    plain = dict(zip(keys, values.tolist()))
    # dict() reads a mapping that is not a dict through [], one mask per key.
    assert dict(view) == plain
    monkeypatch.setattr(CoeffMap, "__getitem__", lambda self, key: pytest.fail("looked a key up"))
    assert list(view.keys()) == keys and list(view) == keys
    assert list(view.items()) == list(plain.items())
    assert list(view.values()) == list(plain.values())
    assert values[5] in view.values() and 1e300 not in view.values()
    assert dict(view.items()) == plain
    assert view == plain and plain == view


def test_lookups_behave_like_a_dict():
    plain = {(0, 0): 1.0, (0, 1): -2.5, (3, 7): 0.25}
    view = CoeffMap.wrap(plain)
    present = [(0, 1), (np.int64(0), np.int64(1)), (np.int32(3), 7), (np.intp(0), 0.0)]
    absent = [(1, 0), (7, 3), (0, 2), (np.int64(9), np.int64(9)), (0.5, 1), (0, 1, 2), "ab", None, 7]
    for key in present + absent:
        assert (key in view) == (key in plain)
        assert view.get(key) == plain.get(key) and view.get(key, "x") == plain.get(key, "x")
        if key in plain:
            assert view[key] == plain[key] and type(view[key]) is float
        else:
            with pytest.raises(KeyError):
                view[key]
    for unhashable in ([0, 1], (np.array(0), 1)):
        with pytest.raises(TypeError):
            unhashable in view
        with pytest.raises(TypeError):
            view.get(unhashable)
    assert (0, 0) not in CoeffMap.wrap({}) and CoeffMap.wrap({}).get((0, 0)) is None
    # Two entries: a key made of two pairs must not match them elementwise.
    assert ((0, 1), (0, 1)) not in CoeffMap.wrap({(0, 0): 1.0, (1, 1): 2.0})


def test_dict_of_a_large_view_is_not_quadratic():
    # dict() looks every key up; 200,000 masks over 200,000 entries would
    # take minutes, and the key index answers them in about a second.
    k = np.random.default_rng(5).permutation(200_000)
    a = k // 400
    view = CoeffMap(a, a + k % 400, np.sqrt(k))
    started = time.perf_counter()
    plain = dict(view)
    assert time.perf_counter() - started < 10.0
    assert plain == dict(view.items()) and len(plain) == 200_000


def test_integer_lookups_past_the_id_range_miss():
    view = CoeffMap.wrap({(0, 0): 1.0, (2, 5): -1.0})
    for key in [(2**70, 0), (0, -(2**70)), (np.uint64(2**64 - 1), 5)]:
        assert key not in view and view.get(key) is None
    assert view[(np.int8(2), np.uint8(5))] == -1.0 and view[(False, False)] == 1.0


def test_energy_counts_any_nonzero_bit_as_set():
    coeffs = {(0, 1): 4.0, (1, 1): 1.0}
    problem = QuboProblem(n_mol=1, n_grid=2, coeffs=coeffs, term_coeffs={"imported": coeffs})
    assert energy(problem, Assignment(np.array([2, 255], dtype=np.uint8))).total == 5.0


def test_views_list_entries_across_blocks():
    view = shuffled_map(2 * qubo._BLOCK + 7)
    a, b, values = view.arrays
    keys = list(zip(a.tolist(), b.tolist()))
    assert len(view) == 2 * qubo._BLOCK + 7
    assert list(view) == keys and list(view.keys()) == keys
    assert list(view.items()) == list(zip(keys, values.tolist()))
    assert list(view.values()) == values.tolist()
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
    assert (a[last], moved[last]) not in view
    assert view != CoeffMap(a, moved, values)
