"""Solvers: seeded annealing, exhaustive search, deltas, external samples."""

import hashlib
import itertools
import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest

from qdock import (
    AnnealSchedule,
    Assignment,
    Hyperparameters,
    QdockError,
    QuboProblem,
    SampleFormatError,
    SampleSet,
    brute_force,
    build_full,
    energy,
    export_qubo,
    import_qubo,
    import_samples,
    incremental_delta,
    one_hot_assignment,
    simulated_anneal,
)
from qdock.anneal import BRUTE_FORCE_MAX_VARS, DENSE_MAX_VARS, _dense, resolve_temperatures

from conftest import PLANTED6_PLANTED, index_mapping, recorded_rng_calls
from test_properties import local_field_reference, reference_document


def toy(coeffs, n_vars, offset=0.0):
    return QuboProblem(
        n_mol=1,
        n_grid=n_vars,
        coeffs=dict(coeffs),
        term_coeffs={"imported": dict(coeffs)},
        offset=offset,
    )


def random_problem(rng, n_vars, density=0.5):
    coeffs = {}
    for a in range(n_vars):
        for b in range(a, n_vars):
            if rng.random() < density:
                coeffs[(a, b)] = float(rng.normal(scale=2.0))
    return toy(coeffs, n_vars, offset=float(rng.normal()))


def exhaustive_minimum(problem):
    best = math.inf
    for bits in itertools.product((0, 1), repeat=problem.n_vars):
        e = energy(problem, Assignment.from_bits(bits)).total
        best = min(best, e)
    return best


# -------------------------------------------------------------- schedules

def test_schedule_defaults_and_validation():
    sched = AnnealSchedule()
    assert sched.n_reads == 100 and sched.n_sweeps == 2000 and sched.seed == 0
    with pytest.raises(ValueError, match="at least 1"):
        AnnealSchedule(n_reads=0)
    with pytest.raises(ValueError, match="at least 1"):
        AnnealSchedule(n_sweeps=0)
    with pytest.raises(ValueError, match="non-negative"):
        AnnealSchedule(seed=-1)
    with pytest.raises(ValueError, match="positive"):
        AnnealSchedule(t_initial=0.0)
    with pytest.raises(ValueError, match=">= t_final"):
        AnnealSchedule(t_initial=1.0, t_final=2.0)
    # Counts and the seed are integers, checked before their ranges.
    for name, value in [
        ("n_sweeps", 2.5), ("n_reads", 2.5), ("n_reads", True), ("seed", 1.5),
        ("n_reads", "3"), ("n_sweeps", 0.0), ("seed", False),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            AnnealSchedule(**{name: value})
    assert AnnealSchedule(n_reads=np.int64(3), n_sweeps=np.int32(4), seed=np.uint8(5)).n_sweeps == 4
    # Temperatures are finite positive reals, checked before their order.
    for name in ("t_initial", "t_final"):
        for value in [math.inf, math.nan, True, "3", 0.0, -1.0, 10**400]:
            with pytest.raises(ValueError, match=rf"^{name} must be a finite positive number, got "):
                AnnealSchedule(**{name: value})
    with pytest.raises(ValueError, match=r"^t_initial must be a finite positive number, got inf$"):
        AnnealSchedule(t_initial=math.inf, t_final=2.0)
    sched = AnnealSchedule(t_initial=np.float32(2.0), t_final=1)
    assert resolve_temperatures(toy({(0, 0): 1.0}, 1), sched) == (2.0, 1.0)


def test_temperature_resolution():
    problem = toy({(0, 0): -4.0, (0, 1): 0.002, (1, 1): 1.0}, 2)
    t_init, t_final = resolve_temperatures(problem, AnnealSchedule())
    assert t_init == 4.0
    assert t_final == max(1e-3 * 0.002, 1e-6)
    t_init, t_final = resolve_temperatures(
        problem, AnnealSchedule(t_initial=7.0, t_final=0.5)
    )
    assert (t_init, t_final) == (7.0, 0.5)
    # No coefficients at all: safe defaults.
    assert resolve_temperatures(toy({}, 1), AnnealSchedule()) == (1.0, 1e-6)


# ---------------------------------------------------------------- trivial

def test_single_negative_variable_always_set():
    problem = toy({(0, 0): -1.0}, 1)
    result = simulated_anneal(problem, AnnealSchedule(n_reads=10, n_sweeps=20))
    assert len(result) == 10
    for sample in result:
        assert sample.assignment.to_string() == "1"
        assert sample.energy == -1.0


def test_zero_matrix_reports_offset():
    problem = toy({}, 3, offset=3.0)
    result = simulated_anneal(problem, AnnealSchedule(n_reads=4, n_sweeps=10))
    for sample in result:
        assert sample.energy == 3.0


def test_two_variable_coupling_ground_state():
    problem = toy({(0, 0): 1.0, (1, 1): 1.0, (0, 1): -3.0}, 2)
    exact = brute_force(problem)
    assert exact.best.assignment.to_string() == "11"
    assert exact.best.energy == -1.0
    sa = simulated_anneal(problem, AnnealSchedule(n_reads=10, n_sweeps=50))
    assert sa.best.energy == -1.0


def test_empty_problem():
    problem = toy({}, 0, offset=2.5)
    exact = brute_force(problem)
    assert len(exact) == 1
    assert exact.best.energy == 2.5
    assert exact.best.assignment.to_string() == ""
    sa = simulated_anneal(problem, AnnealSchedule(n_reads=3, n_sweeps=5))
    assert [sample.assignment.to_string() for sample in sa] == [""] * 3
    assert sa.best.energy == 2.5


def test_brute_force_variable_cap():
    problem = toy({}, BRUTE_FORCE_MAX_VARS + 1)
    with pytest.raises(ValueError, match="at most 24 variables"):
        brute_force(problem)


# ------------------------------------------------------------ brute force

def test_brute_force_matches_exhaustive_oracle():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = int(rng.integers(1, 9))
        problem = random_problem(rng, n)
        result = brute_force(problem)
        expected = exhaustive_minimum(problem)
        assert result.best.energy == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # Listing is ascending and internally consistent.
        energies = [s.energy for s in result]
        assert energies == sorted(energies)
        for sample in result:
            assert sample.energy == energy(problem, sample.assignment).total


def test_brute_force_keep_truncates_listing(planted6):
    # Built from a complex, the listing holds every valid placement (120).
    problem = build_full(planted6, Hyperparameters(gamma=5.0))
    assert len(brute_force(problem, keep=200)) > 5
    assert len(brute_force(problem, keep=5)) == 5
    assert len(brute_force(problem, keep=1)) == 1


def test_brute_force_lists_placements_only_with_decode_context(planted6, tmp_path):
    built = build_full(planted6, Hyperparameters(gamma=5.0))
    export_qubo(built, tmp_path / "planted6.qubo")
    imported = import_qubo(tmp_path / "planted6.qubo")
    # 6 * 5 * 4 placements from the complex; the file's single minimum alone.
    assert len(brute_force(built, keep=1000)) == 120
    listed = brute_force(imported, keep=1000)
    assert len(listed) == 1
    assert listed.best.energy == pytest.approx(brute_force(built).best.energy - built.offset)


def state_index(assignment):
    return sum(int(bit) << k for k, bit in enumerate(assignment.bits))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 13])
def test_split_scan_finds_every_tied_minimum(n):
    """n // 2 low bits and the rest high: odd, even and empty low halves.

    Small integer coefficients make tied minima common, so the listing
    must hold every state that reaches the exhaustive minimum.
    """
    rng = np.random.default_rng(500 + n)
    coeffs = {
        (a, b): float(rng.integers(-3, 4))
        for a in range(n)
        for b in range(a, n)
        if rng.random() < 0.6
    }
    problem = toy(coeffs, n, offset=0.5)
    totals = [
        energy(problem, Assignment.from_bits([(s >> k) & 1 for k in range(n)])).total
        for s in range(1 << n)
    ]
    minimum = min(totals)
    tied = {s for s, total in enumerate(totals) if total == minimum}

    result = brute_force(problem)
    assert result.best.energy == minimum
    listed = {state_index(sample.assignment) for sample in result}
    if len(tied) <= 32:
        assert tied <= listed


def test_split_scan_all_tied_lists_lowest_state_indices():
    result = brute_force(toy({}, 17))
    assert [state_index(sample.assignment) for sample in result] == list(range(32))
    assert all(sample.energy == 0.0 for sample in result)


def test_brute_force_lower_bounds_annealer(tiny4):
    problem = build_full(tiny4, Hyperparameters(lambdas=(1.0,) * 5, gamma=25.0))
    exact = brute_force(problem)
    sa = simulated_anneal(problem, AnnealSchedule(n_reads=8, n_sweeps=200, seed=1))
    tol = 1e-9 * max(1.0, abs(exact.best.energy))
    for sample in sa:
        assert exact.best.energy <= sample.energy + tol


# ------------------------------------------------------------ determinism

def test_annealer_is_deterministic(planted6):
    problem = build_full(planted6, Hyperparameters(lambdas=(0, 0, 0, 0, 0.05), gamma=5.0))
    sched = AnnealSchedule(n_reads=6, n_sweeps=80, seed=3)
    first = simulated_anneal(problem, sched)
    second = simulated_anneal(problem, sched)
    assert first.to_dict() == second.to_dict()
    assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())


def test_thread_count_does_not_change_samples(planted6):
    problem = build_full(planted6, Hyperparameters(lambdas=(0, 0, 0, 0, 0.05), gamma=5.0))
    sched = AnnealSchedule(n_reads=7, n_sweeps=60, seed=11)
    lone = simulated_anneal(problem, sched, n_threads=1)
    multi = simulated_anneal(problem, sched, n_threads=4)
    assert lone.to_dict() == multi.to_dict()


def test_reads_do_not_depend_on_batch_size(planted6):
    built = build_full(planted6, Hyperparameters(lambdas=(0, 0, 0, 0, 0.05), gamma=5.0))
    for problem in (built, random_problem(np.random.default_rng(17), 15)):
        small = simulated_anneal(problem, AnnealSchedule(n_reads=3, n_sweeps=40, seed=21))
        large = simulated_anneal(problem, AnnealSchedule(n_reads=9, n_sweeps=40, seed=21))
        by_read = {sample.read: sample.to_dict() for sample in large}
        assert sorted(sample.read for sample in small) == [0, 1, 2]
        assert all(sample.to_dict() == by_read[sample.read] for sample in small)


def test_retired_reads_draw_nothing_more(planted6):
    # Each read is wrapped from its first draw. A read retires at the start
    # of the first sweep in which every proposal has -dE/T below -800; from
    # then on it makes no shuffle or random call, and the samples are the
    # never-retiring reference's.
    problem = build_full(planted6, Hyperparameters(lambdas=(0, 0, 0, 0, 0.05), gamma=5.0))
    sched = AnnealSchedule(n_reads=8, n_sweeps=200, seed=3)
    retired_at = []
    expected = reference_document(problem, sched, local_field_reference(problem, sched, retired_at))
    with recorded_rng_calls() as logs:
        assert simulated_anneal(problem, sched).to_dict() == expected
    assert len(logs) == sched.n_reads
    for log, sweeps in zip(logs, retired_at):
        assert log == ["integers"] + ["shuffle", "random"] * sweeps
    assert max(retired_at) < sched.n_sweeps and len(set(retired_at)) > 1


def test_seed_changes_exploration(planted6):
    problem = build_full(planted6, Hyperparameters(gamma=5.0))
    a = simulated_anneal(problem, AnnealSchedule(n_reads=3, n_sweeps=5, seed=0))
    b = simulated_anneal(problem, AnnealSchedule(n_reads=3, n_sweeps=5, seed=1))
    bits_a = sorted(s.assignment.to_string() for s in a)
    bits_b = sorted(s.assignment.to_string() for s in b)
    assert bits_a != bits_b


def test_stored_energies_match_recomputation(tiny4):
    problem = build_full(tiny4, Hyperparameters(lambdas=(1.0,) * 5, gamma=25.0))
    result = simulated_anneal(problem, AnnealSchedule(n_reads=5, n_sweeps=100, seed=2))
    for sample in result:
        again = energy(problem, sample.assignment)
        assert sample.energy == again.total
        assert sample.term_energies == again.terms


def test_more_sweeps_do_not_hurt_median_quality(planted6):
    problem = build_full(planted6, Hyperparameters(lambdas=(0, 0, 0, 0, 0.05), gamma=5.0))

    def median_best(n_sweeps):
        bests = []
        for seed in range(20):
            result = simulated_anneal(
                problem, AnnealSchedule(n_reads=3, n_sweeps=n_sweeps, seed=seed)
            )
            bests.append(result.best.energy)
        return statistics.median(bests)

    assert median_best(2000) <= median_best(50)


def test_solve_leaves_the_problem_as_it_was():
    """A solve builds its n x n matrix and drops it: the problem holds no
    more afterwards than before (the matrix alone is 32 MB here)."""
    n = 2000
    coeffs = {(v, v): -1.0 for v in range(n)}
    coeffs.update({(v, v + 1): 2.0 for v in range(n - 1)})
    problem = toy(coeffs, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = simulated_anneal(problem, AnnealSchedule(n_reads=1, n_sweeps=1))
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result) == 1
    assert after - before < 1 << 20


# -------------------------------------------------------- incremental delta

def test_incremental_delta_matches_energy_difference(tiny4, planted6):
    rng = np.random.default_rng(73)
    built = build_full(tiny4, Hyperparameters(lambdas=(0.1,) * 5))
    cases = []
    for case in range(35):
        # 25 random toy problems, then 10 random states of the built tiny4.
        problem = random_problem(rng, int(rng.integers(1, 10))) if case < 25 else built
        n = problem.n_vars
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        cases.append((problem, bits, int(rng.integers(0, n))))
    # A set bit stored as 2 is set, as `energy` counts it; flipping clears it.
    problem = build_full(planted6, Hyperparameters(lambdas=(0.1,) * 5))
    bits = one_hot_assignment(problem, index_mapping(problem, PLANTED6_PLANTED)).bits
    flip = int(bits.argmax())
    bits[flip] = 2
    cases.append((problem, bits, flip))
    for problem, bits, flip in cases:
        assignment = Assignment(bits)
        delta = incremental_delta(problem, assignment, flip)
        flipped = bits.copy()
        flipped[flip] = not bits[flip]
        direct = (
            energy(problem, Assignment(flipped)).total
            - energy(problem, assignment).total
        )
        assert delta == pytest.approx(direct, rel=1e-10, abs=1e-10)
        # Flipping back negates the delta exactly.
        assert incremental_delta(problem, Assignment(flipped), flip) == -delta


def test_incremental_delta_isolated_variable():
    problem = toy({(0, 0): 2.5}, 1)
    assert incremental_delta(problem, Assignment.from_string("0"), 0) == 2.5
    assert incremental_delta(problem, Assignment.from_string("1"), 0) == -2.5


def test_incremental_delta_past_the_dense_limit():
    # A few dyadic entries, so every energy difference is exact.
    n = DENSE_MAX_VARS + 1
    problem = toy({(0, 0): 1.5, (0, n - 1): -4.0, (7, n - 1): 0.25, (n - 1, n - 1): 2.0,
                   (3, 7): 0.125}, n)
    with pytest.raises(QdockError, match="DENSE_MAX_VARS"):
        _dense(problem)
    bits = np.zeros(n, dtype=np.uint8)
    bits[[0, 7]] = 1
    for flip in (0, 3, 5, 7, n - 1):
        flipped = bits.copy()
        flipped[flip] ^= 1
        direct = energy(problem, Assignment(flipped)).total - energy(problem, Assignment(bits)).total
        assert incremental_delta(problem, Assignment(bits), flip) == direct


def test_incremental_delta_input_validation(tiny4):
    problem = build_full(tiny4, Hyperparameters(gamma=1.0))
    zero = Assignment.from_bits(np.zeros(problem.n_vars, dtype=np.uint8))
    with pytest.raises(ValueError, match="out of range"):
        incremental_delta(problem, zero, problem.n_vars)
    with pytest.raises(ValueError, match="bits"):
        incremental_delta(problem, Assignment.from_string("01"), 0)
    for flip in (1.5, True, "1"):
        with pytest.raises(ValueError, match="out of range: not an integer"):
            incremental_delta(problem, zero, flip)
    assert incremental_delta(problem, zero, np.int64(1)) == incremental_delta(problem, zero, 1)


# ---------------------------------------------------------------- samples

def test_sample_set_sorted_and_best():
    problem = toy({(0, 0): -1.0, (1, 1): 4.0}, 2)
    result = brute_force(problem)
    energies = [s.energy for s in result]
    assert energies == sorted(energies)
    assert result.best is result.samples[0]
    assert "wall_time" not in result.to_dict()
    with pytest.raises(ValueError, match="empty"):
        SampleSet(samples=[]).best


def test_import_samples_scores_and_sorts(tmp_path):
    problem = toy({(0, 0): -1.0, (1, 1): 4.0, (0, 1): 0.5}, 2)
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(["00", "11", "10"]))
    result = import_samples(problem, path)
    assert [s.assignment.to_string() for s in result] == ["10", "00", "11"]
    assert result.best.energy == -1.0
    assert result.metadata["solver"] == "external"
    for sample in result:
        assert sample.energy == energy(problem, sample.assignment).total


def test_import_samples_rejects_malformed(tmp_path):
    problem = toy({(0, 0): -1.0}, 2)

    def attempt(payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        return import_samples(problem, path)

    with pytest.raises(SampleFormatError, match="not found"):
        import_samples(problem, tmp_path / "absent.json")
    with pytest.raises(SampleFormatError, match="JSON parse error at line 1, column 2"):
        attempt("{nope")
    with pytest.raises(SampleFormatError, match="expected a JSON array"):
        attempt('{"bits": "01"}')
    with pytest.raises(SampleFormatError, match="not a bitstring"):
        attempt('["0x"]')
    with pytest.raises(SampleFormatError, match="not a bitstring"):
        attempt("[7]")
    with pytest.raises(SampleFormatError, match="has 3 bits, problem has 2"):
        attempt('["010"]')
    with pytest.raises(SampleFormatError, match="no samples"):
        attempt("[]")


def test_annealer_metadata_records_schedule(planted6):
    problem = build_full(planted6, Hyperparameters(gamma=5.0))
    result = simulated_anneal(problem, AnnealSchedule(n_reads=2, n_sweeps=5, seed=9))
    meta = result.metadata
    assert meta["solver"] == "sa"
    assert meta["seed"] == 9
    assert meta["n_reads"] == 2 and meta["n_sweeps"] == 5
    assert meta["t_initial"] >= meta["t_final"] > 0


# ----------------------------------------------------------- recorded output

SOLVER_HP = {
    "gamma5": Hyperparameters(gamma=5.0),
    "weak": Hyperparameters(lambdas=(1.0,) * 5, gamma=0.1),
}

# SHA-256 of the sorted-key JSON of brute force at keep 32 and 5, SA
# (8 x 60, seed 11) and the imported samples, recorded before the three
# solvers shared one scorer. The digests pin every `read` rank and the
# listing order of brute-force candidates: at "weak" the built fixtures'
# best state is invalid, so the valid placements follow the window hits.
# An imported file has no decode context, so its exact listing is the
# window hits alone: the round-trip cases' exact, keep-5 and external
# digests were re-recorded when brute force stopped listing its
# single-bit states as placements; their SA digests did not move.
SOLVER_DIGESTS = {
    ("planted6", "gamma5"): (
        "438d7dfa5bda3cb6081892d45fc0064334f96a6255c4c0d830c7c8b14b7e387f",
        "27f089cbd4e0f2245551f9bd08f2a17008e756dac6d723af7eb63e0199f25653",
        "dce7f3c2660620537f96e67ea21f830a9263ea1f86290d7c6bc050a316d4efdd",
        "13700b5c7400a665c191fea05c17e5725f4d7d267528b33b7a666412dc95f69a",
    ),
    ("planted6", "weak"): (
        "3440b20bc5d63a0495bdd1ead6464d89de09ab82b60f6af9a0a1eb9783947489",
        "f732ea3aa26f3ae5691c76305d28884d6e6031b8965663120f088e2f110f7f8d",
        "51f7def17c16b466daadbf7f60accbbe97aaa721d499131f24e213be1ff022dd",
        "66296526ac7f9726a6485941434c9c30432bfe9219a3a5c9c35964e9c7a4bd37",
    ),
    ("planted6-round-trip", "gamma5"): (
        "186e2f976779c7269170b096f053f1fc3b83d2ee5214725d5d3a18795b210e39",
        "186e2f976779c7269170b096f053f1fc3b83d2ee5214725d5d3a18795b210e39",
        "fe1c68a264c07b74359474daf119922b764033db4943fef0646cecb28bb40acc",
        "f445c27d77417c97e75ae509c39b65696e3fc393917e7f96810473d74b47461c",
    ),
    ("planted6-round-trip", "weak"): (
        "fb091b9b01afa727a696b4dbc7ff0eab58479aa123c1dad48fd923a8df2ecf62",
        "fb091b9b01afa727a696b4dbc7ff0eab58479aa123c1dad48fd923a8df2ecf62",
        "cc824fa660c01a4c759b060578cb6a95a1e94a0a4a847a46355e4441d965a8d3",
        "70dde29cbdd440c478e6b252352bb22eefa2d0fff067d5cf673b97dba51597a0",
    ),
    ("tiny4", "gamma5"): (
        "6e22870b58e8c92ed23d0856e5f05846262a94a46aa34e5c37287914890858aa",
        "17fcb8599049b7038238a705fa073d15c5f4f2cc9405e99a35ceee79cd7317d6",
        "9ae01f8604163b1ac692f9a30fcf9464f1ec220effc2507e04591e735c384b48",
        "62f2bbacfdb92e16e5be0ac933cbea98ed5d353165ce67aeed3cb66329bf1499",
    ),
    ("tiny4", "weak"): (
        "af7926c7dd075b41d5d136f0e133d45d7ac18fd38d8bbded8c87f680c276393f",
        "4d3ef1d59a20381c3e553d045e676f640febdc32f6f9429d4eff215fb36e0747",
        "ba5ad972b30ef8d74fa251b5dd35cc514f28392bcee3fdd7ede27a0854e8be1b",
        "ef019925cf08d3658422de8d62829560d3f00a49f213891407497def8717cba2",
    ),
}


def solver_document_digests(problem, tmp_path):
    exact = brute_force(problem)
    sa = simulated_anneal(problem, AnnealSchedule(n_reads=8, n_sweeps=60, seed=11))
    path = tmp_path / "samples.json"
    path.write_text(json.dumps([s.assignment.to_string() for s in (*sa, *exact)]))
    external = import_samples(problem, path).to_dict()
    del external["metadata"]["source"]
    documents = (exact.to_dict(), brute_force(problem, keep=5).to_dict(), sa.to_dict(), external)
    return tuple(
        hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() for doc in documents
    )


@pytest.mark.parametrize("case, hp_name", sorted(SOLVER_DIGESTS))
def test_solver_documents_match_recorded_digest(case, hp_name, request, tmp_path):
    fixture_name, _, round_trip = case.partition("-")
    problem = build_full(request.getfixturevalue(fixture_name), SOLVER_HP[hp_name])
    if round_trip:
        export_qubo(problem, tmp_path / "problem.qubo")
        problem = import_qubo(tmp_path / "problem.qubo")
    elif hp_name == "weak":
        assert brute_force(problem).best.term_energies["penalty"] > 0.0
    assert solver_document_digests(problem, tmp_path) == SOLVER_DIGESTS[(case, hp_name)]
