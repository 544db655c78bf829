"""Solvers: seeded annealing, exhaustive search, deltas, external samples."""

import itertools
import json
import math
import statistics

import numpy as np
import pytest

from qdock import (
    AnnealSchedule,
    Assignment,
    Hyperparameters,
    QuboProblem,
    SampleFormatError,
    SampleSet,
    brute_force,
    build_full,
    energy,
    import_samples,
    incremental_delta,
    simulated_anneal,
)
from qdock.anneal import BRUTE_FORCE_MAX_VARS, resolve_temperatures


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


def test_brute_force_keep_truncates_listing():
    rng = np.random.default_rng(71)
    problem = random_problem(rng, 8, density=0.8)
    assert len(brute_force(problem, keep=5)) == 5
    assert len(brute_force(problem, keep=1)) == 1


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


# -------------------------------------------------------- incremental delta

def test_incremental_delta_matches_energy_difference(tiny4):
    rng = np.random.default_rng(73)
    built = build_full(tiny4, Hyperparameters(lambdas=(0.1,) * 5))
    for case in range(35):
        # 25 random toy problems, then 10 random states of the built tiny4.
        problem = random_problem(rng, int(rng.integers(1, 10))) if case < 25 else built
        n = problem.n_vars
        bits = rng.integers(0, 2, size=n).astype(np.uint8)
        flip = int(rng.integers(0, n))
        assignment = Assignment(bits)
        delta = incremental_delta(problem, assignment, flip)
        flipped = bits.copy()
        flipped[flip] ^= 1
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


def test_incremental_delta_input_validation(tiny4):
    problem = build_full(tiny4, Hyperparameters(gamma=1.0))
    zero = Assignment.from_bits(np.zeros(problem.n_vars, dtype=np.uint8))
    with pytest.raises(ValueError, match="out of range"):
        incremental_delta(problem, zero, problem.n_vars)
    with pytest.raises(ValueError, match="bits"):
        incremental_delta(problem, Assignment.from_string("01"), 0)


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
    with pytest.raises(SampleFormatError, match="invalid JSON"):
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
