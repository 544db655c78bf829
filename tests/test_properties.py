"""Property tests over generated inputs."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdock import (
    AnnealSchedule,
    Assignment,
    Pose,
    QuboProblem,
    brute_force,
    build_full,
    decode,
    energy,
    incremental_delta,
    parse_complex,
    simulated_anneal,
)
from qdock import qubo
from qdock.anneal import _WINDOW, _sample_set, resolve_temperatures

from conftest import recorded_rng_calls
from test_qubo import complex_docs, hyperparameters

coefficient = st.one_of(
    st.integers(-3, 3).map(float),  # small integers make tied minima common
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@st.composite
def qubos(draw, max_vars=12, coefficient=coefficient):
    n = draw(st.integers(1, max_vars))
    keys = [(a, b) for a in range(n) for b in range(a, n)]
    values = draw(st.lists(coefficient, min_size=len(keys), max_size=len(keys)))
    coeffs = {key: value for key, value in zip(keys, values) if value != 0.0}
    return QuboProblem(
        n_mol=1,
        n_grid=n,
        coeffs=coeffs,
        term_coeffs={"imported": dict(coeffs)},
        offset=draw(coefficient),
    )


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(problem=qubos(), seed=st.integers(0, 2**16))
def test_brute_force_is_exhaustive_minimum_and_bounds_annealer(problem, seed):
    n = problem.n_vars
    minimum = min(
        energy(problem, Assignment.from_bits([(s >> k) & 1 for k in range(n)])).total
        for s in range(1 << n)
    )
    best = brute_force(problem).best.energy
    assert best == minimum
    sa = simulated_anneal(problem, AnnealSchedule(n_reads=4, n_sweeps=20, seed=seed))
    assert all(best <= sample.energy for sample in sa)


def reference_temperatures(problem, sched):
    """The geometric ladder from t_initial to t_final, one per sweep."""
    t_initial, t_final = resolve_temperatures(problem, sched)
    steps = max(sched.n_sweeps - 1, 1)
    return [t_initial * (t_final / t_initial) ** (k / steps) for k in range(sched.n_sweeps)]


def reference_matrices(problem):
    """Linear vector h and symmetric coupling matrix Q_sym, placed entry by
    entry from `coeffs.items()` rather than taken from the solver."""
    n = problem.n_vars
    h, q_sym = np.zeros(n), np.zeros((n, n))
    for (a, b), value in problem.coeffs.items():
        if a == b:
            h[a] = value
        else:
            q_sym[a, b] = q_sym[b, a] = value
    return h, q_sym


def reference_anneal(problem, sched):
    """Read-by-read Metropolis annealing that rescores every proposal from
    the variable's full row, consuming each read's RNG stream in the same
    order as `simulated_anneal`; returns each read's best bits."""
    n = problem.n_vars
    h, q_sym = reference_matrices(problem)
    bests = []
    for read in range(sched.n_reads):
        rng = np.random.default_rng([sched.seed, read])
        bits = rng.integers(0, 2, size=n, dtype=np.uint8).astype(float)
        current = math.fsum(
            value for (a, b), value in problem.coeffs.items() if bits[a] and bits[b]
        )
        best, best_bits = current, bits.copy()
        for temperature in reference_temperatures(problem, sched):
            order = rng.permutation(n)
            uniforms = rng.random(n)
            for var, u in zip(order, uniforms):
                delta = (1.0 - 2.0 * bits[var]) * (h[var] + float(q_sym[var] @ bits))
                if u < math.exp(min(0.0, -delta / temperature)):
                    bits[var] = 1.0 - bits[var]
                    current += delta
                    if current < best:
                        best, best_bits = current, bits.copy()
        bests.append(best_bits.astype(np.uint8))
    return bests


def reference_document(problem, sched, rows):
    """The `simulated_anneal` document of these best rows, each scored with
    `energy` and listed by energy, ties in read order."""
    t_initial, t_final = resolve_temperatures(problem, sched)
    samples = []
    for read, bits in enumerate(rows):
        breakdown = energy(problem, Assignment(bits))
        samples.append((breakdown.total, read, bits, breakdown.terms))
    samples.sort(key=lambda item: item[0])
    return {
        "metadata": {
            "solver": "sa",
            "seed": sched.seed,
            "n_reads": sched.n_reads,
            "n_sweeps": sched.n_sweeps,
            "t_initial": t_initial,
            "t_final": t_final,
        },
        "samples": [
            {"bits": Assignment(bits).to_string(), "energy": total, "terms": terms, "read": read}
            for total, read, bits, terms in samples
        ],
    }


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    problem=qubos(coefficient=st.integers(-6, 6).map(float)),
    seed=st.integers(0, 2**16),
    n_reads=st.integers(1, 4),
    n_sweeps=st.integers(1, 12),
)
def test_annealer_matches_row_rescoring_reference(problem, seed, n_reads, n_sweeps):
    # Integer coefficients keep every field, delta and running energy exact,
    # so the incremental local fields must reproduce the reference exactly.
    sched = AnnealSchedule(n_reads=n_reads, n_sweeps=n_sweeps, seed=seed)
    expected = reference_document(problem, sched, reference_anneal(problem, sched))
    assert simulated_anneal(problem, sched).to_dict() == expected


@st.composite
def complexes_with_rows(draw, max_rows=12):
    """A built problem from a generated complex and bit rows over it: random
    rows, and one-hot rows for a few drawn placements (valid when the
    points are distinct)."""
    problem = build_full(parse_complex(draw(complex_docs())), draw(hyperparameters))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = list(rng.integers(0, 2, size=(draw(st.integers(0, max_rows)), problem.n_vars), dtype=np.uint8))
    for _ in range(draw(st.integers(1, 3))):
        points = rng.choice(problem.n_grid, size=problem.n_mol, replace=draw(st.booleans()))
        row = np.zeros((problem.n_mol, problem.n_grid), dtype=np.uint8)
        row[np.arange(problem.n_mol), points] = 1
        rows.append(row.ravel())
    return problem, np.array(rows, dtype=np.uint8)


def active_fsum(cmap, bits):
    """A term from its dict, one entry at a time."""
    return math.fsum(value for (a, b), value in cmap.items() if bits[a] and bits[b])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=complexes_with_rows())
def test_generated_energy_decomposes_into_its_terms(case):
    problem, rows = case
    for bits in rows:
        breakdown = energy(problem, Assignment(bits))
        assert breakdown.total == math.fsum(breakdown.terms.values())
        assert list(breakdown.terms) == list(problem.term_coeffs)
        for name, cmap in problem.term_coeffs.items():
            expected = active_fsum(cmap, bits) + (problem.offset if name == "penalty" else 0.0)
            assert breakdown.terms[name].hex() == expected.hex(), name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=complexes_with_rows(max_rows=30), cells=st.integers(1, 400))
def test_batched_scoring_matches_per_row_energy(case, cells):
    problem, rows = case
    # Small blocks split the rows at every boundary the scorer can meet.
    with mock.patch.object(qubo, "_SCORE_CELLS", cells):
        samples = sorted(_sample_set(problem, rows, {}), key=lambda s: s.read)
    assert [s.read for s in samples] == list(range(len(rows)))
    for sample, bits in zip(samples, rows):
        breakdown = energy(problem, Assignment(bits))
        assert sample.energy.hex() == breakdown.total.hex()
        assert {k: v.hex() for k, v in sample.term_energies.items()} == {
            k: v.hex() for k, v in breakdown.terms.items()
        }


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=complexes_with_rows())
def test_penalty_is_zero_exactly_for_decodable_poses(case):
    problem, rows = case
    for bits in rows:
        assignment = Assignment(bits)
        penalty = energy(problem, assignment).terms["penalty"]
        assert (penalty == 0.0) == isinstance(decode(assignment, problem), Pose)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(
    doc=complex_docs(),
    hp=hyperparameters,
    seed=st.integers(0, 2**16),
    n_reads=st.integers(1, 4),
    n_sweeps=st.integers(1, 8),
)
def test_generated_samples_do_not_depend_on_thread_count(doc, hp, seed, n_reads, n_sweeps):
    problem = build_full(parse_complex(doc), hp)
    sched = AnnealSchedule(n_reads=n_reads, n_sweeps=n_sweeps, seed=seed)
    lone = simulated_anneal(problem, sched, n_threads=1).to_dict()
    assert simulated_anneal(problem, sched, n_threads=2).to_dict() == lone


def local_field_reference(problem, sched, retired_at=None):
    """One read at a time and one proposal at a time: each read draws the
    RNG stream of `simulated_anneal` in the same order and prices a flip of
    v as (1 - 2 x_v) f_v from its local fields f, which only an accepted
    flip updates, f += (1 - 2 x_v) Q_sym[v]. Returns each read's best bits.

    It never retires a read: every read draws and prices every sweep. A
    list passed as `retired_at` gets, per read, the first sweep at whose
    start every -dE/T of the read lies below -800, where SA retires it
    (n_sweeps for a read that never gets there)."""
    n = problem.n_vars
    h, q_sym = reference_matrices(problem)
    bests = []
    for read in range(sched.n_reads):
        rng = np.random.default_rng([sched.seed, read])
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        current = math.fsum(
            value for (a, b), value in problem.coeffs.items() if bits[a] and bits[b]
        )
        fields = h + q_sym[np.flatnonzero(bits)].sum(axis=0)
        best, best_bits = current, bits.copy()
        retired = sched.n_sweeps
        for sweep, temperature in enumerate(reference_temperatures(problem, sched)):
            gains = -((1.0 - 2.0 * bits) * fields) / temperature
            if retired == sched.n_sweeps and n and gains.max() < -800.0:
                retired = sweep
            order = rng.permutation(n)
            uniforms = rng.random(n)
            for var, u in zip(order, uniforms):
                sign = 1.0 - 2.0 * bits[var]
                delta = sign * fields[var]
                if u < np.exp(min(0.0, -delta / temperature)):
                    bits[var] ^= 1
                    fields = fields + sign * q_sym[var]
                    current += delta
                    if current < best:
                        best, best_bits = current, bits.copy()
        bests.append(best_bits)
        if retired_at is not None:
            retired_at.append(retired)
    return bests


def schedule(problem, kind, seed):
    """The auto ladder, a fixed hot or cold temperature, one sweep or one read."""
    hot, cold = resolve_temperatures(problem, AnnealSchedule())
    temperature = {"hot": 10.0 * hot, "cold": cold}.get(kind)
    return AnnealSchedule(
        n_reads=1 if kind == "one-read" else 4,
        n_sweeps=1 if kind == "one-sweep" else 10,
        t_initial=temperature,
        t_final=temperature,
        seed=seed,
    )


def generated_problem(source):
    if source == "qubo":
        return qubos()
    return st.builds(lambda doc, hp: build_full(parse_complex(doc), hp), complex_docs(), hyperparameters)


@pytest.mark.parametrize("kind", ["auto", "hot", "cold", "one-sweep", "one-read"])
@pytest.mark.parametrize("source", ["qubo", "complex"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**16))
def test_annealer_matches_local_field_reference(source, kind, data, seed):
    problem = data.draw(generated_problem(source))
    sched = schedule(problem, kind, seed)
    expected = reference_document(problem, sched, local_field_reference(problem, sched))
    assert simulated_anneal(problem, sched).to_dict() == expected


def odd_field_qubo(n, seed):
    """Sparse integer QUBO: odd linear coefficients in [-3, 3] and about two
    couplings of +-2 per variable. Every local field is odd, so no flip is
    free: a cold read accepts only downhill flips, and fewer of them each
    sweep."""
    rng = np.random.default_rng([n, seed])
    coeffs = {(a, a): float(2 * rng.integers(-2, 2) + 1) for a in range(n)}
    for a in range(n):
        for b in rng.choice(n, 2, replace=False).tolist():
            if a != b:
                coeffs[min(a, b), max(a, b)] = float(2 * rng.choice([-1, 1]))
    return QuboProblem(n_mol=1, n_grid=n, coeffs=coeffs, term_coeffs={"imported": dict(coeffs)})


@pytest.mark.parametrize("n_reads", [1, 4])
@pytest.mark.parametrize("kind", ["hot", "warm", "cold"])
@pytest.mark.parametrize("n", [_WINDOW - 1, _WINDOW, _WINDOW + 1, 2 * _WINDOW + 1])
def test_annealer_matches_local_field_reference_across_window_edges(n, kind, n_reads):
    # Sizes around the look-ahead window: a window that ends before, at or
    # past the last step. At 2 _WINDOW + 1 variables, cold and warm reads
    # (warm accepts an uphill step of 1 with probability e^-4) accept
    # sparsely, so some scan a whole window without an accept and go on
    # to a later one in the same sweep.
    problem = odd_field_qubo(n, n_reads)
    hot, cold = resolve_temperatures(problem, AnnealSchedule())
    temperature = {"hot": 10.0 * hot, "warm": 0.25, "cold": cold}[kind]
    sched = AnnealSchedule(
        n_reads=n_reads, n_sweeps=8, t_initial=temperature, t_final=temperature, seed=n
    )
    expected = reference_document(problem, sched, local_field_reference(problem, sched))
    assert simulated_anneal(problem, sched).to_dict() == expected


def assert_retires_as_reference(problem, sched):
    """SA's document equals the never-retiring reference's, and each read
    draws one permutation and one block of uniforms per sweep up to the
    sweep the reference names for it, and nothing after. Returns those
    sweeps."""
    retired_at = []
    expected = reference_document(problem, sched, local_field_reference(problem, sched, retired_at))
    with recorded_rng_calls() as logs:
        assert simulated_anneal(problem, sched).to_dict() == expected
    assert logs == [["integers"] + ["shuffle", "random"] * sweeps for sweeps in retired_at]
    return retired_at


def test_auto_ladder_retires_generated_reads_at_different_sweeps():
    n_sweeps = 40
    seen = []

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(problem=generated_problem("complex"), seed=st.integers(0, 2**16))
    def check(problem, seed):
        sched = AnnealSchedule(n_reads=6, n_sweeps=n_sweeps, seed=seed)
        seen.append(assert_retires_as_reference(problem, sched))

    check()
    # Some complex has reads that retire at different sweeps, before the last.
    assert any(len(set(sweeps)) > 1 and min(sweeps) < n_sweeps for sweeps in seen)


@pytest.mark.parametrize("n", [_WINDOW - 1, 2 * _WINDOW + 1])
def test_reads_that_all_retire_early_end_the_anneal(n):
    # At the cold temperature every field is odd, so a read at a local
    # minimum has -dE/T <= -1000 for every proposal.
    problem = odd_field_qubo(n, 3)
    _, cold = resolve_temperatures(problem, AnnealSchedule())
    sched = AnnealSchedule(n_reads=4, n_sweeps=30, t_initial=cold, t_final=cold, seed=n)
    assert max(assert_retires_as_reference(problem, sched)) < sched.n_sweeps - 1


@pytest.mark.parametrize(
    "coefficient, t_initial, t_final, retired",
    [
        # -dE/T = -799.8, -799.93, -800.07, -800.2: retired at the third sweep.
        (1.0, 1 / 799.8, 1 / 800.2, 2),
        # -dE/T = -800 exactly on every sweep: never retired.
        (800.0, 1.0, 1.0, 4),
    ],
)
def test_one_variable_retires_once_below_the_threshold(coefficient, t_initial, t_final, retired):
    # A read that starts at 1 flips to 0 in the first sweep; from 0 its one
    # proposal has dE = +coefficient.
    coeffs = {(0, 0): coefficient}
    problem = QuboProblem(n_mol=1, n_grid=1, coeffs=coeffs, term_coeffs={"imported": dict(coeffs)})
    sched = AnnealSchedule(n_reads=4, n_sweeps=4, t_initial=t_initial, t_final=t_final, seed=5)
    assert assert_retires_as_reference(problem, sched) == [retired] * 4


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=complexes_with_rows())
def test_generated_incremental_delta_matches_energy_difference(case):
    problem, rows = case
    for bits in rows:
        before = energy(problem, Assignment(bits))
        for flip in range(problem.n_vars):
            flipped = bits.copy()
            flipped[flip] ^= 1
            after = energy(problem, Assignment(flipped))
            delta = incremental_delta(problem, Assignment(bits), flip)
            # Each total is a rounded fsum of rounded term fsums, so the
            # difference carries a few roundings of the terms' magnitudes.
            magnitude = sum(abs(t) for t in [*before.terms.values(), *after.terms.values()])
            assert abs(delta - (after.total - before.total)) <= 2.0**-50 * (magnitude + abs(delta))
            assert incremental_delta(problem, Assignment(flipped), flip) == -delta
