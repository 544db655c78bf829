"""Property tests over generated inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdock import (
    AnnealSchedule,
    Assignment,
    QuboProblem,
    brute_force,
    energy,
    simulated_anneal,
)
from qdock.anneal import resolve_temperatures

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


def reference_anneal(problem, sched):
    """Read-by-read Metropolis annealing that rescores every proposal from
    the variable's full row, consuming each read's RNG stream in the same
    order as `simulated_anneal`; returns each read's best bits."""
    n = problem.n_vars
    h, q_sym = problem.dense
    t_initial, t_final = resolve_temperatures(problem, sched)
    if sched.n_sweeps == 1:
        temps = [t_initial]
    else:
        temps = [
            t_initial * (t_final / t_initial) ** (k / (sched.n_sweeps - 1))
            for k in range(sched.n_sweeps)
        ]
    bests = []
    for read in range(sched.n_reads):
        rng = np.random.default_rng([sched.seed, read])
        bits = rng.integers(0, 2, size=n, dtype=np.uint8).astype(float)
        current = math.fsum(
            value for (a, b), value in problem.coeffs.items() if bits[a] and bits[b]
        )
        best, best_bits = current, bits.copy()
        for temperature in temps:
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
    samples = []
    for read, bits in enumerate(reference_anneal(problem, sched)):
        breakdown = energy(problem, Assignment(bits))
        samples.append((breakdown.total, read, bits, breakdown.terms))
    samples.sort(key=lambda item: item[0])
    result = simulated_anneal(problem, sched).to_dict()
    assert result["samples"] == [
        {"bits": Assignment(bits).to_string(), "energy": total, "terms": terms, "read": read}
        for total, read, bits, terms in samples
    ]
