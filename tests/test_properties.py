"""Property tests over generated inputs."""

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

coefficient = st.one_of(
    st.integers(-3, 3).map(float),  # small integers make tied minima common
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False, allow_subnormal=False),
)


@st.composite
def qubos(draw, max_vars=12):
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
