"""The bounded split scan: `ExhaustiveScan.candidates` scores only the
high-half rows that can reach the window, and must list exactly what the
full 2^n table lists."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qdock import (
    Hyperparameters,
    QuboProblem,
    brute_force,
    build_full,
    export_qubo,
    import_qubo,
    parse_complex,
)
from qdock import anneal
from qdock.anneal import ExhaustiveScan, _dense, cross_rows, window_scale

from test_dockeval import mismatched_complex
from test_qubo import complex_docs
from test_tuner_exact import inert_chain


def full_scan_candidates(scan, h, scale):
    """The listing from the whole (2^n_hi, 2^n_lo) table: the window hits
    by state index (the lowest 65,536 beyond that many), then the
    placements that are not hits."""
    n_lo = scan.bits_lo.shape[1]
    energy_lo = scan.bits_lo @ h[:n_lo] + scan.quad_lo
    energy_hi = scan.bits_hi @ h[n_lo:] + scan.quad_hi
    scanned = scan.bits_hi @ scan.cross.T
    scanned += energy_hi[:, None]
    scanned += energy_lo[None, :]
    scanned = scanned.ravel()
    window = scanned.min() + 1e-9 * max(scale, 1.0)
    hits = np.flatnonzero(scanned <= window)
    if len(hits) > 65536:
        hits = np.sort(hits[np.argsort(scanned[hits], kind="stable")[:65536]])
    return np.concatenate([hits, scan.placements[~np.isin(scan.placements, hits)]])


def assert_lists_full_scan(problem):
    """`candidates` equals the full-table listing, element and dtype; returns
    the scan, its listing and the listed states' placement ranks."""
    scan = ExhaustiveScan.of(problem)
    scale = window_scale(problem.coeffs.arrays[2], problem.offset)
    h = _dense(problem)[0]
    assert scan.scale(h) == scale
    listed, ranks = scan.candidates(h)
    expected = full_scan_candidates(scan, h, scale)
    assert listed.dtype == expected.dtype
    assert np.array_equal(listed, expected)
    return scan, listed, ranks


def invalid_hits(scan, listed):
    return int((~np.isin(listed, scan.placements)).sum())


def toy(coeffs, n_vars):
    return QuboProblem(n_mol=1, n_grid=n_vars, coeffs=coeffs, term_coeffs={"imported": coeffs})


scan_complexes = complex_docs().filter(
    lambda doc: len(doc["ligand"]["atoms"]) * len(doc["grid_points"]) <= 20
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    doc=scan_complexes,
    lambdas=st.tuples(*[st.sampled_from([0.0, 0.2, 5.0, 1e3])] * 5),
    gamma=st.sampled_from([None, 1e-6, 0.1, 5.0, 100.0]),
)
def test_bounded_scan_lists_what_the_full_table_lists(doc, lambdas, gamma):
    problem = build_full(parse_complex(doc), Hyperparameters(lambdas=lambdas, gamma=gamma))
    scan, listed, ranks = assert_lists_full_scan(problem)
    placed = ranks >= 0
    assert np.array_equal(placed, np.isin(listed, scan.placements))
    assert np.array_equal(scan.placements[ranks[placed]], listed[placed])
    assert (ranks[~placed] == -1).all()
    if invalid_hits(scan, listed):
        event("invalid window hits lead the listing")


@pytest.mark.parametrize("lambdas", [0.0, 1.0, 1e3])
@pytest.mark.parametrize("gamma", [1e-6, 5.0])
def test_bounded_scan_keeps_exact_ties(lambdas, gamma):
    # Every inert pose ties exactly with its reverse, and the window holds both.
    problem = build_full(inert_chain(), Hyperparameters(lambdas=(lambdas,) * 5, gamma=gamma))
    assert_lists_full_scan(problem)


@pytest.mark.parametrize("fixture_name", ["tiny4", "planted6"])
@pytest.mark.parametrize("lambdas", [0.0, 0.2, 1e3])
@pytest.mark.parametrize("gamma", [None, 0.1, 5.0])
def test_bounded_scan_on_fixtures(fixture_name, lambdas, gamma, request):
    cx = request.getfixturevalue(fixture_name)
    assert_lists_full_scan(build_full(cx, Hyperparameters(lambdas=(lambdas,) * 5, gamma=gamma)))


def test_bounded_scan_lists_invalid_hits_first():
    # At a tiny gamma the mismatched complex's lowest states are invalid.
    problem = build_full(mismatched_complex(), Hyperparameters(lambdas=(1e3,) * 5, gamma=1e-6))
    scan, listed, _ = assert_lists_full_scan(problem)
    assert invalid_hits(scan, listed) > 0
    assert not np.isin(listed[0], scan.placements)


@pytest.mark.parametrize("gamma", [0.1, 5.0])
def test_bounded_scan_on_imported_file(planted6, gamma, tmp_path):
    export_qubo(build_full(planted6, Hyperparameters(gamma=gamma)), tmp_path / "p6.qubo")
    imported = import_qubo(tmp_path / "p6.qubo")
    scan, listed, _ = assert_lists_full_scan(imported)
    assert len(scan.placements) == 0 and len(listed) >= 1


@pytest.mark.parametrize("chunk", [1 << 20, 1 << 16, 64])
def test_bounded_scan_truncates_all_zero_problem(chunk):
    """Every state of the all-zero QUBO is a hit; the listing keeps the
    lowest 65,536 state indices, also when the rows come in many chunks."""
    with mock.patch.object(anneal, "_CHUNK_ENTRIES", chunk):
        _, listed, _ = assert_lists_full_scan(toy({}, 20))
    assert np.array_equal(listed, np.arange(65536))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bounded_scan_on_tiny_problems(n):
    rng = np.random.default_rng(40 + n)
    coeffs = {(a, b): float(rng.normal()) for a in range(n) for b in range(a, n)}
    _, listed, _ = assert_lists_full_scan(toy(coeffs, n))
    assert len(listed) >= 1


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 22),
    chunk=st.sampled_from([1 << 20, 256, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_small_chunks_list_what_the_full_table_lists(n, chunk, seed):
    """Rows scored over many chunks, with ties from small integer
    coefficients, give the same listing."""
    rng = np.random.default_rng(seed)
    coeffs = {
        (a, b): float(rng.integers(-3, 4))
        for a in range(n)
        for b in range(a, n)
        if rng.random() < 0.5
    }
    with mock.patch.object(anneal, "_CHUNK_ENTRIES", chunk):
        assert_lists_full_scan(toy(coeffs, n))


@pytest.mark.parametrize("n", [3, 7, 12, 18, 22])
def test_row_subset_products_equal_full_product_rows(n):
    """`cross_rows` over any subset of rows, one row included, reproduces
    those rows of bits_hi @ cross.T bit for bit; the bound and the listing
    rest on it."""
    rng = np.random.default_rng(n)
    coeffs = {
        (a, b): float(rng.normal(scale=10.0 ** rng.uniform(-3, 3)))
        for a in range(n)
        for b in range(a + 1, n)
    }
    scan = ExhaustiveScan.of(toy(coeffs, n))
    full = scan.bits_hi @ scan.cross.T
    n_rows = len(scan.bits_hi)
    subsets = [np.arange(n_rows), np.zeros(0, dtype=np.intp)]
    subsets += [np.array([row]) for row in rng.choice(n_rows, size=min(n_rows, 8), replace=False)]
    subsets += [
        np.sort(rng.choice(n_rows, size=int(rng.integers(2, n_rows + 1)), replace=False))
        for _ in range(8)
    ]
    for chunk in (1 << 20, 1024, 3):
        with mock.patch.object(anneal, "_CHUNK_ENTRIES", chunk):
            for rows in subsets:
                parts = [product for _, product in cross_rows(scan.bits_hi, scan.cross, rows)]
                got = np.concatenate(parts) if parts else np.zeros((0, full.shape[1]))
                assert got.tobytes() == full[rows].tobytes()


def chain_24():
    """A 4-atom chain over 6 grid points near a few protein atoms: 24
    variables, the brute-force cap."""
    xs = [0.0, 1.4, 2.9, 4.2]
    doc = {
        "protein": [
            {"id": 1, "position": [1.0, 3.0, 0.0], "charge": 0.4, "type_index": 0,
             "hbond_role": "acceptor", "hydrophobic": True, "donor_hydrogens": []},
            {"id": 2, "position": [3.0, -3.0, 0.5], "charge": -0.3, "type_index": 1,
             "hbond_role": "donor", "hydrophobic": False,
             "donor_hydrogens": [[3.0, -2.0, 0.5]]},
        ],
        "ligand": {
            "atoms": [
                {"id": k + 1, "position": [x, 0.1 * k, 0.0], "charge": 0.1 * (k - 1.5),
                 "type_index": k % 2, "hbond_acceptor": k % 2, "hbond_donor": 0,
                 "hydrophobic": 1 - k % 2}
                for k, x in enumerate(xs)
            ],
            "bonds": [{"atoms": [k + 1, k + 2]} for k in range(3)],
        },
        "grid_points": [
            {"id": 100 + k, "position": position}
            for k, position in enumerate(
                [[0.05, 0.0, 0.0], [1.45, 0.1, 0.0], [2.9, 0.25, 0.0], [4.2, 0.3, 0.0],
                 [1.5, 1.5, 0.0], [3.0, -1.5, 0.0]]
            )
        ],
        "type_table": {"epsilon": [0.2, 0.1], "r_min": [1.5, 2.0]},
    }
    return parse_complex(doc)


def test_brute_force_at_the_cap_stays_small():
    """The whole 2^24 table was 128 MB; the bounded scan holds one chunk
    of rows at a time."""
    problem = build_full(chain_24(), Hyperparameters(lambdas=(0.2,) * 5, gamma=5.0))
    assert problem.n_vars == 24
    tracemalloc.start()
    try:
        result = brute_force(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6
    assert result.metadata == {"solver": "brute_force", "n_vars": 24}
