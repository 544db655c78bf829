"""The exact tuner scores every evaluation from one pose enumeration per
complex, and both tuners solve a complex once per distinct solve key; their
documents must equal those of docking each complex at every evaluation."""

import hashlib
import json
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qdock import (
    AnnealSchedule,
    GraphBuildError,
    Hyperparameters,
    NoValidSolutionError,
    build_grid_graph,
    build_ligand_graph,
    dock,
    greedy_tune,
    parse_complex,
)
from qdock import dockeval
from qdock.anneal import _dense, window_scale
from qdock.dockeval import TUNER_WEIGHTS, _EnumeratedComplex, _solve_key
from qdock.qubo import PHYSCHEM_TERMS, assemble, build_full, with_lambdas

from test_dockeval import TUNED_PAIR_SCHEDULE, matched_chain, mismatched_complex
from test_qubo import complex_docs, same_bits


def inert_chain():
    """A symmetric 3-atom chain with one atom type and no charge or flags,
    over a line of grid points near a few protein atoms: every pose ties
    exactly with its reverse under any lambdas."""
    doc = {
        "protein": [
            {"id": 1, "position": [1.0, 2.5, 0.0], "charge": 0.3, "type_index": 0,
             "hbond_role": "none", "hydrophobic": True, "donor_hydrogens": []},
            {"id": 2, "position": [3.5, -2.0, 1.0], "charge": -0.2, "type_index": 0,
             "hbond_role": "none", "hydrophobic": False, "donor_hydrogens": []},
        ],
        "ligand": {
            "atoms": [
                {"id": k + 1, "position": [1.5 * k, 0.0, 0.0], "charge": 0.0, "type_index": 0}
                for k in range(3)
            ],
            "bonds": [{"atoms": [1, 2]}, {"atoms": [2, 3]}],
        },
        "grid_points": [
            {"id": 100 + k, "position": position}
            for k, position in enumerate(
                [[0.1, 0.2, 0.0], [1.6, 0.2, 0.0], [3.1, 0.2, 0.0], [4.6, 0.2, 0.0],
                 [1.6, 1.7, 0.0], [0.1, -1.3, 0.5]]
            )
        ],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    return parse_complex(doc)


def tuner_documents(dataset, gamma, sched, exact):
    """`greedy_tune` and a re-dock of every complex at the tuned lambdas with
    the same solver and schedule, as `qdock tune --out` writes them."""
    result = greedy_tune(dataset, sched, hp_template=Hyperparameters(gamma=gamma), exact=exact)
    tuned = Hyperparameters(lambdas=result.lambdas, gamma=gamma)
    documents = [result.to_dict()]
    for cx in dataset:
        try:
            report = dock(cx, tuned, sched, exact=exact)
        except NoValidSolutionError as exc:
            report = exc.report
        documents.append(report.to_dict())
    return documents


# SHA-256 of the sorted-key JSON of the tuner result and its re-dock
# reports, from the exact tuner (recorded while every evaluation still
# assembled and brute-forced each complex) or from the SA tuner at
# TUNED_PAIR_SCHEDULE (recorded while every evaluation annealed each
# complex).
TUNER_CASES = {
    # The matched chain never moves; planted6 adopts hydro at 0.2.
    "planted6-matched": (
        lambda planted6, tiny4: [planted6, matched_chain()],
        5.0,
        True,
        "8bae968316482e90f62063099abfb08fc6e56353feaedd38e704d97a2fcfbfe1",
    ),
    # Each inert pose ties exactly with its reverse; the listing order
    # decides which one, and so its RMSD, is reported.
    "planted6-inert": (
        lambda planted6, tiny4: [planted6, inert_chain()],
        5.0,
        True,
        "e2d5de06fa3f1913978465f2c5488fe6c5b7ae0afa6082f29de93352f762ac57",
    ),
    # The mismatched complex's lowest states are invalid window hits, which
    # sort ahead of its best valid pose.
    "mismatched-weak": (
        lambda planted6, tiny4: [mismatched_complex(), matched_chain()],
        0.1,
        True,
        "c4bb3ea4c7b36f93f68beeddf5bccd1d1f66c67c10090b70a527873a08e5f48f",
    ),
    # At gamma 1e-6, 32 invalid states sort ahead of every valid pose of the
    # mismatched complex, so each evaluation excludes it.
    "mismatched-excluded": (
        lambda planted6, tiny4: [mismatched_complex(), matched_chain()],
        1e-6,
        True,
        "ff664e7795bbfe9dc3b3a3ad6bb8b5f51f268db884a44ff236a81ce4528ec265",
    ),
    # planted6 has no charges or H-bond flags, so its el, hba and hbd tables
    # are zero.
    "sa-planted6-matched": (
        lambda planted6, tiny4: [planted6, matched_chain()],
        5.0,
        False,
        "dc1615a305db414c1eee8b69cff505bc7714df33696133c839b48578c084a78e",
    ),
    # Every one of tiny4's five tables is nonzero.
    "sa-tiny4": (
        lambda planted6, tiny4: [tiny4],
        5.0,
        False,
        "3faeb72a3b4fa8afd4b8cf913549c74335eca017ab7bd39346f2eea4702f6a9e",
    ),
}


@pytest.mark.parametrize("case", sorted(TUNER_CASES))
def test_tuner_documents_match_recorded_digest(case, planted6, tiny4):
    make_dataset, gamma, exact, recorded = TUNER_CASES[case]
    sched = AnnealSchedule() if exact else TUNED_PAIR_SCHEDULE
    documents = tuner_documents(make_dataset(planted6, tiny4), gamma, sched, exact)
    text = json.dumps(documents, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == recorded


def test_exact_tuner_reports_overflow_like_assemble(planted6):
    """A weight whose scale * lambda overflows raises the GraphBuildError
    that assembling at those lambdas raises, on both tuner paths and in
    the prepared evaluation, which builds no problem otherwise."""
    template = Hyperparameters(gamma=5.0)
    sched = AnnealSchedule(n_reads=2, n_sweeps=2)
    messages = []
    for exact in (True, False):
        with pytest.raises(GraphBuildError, match="non-finite QUBO coefficient") as caught:
            greedy_tune([planted6], sched, weights=(1e308,), hp_template=template, exact=exact)
        messages.append(str(caught.value))
    # planted6 has no charges, so el stays finite at any weight; vdw, the
    # tuner's next candidate, overflows through its automatic scale (> 1).
    lig, grid = build_ligand_graph(planted6), build_grid_graph(planted6)
    enumerated = _EnumeratedComplex(assemble(lig, grid, template))
    enumerated.evaluate((1e308, 0.0, 0.0, 0.0, 0.0))
    lambdas = (0.0, 1e308, 0.0, 0.0, 0.0)
    with pytest.raises(GraphBuildError) as assembling:
        dock(planted6, replace(template, lambdas=lambdas), sched, exact=True)
    with pytest.raises(GraphBuildError) as evaluating:
        enumerated.evaluate(lambdas)
    messages += [str(assembling.value), str(evaluating.value)]
    assert len(set(messages)) == 1


@pytest.mark.parametrize("gamma", [0.1, 1e-6])
def test_exact_tuner_builds_no_problem_for_finite_lambdas(monkeypatch, gamma):
    """Invalid window hits lead the listing at both gammas (see
    TUNER_CASES); they are scored from the prepared tables too."""
    monkeypatch.setattr(dockeval, "with_lambdas", lambda *args: pytest.fail("built a problem"))
    dataset = [mismatched_complex(), matched_chain()]
    result = greedy_tune(dataset, AnnealSchedule(), hp_template=Hyperparameters(gamma=gamma),
                         exact=True)
    assert len(result.trace) > 1


def assert_evaluations_match_docking(cx, gamma, lambda_vectors) -> list[str]:
    """Evaluate one complex's prepared tables at each lambda vector in turn:
    the linear vector and window scale equal, bit for bit, those of the
    problem `with_lambdas` builds, and the adjusted RMSD (or None) is what
    `dock(exact=True)` reports at those lambdas. Returns what each
    evaluation found."""
    hp = Hyperparameters(gamma=gamma)
    lig, grid = build_ligand_graph(cx), build_grid_graph(cx)
    base = assemble(lig, grid, hp)
    enumerated = _EnumeratedComplex(base)
    sched = AnnealSchedule()
    found = []
    for lambdas in lambda_vectors:
        problem = with_lambdas(base, lambdas)
        h, adjusted = enumerated.evaluate(lambdas)
        assert same_bits(h, _dense(problem)[0])
        assert enumerated.scan.scale(h) == window_scale(problem.coeffs.arrays[2], problem.offset)
        try:
            report = dock(cx, replace(hp, lambdas=lambdas), sched, exact=True)
        except NoValidSolutionError:
            assert adjusted is None
            found.append("no valid pose among the lowest states")
            continue
        assert adjusted == report.adjusted_rmsd
        if report.lowest_energy < report.total_energy:
            found.append("an invalid state sorts ahead of the pose")
    return found


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    doc=complex_docs().filter(
        lambda doc: len(doc["ligand"]["atoms"]) * len(doc["grid_points"]) <= 18
    ),
    gamma=st.sampled_from([1e-6, 0.1, 5.0]),
    lambda_vectors=st.lists(
        st.tuples(*[st.sampled_from([0.0, *TUNER_WEIGHTS, 1e3])] * 5), min_size=1, max_size=4
    ),
)
def test_prepared_evaluation_matches_docking_at_those_lambdas(doc, gamma, lambda_vectors):
    for found in assert_evaluations_match_docking(parse_complex(doc), gamma, lambda_vectors):
        event(found)


def test_prepared_evaluation_finds_no_pose_where_docking_finds_none():
    # At gamma 1e-6 the mismatched complex's 32 lowest states are invalid
    # at every lambda vector here (see TUNER_CASES).
    lambda_vectors = [(0.0,) * 5, (1e3, 0.0, 0.0, 5.0, 0.2), (0.0,) * 5]
    found = assert_evaluations_match_docking(mismatched_complex(), 1e-6, lambda_vectors)
    assert found == ["no valid pose among the lowest states"] * 3


small_complexes = complex_docs().filter(
    lambda doc: len(doc["ligand"]["atoms"]) >= 2
    and len(doc["ligand"]["atoms"]) * len(doc["grid_points"]) <= 18
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    docs=st.lists(small_complexes, min_size=1, max_size=2),
    gamma=st.sampled_from([None, 1e-6, 0.1, 5.0]),
)
def test_tuner_trace_matches_exact_docking(docs, gamma):
    """Every trace entry is the mean and exclusion count of docking each
    complex exactly at the entry's lambdas."""
    dataset = [parse_complex(doc) for doc in docs]
    sched = AnnealSchedule()
    try:
        result = greedy_tune(dataset, sched, hp_template=Hyperparameters(gamma=gamma), exact=True)
        trace = result.trace
    except NoValidSolutionError:
        # Raised only when no evaluation found a pose; the baseline is one.
        trace = [{"lambdas": [0.0] * 5, "mean_adjusted_rmsd": None, "excluded": len(dataset)}]
    for entry in trace:
        hp = Hyperparameters(lambdas=tuple(entry["lambdas"]), gamma=gamma)
        values = []
        for cx in dataset:
            try:
                report = dock(cx, hp, sched, exact=True)
            except NoValidSolutionError:
                continue
            values.append(report.adjusted_rmsd)
            if report.lowest_energy < report.total_energy:
                event("an invalid state sorts ahead of the pose")
        assert entry["excluded"] == len(dataset) - len(values)
        event(f"{entry['excluded']} of {len(dataset)} excluded")
        assert entry["mean_adjusted_rmsd"] == (sum(values) / len(values) if values else None)


@st.composite
def docs_with_inert_ligands(draw):
    """Small complexes with some of the ligand's charges and flags cleared
    on every atom, which zeroes the el, hba, hbd or hydro table."""
    doc = draw(
        complex_docs().filter(
            lambda doc: len(doc["ligand"]["atoms"]) * len(doc["grid_points"]) <= 18
        )
    )
    fields = ["charge", "hbond_acceptor", "hbond_donor", "hydrophobic"]
    cleared = draw(st.sets(st.sampled_from(fields)))
    for atom in doc["ligand"]["atoms"]:
        atom.update(dict.fromkeys(cleared, 0))
    return doc


KEY_WEIGHTS = [0.0, -0.0, *TUNER_WEIGHTS, 1e3]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    doc=docs_with_inert_ligands(),
    gamma=st.sampled_from([1e-6, 0.1, 5.0]),
    first=st.tuples(*[st.sampled_from(KEY_WEIGHTS)] * 5),
    data=st.data(),
)
def test_lambdas_with_one_solve_key_give_one_solve(doc, gamma, first, data):
    """Lambdas that differ only on terms whose raw table is all zero, or in
    the sign of a zero weight, share the tuner's key: the problem
    `with_lambdas` builds at them is the same bit for bit, and so are the
    exact tuner's linear vector and adjusted RMSD."""
    hp = Hyperparameters(gamma=gamma)
    cx = parse_complex(doc)
    base = assemble(build_ligand_graph(cx), build_grid_graph(cx), hp)
    # Change one weight at a time wherever the key allows it.
    key, second = _solve_key(base, first), first
    for t in range(5):
        trial = (*second[:t], data.draw(st.sampled_from(KEY_WEIGHTS)), *second[t + 1 :])
        if _solve_key(base, trial) == key:
            second = trial
    event(f"{sum(not base.physchem_raw[name].any() for name in PHYSCHEM_TERMS)} zero tables")
    event(f"{sum(repr(x) != repr(y) for x, y in zip(first, second))} weights differ")
    try:
        problems = [with_lambdas(base, lambdas) for lambdas in (first, second)]
    except GraphBuildError:
        event("non-finite coefficient")
        for lambdas in (first, second):
            with pytest.raises(GraphBuildError):
                with_lambdas(base, lambdas)
        return
    # same_bits compares bytes, so -0.0 and 0.0 differ.
    one, other = problems
    assert all(same_bits(x, y) for x, y in zip(one.coeffs.arrays, other.coeffs.arrays))
    assert one.term_coeffs == other.term_coeffs
    enumerated = _EnumeratedComplex(base)
    (h_one, adjusted_one), (h_other, adjusted_other) = map(enumerated.evaluate, (first, second))
    assert same_bits(h_one, h_other)
    assert adjusted_one == adjusted_other


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sa"])
def test_tuner_solves_each_complex_once_per_solve_key(monkeypatch, planted6, tiny4, exact):
    """planted6's el, hba and hbd tables are zero, so its trace repeats
    keys and it is solved fewer times than the trace is long; every one of
    tiny4's tables is nonzero, so it is solved at every trace entry."""
    solves = Counter()
    if exact:
        evaluate = _EnumeratedComplex.evaluate

        def counted(self, lambdas):
            solves[tuple(self.base.grid_ids)] += 1
            return evaluate(self, lambdas)

        monkeypatch.setattr(_EnumeratedComplex, "evaluate", counted)
    else:
        anneal = dockeval.simulated_anneal

        def counted(problem, sched):
            solves[tuple(problem.grid_ids)] += 1
            return anneal(problem, sched)

        monkeypatch.setattr(dockeval, "simulated_anneal", counted)
    hp = Hyperparameters(gamma=5.0)
    sched = AnnealSchedule(n_reads=2, n_sweeps=5, seed=3)
    trace = greedy_tune([planted6, tiny4], sched, hp_template=hp, exact=exact).trace
    bases = [build_full(cx, hp) for cx in (planted6, tiny4)]
    keys = [{_solve_key(base, entry["lambdas"]) for entry in trace} for base in bases]
    assert all(bases[1].physchem_raw[name].any() for name in PHYSCHEM_TERMS)
    assert len(keys[0]) < len(trace) == len(keys[1])
    assert solves == {tuple(base.grid_ids): len(k) for base, k in zip(bases, keys)}
