"""Pipeline benchmark for qdock.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dock-sa --seed 1 --seconds 25 --trace 0

The harness generates seeded inputs (perfbench/synth.py), writes them as
complex JSON files under .perfbench-work/, and drives qdock's public
functions over them for --seconds seconds of passes. After every pass it
checks the outputs; each failed operation or check counts in `failed`.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"); with --trace 1 they are the per-layer ones, taken from
in-memory spans around each layer's public functions (perfbench/tracing.py).
The line before it records the environment, sizes, schedule and seed.
See perfbench/README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(HERE))

from synth import make_complex  # noqa: E402
from tracing import Tracer  # noqa: E402

# Metric names and units come from BENCHMARK.json, so the result line
# always carries exactly the metrics it declares.
METRIC_UNITS = {
    kind: {m["name"]: m["unit"] for m in entries}
    for kind, entries in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")).items()
    if kind in ("end_to_end", "per_layer")
}
SETUP_REPEATS = 5
MIN_PASSES = 2
LAYERS = ("model", "ligand", "grid", "qubo", "anneal", "dockeval", "qubofile", "bench")

# dock-sa and build-large share the hyperparameters: small fixed lambdas
# and the automatic gamma that `qdock dock` uses when --gamma is not given.
DOCK_LAMBDAS = (0.01, 0.01, 0.01, 0.01, 0.01)
SA_SCHEDULE = {"n_reads": 20, "n_sweeps": 200, "seed": 7}
TUNE_GAMMA = 5.0

WORKLOADS = {
    # (atoms, grid points, protein atoms) per synthetic complex
    "dock-sa": {"sizes": [(6, 30, 250), (8, 40, 250)]},
    "build-large": {"sizes": [(20, 100, 1000)]},
    # Inert synthetic ligands cannot be swayed by any lambda, so the tuner's
    # path (46 evaluations) is set by planted6 on every seed; with random
    # ligand chemistry it took 46 or 61 evaluations depending on the seed.
    "tune-exact": {"sizes": [(3, 6, 300), (3, 5, 300)], "fixtures": ["planted6.json"], "inert": True},
}


@dataclass
class Case:
    name: str
    path: Path
    doc: dict
    planted: dict[int, int]      # ligand atom id -> grid point id
    planted_index: dict[int, int]  # atom position -> grid position


class Checks:
    """Counts operations and output checks; every failure is kept by name.

    `errors` are the exception types a failed pipeline operation raises.
    """

    def __init__(self, errors: tuple):
        self.errors = errors
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def op(self, fn, *args, **kwargs):
        """Call one pipeline operation; a domain error counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.errors as exc:
            self.failures.append(f"{fn.__name__}: {exc}")
            return None


def planted_index(doc: dict, planted: dict[int, int]) -> dict[int, int]:
    atom_pos = {a["id"]: k for k, a in enumerate(doc["ligand"]["atoms"])}
    grid_pos = {g["id"]: k for k, g in enumerate(doc["grid_points"])}
    return {atom_pos[a]: grid_pos[g] for a, g in planted.items()}


def nearest_planted(doc: dict) -> dict[int, int]:
    """Planted mapping of a fixture: each atom's nearest grid point, which
    must be distinct for every atom."""
    atoms = np.array([a["position"] for a in doc["ligand"]["atoms"]], dtype=float)
    grid = np.array([g["position"] for g in doc["grid_points"]], dtype=float)
    nearest = np.linalg.norm(atoms[:, None, :] - grid[None, :, :], axis=-1).argmin(axis=1)
    if len(set(nearest.tolist())) != len(nearest):
        raise ValueError(f"{doc.get('name')}: nearest grid points are not distinct")
    return {
        doc["ligand"]["atoms"][i]["id"]: doc["grid_points"][int(j)]["id"]
        for i, j in enumerate(nearest)
    }


def generate(workload: str, seed: int, out_dir: Path) -> list[Case]:
    spec = WORKLOADS[workload]
    docs = []
    for name in spec.get("fixtures", []):
        doc = json.loads((ROOT / "fixtures" / name).read_text(encoding="utf-8"))
        docs.append((Path(name).stem, doc, nearest_planted(doc)))
    for k, (n_atoms, n_points, n_protein) in enumerate(spec["sizes"]):
        name = f"{workload}-{k}-{n_atoms}x{n_points}"
        doc, planted = make_complex(
            [seed, k], n_atoms, n_points, n_protein, name, inert=spec.get("inert", False)
        )
        docs.append((name, doc, planted))
    cases = []
    for name, doc, planted in docs:
        path = out_dir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        cases.append(Case(name, path, doc, planted, planted_index(doc, planted)))
    return cases


def validate_case(qdock, case: Case, checks: Checks) -> None:
    """The document parses, and its planted mapping decodes to a Pose whose
    penalty term is exactly zero."""
    cx = checks.op(qdock.parse_complex, case.doc, case.name)
    if cx is None:
        return
    n_mol, n_grid = len(cx.ligand_atoms), len(cx.grid_points)
    penalty, offset = qdock.qubo.build_penalty(n_mol, n_grid, 1.0)
    problem = qdock.QuboProblem(
        n_mol=n_mol,
        n_grid=n_grid,
        coeffs=penalty,
        term_coeffs={"penalty": penalty},
        offset=offset,
        atom_ids=[a.id for a in cx.ligand_atoms],
        grid_ids=[g.id for g in cx.grid_points],
        grid_positions=np.array([g.position for g in cx.grid_points]),
        experimental_coords=cx.ligand_coordinates(),
    )
    assignment = qdock.one_hot_assignment(problem, case.planted_index)
    pose = qdock.decode(assignment, problem)
    checks.check(
        isinstance(pose, qdock.Pose) and pose.mapping == case.planted,
        f"{case.name}: planted mapping does not decode to its pose",
    )
    checks.check(
        qdock.energy(problem, assignment).terms["penalty"] == 0.0,
        f"{case.name}: planted pose has a nonzero penalty",
    )


def import_seconds() -> float:
    """Time to import qdock in a fresh interpreter (numpy included)."""
    code = "import time; t = time.perf_counter(); import qdock; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(qdock, workload: str, seed: int, checks: Checks) -> tuple[list[Case], list[float]]:
    """Generate, write and validate the inputs SETUP_REPEATS times; each
    repeat also times a fresh import of qdock."""
    out_dir = WORK / f"{workload}-{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cases = generate(workload, seed, out_dir)
        for case in cases:
            validate_case(qdock, case, checks)
        elapsed = time.perf_counter() - started
        times.append(elapsed + import_seconds())
        digests.append(digest([c.path.read_bytes() for c in cases]))
    checks.check(len(set(digests)) == 1, "same seed generated different inputs")
    return cases, times


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


class Reference:
    """Problems rebuilt outside the timed passes, to check pass outputs against."""

    def __init__(self, qdock, cases: list[Case]):
        self.qdock = qdock
        self.complexes = {c.name: qdock.load_complex(c.path) for c in cases}
        self._problems = {}

    def problem(self, case: Case, hp):
        key = (case.name, hp)
        if key not in self._problems:
            self._problems[key] = self.qdock.build_full(self.complexes[case.name], hp)
        return self._problems[key]


def check_reports(qdock, reports, cases, hp, ref: Reference, checks: Checks) -> dict:
    """Checks on docking reports; returns their quality figures."""
    valid, hits, adjusted, gaps = [], [], [], []
    for report, case in zip(reports, cases):
        if report is None:
            continue
        checks.check(
            report.total_energy == math.fsum(report.term_energies.values()),
            f"{case.name}: reported energy is not the fsum of its terms",
        )
        problem = ref.problem(case, hp)
        index = {
            problem.atom_ids.index(a): problem.grid_ids.index(g) for a, g in report.pose.mapping.items()
        }
        assignment = qdock.one_hot_assignment(problem, index)
        pose = qdock.decode(assignment, problem)
        checks.check(
            isinstance(pose, qdock.Pose) and pose.mapping == report.pose.mapping,
            f"{case.name}: reported pose does not decode as valid",
        )
        checks.check(
            qdock.energy(problem, assignment).total == report.total_energy,
            f"{case.name}: reported energy differs from the re-scored pose",
        )
        planted = qdock.energy(problem, qdock.one_hot_assignment(problem, case.planted_index))
        checks.check(
            report.lowest_energy <= report.total_energy,
            f"{case.name}: lowest sample energy is above the reported pose's",
        )
        if report.metadata["solver"] == "brute_force":
            checks.check(
                report.lowest_energy <= planted.total,
                f"{case.name}: brute-force best is above the planted pose's energy",
            )
        valid.append(report.valid_solution_rate)
        hits.append(1.0 if report.pose.mapping == case.planted else 0.0)
        adjusted.append(report.adjusted_rmsd)
        gaps.append(report.total_energy - planted.total)
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return {
        "valid_rate": mean(valid),
        "hit_rate": mean(hits),
        "adjusted_rmsd_mean": mean(adjusted),
        "energy_gap": mean(gaps),
    }


# --- workloads -------------------------------------------------------------
# Each workload is a pass (timed, what a user of qdock would run) and a
# verification of its outputs (untimed). `verify` returns the pass's
# quality figures and a digest of its result documents.


def sa_schedule(qdock):
    return qdock.AnnealSchedule(**SA_SCHEDULE)


def threads() -> int:
    return os.cpu_count() or 1


NO_QUALITY = {"valid_rate": 0.0, "hit_rate": 0.0, "adjusted_rmsd_mean": 0.0, "energy_gap": 0.0}


class Workload:
    def __init__(self, qdock, cases: list[Case]):
        self.qdock, self.cases = qdock, cases

    def extras(self, ref, checks) -> dict:
        """Per-layer metrics measured outside the passes, in a traced run."""
        return {}

    def peak_case(self):
        """The largest complex and the hyperparameters it is built with."""
        return max(self.cases, key=lambda c: len(c.doc["grid_points"]) * len(c.doc["ligand"]["atoms"])), self.hp

    @property
    def hp(self):
        return self.qdock.Hyperparameters(lambdas=DOCK_LAMBDAS, gamma=None)


class DockSA(Workload):
    """dock() with SA over the synthetic complexes, at `qdock dock`'s default
    thread count."""

    def run(self, checks):
        q = self.qdock
        reports = []
        for case in self.cases:
            cx = checks.op(q.load_complex, case.path)
            reports.append(cx and checks.op(q.dock, cx, self.hp, sa_schedule(q), n_threads=threads()))
        return reports

    def verify(self, reports, ref, checks):
        quality = check_reports(self.qdock, reports, self.cases, self.hp, ref, checks)
        return quality, digest(r.to_dict() if r else None for r in reports)

    def extras(self, ref, checks) -> dict:
        """One complex solved at 1 thread and at os.cpu_count() threads."""
        q = self.qdock
        problem = ref.problem(self.cases[0], self.hp)
        started = time.perf_counter()
        lone = q.simulated_anneal(problem, sa_schedule(q), n_threads=1)
        lone_s = time.perf_counter() - started
        started = time.perf_counter()
        pooled = q.simulated_anneal(problem, sa_schedule(q), n_threads=threads())
        pooled_s = time.perf_counter() - started
        checks.check(
            [s.assignment.to_string() for s in lone] == [s.assignment.to_string() for s in pooled]
            and lone.to_dict() == pooled.to_dict(),
            "samples differ between 1 thread and os.cpu_count() threads",
        )
        return {"anneal.thread_ratio": pooled_s / lone_s}


class BuildLarge(Workload):
    """One large complex: load, build, export, import, and the planted pose's
    energy on both problems. No solver runs."""

    def __init__(self, qdock, cases):
        super().__init__(qdock, cases)
        self.case = cases[0]
        self.qubo_path = self.case.path.with_suffix(".qubo")

    def run(self, checks):
        q = self.qdock
        cx = checks.op(q.load_complex, self.case.path)
        built = cx and checks.op(q.build_full, cx, self.hp)
        if built is None:
            return None
        checks.op(q.export_qubo, built, self.qubo_path)
        imported = checks.op(q.import_qubo, self.qubo_path)
        if imported is None:
            return None
        assignment = q.one_hot_assignment(built, self.case.planted_index)
        return built, imported, assignment, q.energy(built, assignment), q.energy(imported, assignment)

    def verify(self, out, ref, checks):
        q = self.qdock
        if out is None:
            return NO_QUALITY, None
        built, imported, assignment, e_built, e_imported = out
        checks.check(
            imported.n_vars == built.n_vars and imported.coeffs == built.coeffs,
            "imported coefficients differ from the built ones",
        )
        active = [v for (a, b), v in built.coeffs.items() if assignment.bits[a] and assignment.bits[b]]
        checks.check(
            e_imported.total == math.fsum(active),
            "imported energy is not the fsum of the built coefficients it activates",
        )
        # The built energy sums each term map separately, while the file
        # holds per-entry sums of the terms, rounded once per term added;
        # the two totals agree to that rounding, not bit for bit.
        tolerance = 1e-12 * (math.fsum(abs(v) for v in active) + abs(built.offset))
        checks.check(
            abs(e_imported.total - (e_built.total - built.offset)) <= tolerance,
            "imported energy is not the built energy minus the offset",
        )
        for label, e in (("built", e_built), ("imported", e_imported)):
            checks.check(e.total == math.fsum(e.terms.values()), f"{label} energy is not the fsum of its terms")
        checks.check(e_built.terms["penalty"] == 0.0, "planted pose has a nonzero penalty")
        pose = q.decode(assignment, built)
        valid = isinstance(pose, q.Pose)
        checks.check(valid and pose.mapping == self.case.planted, "planted pose does not decode to itself")
        quality = {
            "valid_rate": 1.0 if valid else 0.0,
            "hit_rate": 1.0 if valid and pose.mapping == self.case.planted else 0.0,
            "adjusted_rmsd_mean": q.adjusted_rmsd(pose, built.experimental_coords, built.grid_positions)
            if valid
            else 0.0,
            "energy_gap": 0.0,
        }
        return quality, digest([self.qubo_path.read_bytes(), e_built.terms, e_imported.terms])


class TuneExact(Workload):
    """greedy_tune(exact=True) over a fixture plus small synthetic complexes,
    then a re-dock at the tuned lambdas, as `qdock tune --exact --out` does."""

    def __init__(self, qdock, cases):
        super().__init__(qdock, cases)
        self.tuned = None

    def run(self, checks):
        q = self.qdock
        dataset = [checks.op(q.load_complex, case.path) for case in self.cases]
        if any(cx is None for cx in dataset):
            return None
        sched = q.AnnealSchedule()
        template = q.Hyperparameters(gamma=TUNE_GAMMA)
        result = checks.op(q.greedy_tune, dataset, sched, hp_template=template, exact=True)
        if result is None:
            return None
        tuned = q.Hyperparameters(lambdas=result.lambdas, gamma=TUNE_GAMMA)
        reports = [checks.op(q.dock, cx, tuned, sched, exact=True) for cx in dataset]
        return result, tuned, reports

    def verify(self, out, ref, checks):
        if out is None:
            return NO_QUALITY, None
        result, tuned, reports = out
        self.tuned = tuned
        quality = check_reports(self.qdock, reports, self.cases, tuned, ref, checks)
        return quality, digest([result.to_dict()] + [r.to_dict() if r else None for r in reports])

    @property
    def hp(self):
        return self.tuned or self.qdock.Hyperparameters(gamma=TUNE_GAMMA)


WORKLOAD_CLASSES = {"dock-sa": DockSA, "build-large": BuildLarge, "tune-exact": TuneExact}


# --- measurement -----------------------------------------------------------


def timed_pass(work, checks):
    started = time.perf_counter()
    out = work.run(checks)
    return time.perf_counter() - started, out


def per_layer(tracer: Tracer, n_passes: int) -> dict:
    """Per-pass layer metrics from the spans of the traced passes."""
    totals = tracer.totals()
    spans, layers = totals["spans"], totals["layers"]

    def span(name, field="self_s"):
        entry = spans.get(name)
        return entry[field] / n_passes if entry else 0.0

    def count(name, key):
        entry = spans.get(name)
        return entry["counts"][key] / n_passes if entry else 0.0

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    tune_builds = sum(
        1
        for k, s in enumerate(tracer.spans)
        if s.name == "qubo.build_full" and tracer.descends_from(k, "dockeval.greedy_tune")
    )
    m = {
        "anneal.sa_s": span("anneal.simulated_anneal"),
        "anneal.proposals": count("anneal.simulated_anneal", "proposals"),
        "anneal.bf_s": span("anneal.brute_force"),
        "anneal.bf_calls": span("anneal.brute_force", "calls"),
        "dockeval.tune_evals": count("dockeval.greedy_tune", "evals"),
        "dockeval.tune_builds": tune_builds / n_passes,
        "grid.colour_s": span("grid.build_grid_graph"),
        "grid.point_atom_pairs": count("grid.build_grid_graph", "point_atom_pairs"),
        "qubo.assemble_s": span("qubo.build_full"),
        "qubo.entries": count("qubo.build_full", "entries"),
        "qubo.energy_s": span("qubo.energy"),
        "qubo.energy_calls": span("qubo.energy", "calls"),
        "qubofile.export_s": span("qubofile.export_qubo", "duration_s"),
        "qubofile.import_s": span("qubofile.import_qubo", "duration_s"),
        "qubofile.bytes": count("qubofile.export_qubo", "bytes"),
        "ligand.graph_s": span("ligand.build_ligand_graph", "duration_s"),
        "ligand.edges": count("ligand.build_ligand_graph", "edges"),
        "model.load_s": span("model.load_complex", "duration_s"),
    }
    m["anneal.proposals_per_s"] = rate(m["anneal.proposals"], m["anneal.sa_s"])
    m["anneal.bf_states_per_s"] = rate(count("anneal.brute_force", "states"), m["anneal.bf_s"])
    m["grid.pairs_per_s"] = rate(m["grid.point_atom_pairs"], m["grid.colour_s"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layers.get(layer, 0.0) / n_passes
    m["trace.self_sum_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return m


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": [list(s) for s in WORKLOADS[workload]["sizes"]],
        "fixtures": WORKLOADS[workload].get("fixtures", []),
        "sa_schedule": SA_SCHEDULE if workload == "dock-sa" else None,
        "threads": threads() if workload == "dock-sa" else 1,
        "lambdas": list(DOCK_LAMBDAS) if workload != "tune-exact" else "tuned",
        "gamma": "auto" if workload != "tune-exact" else TUNE_GAMMA,
    }


def import_qdock():
    """qdock from this checkout's src/, or exit 1 before any result is printed."""
    sys.path.insert(0, str(SRC))
    try:
        import qdock
        import qdock.qubo  # noqa: F401  (build_penalty, for input validation)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import qdock from {SRC}: {exc}")
    if Path(qdock.__file__).resolve().parent != SRC / "qdock":
        raise SystemExit(f"perfbench: qdock imported from {qdock.__file__}, not from {SRC}")
    return qdock


def measure(qdock, work, ref, checks, seconds: float, trace: bool, tracer: Tracer):
    """Timed passes for `seconds` seconds (at least MIN_PASSES), each checked.

    A traced run starts with one untimed warm-up pass, then alternates
    traced and untraced passes, so that both kinds see a warm process.
    Returns the untraced pass times and the first pass's quality figures.
    """
    untraced, traced, digests, quality = [], [], [], None
    warmup = trace
    deadline = time.perf_counter() + seconds
    while len(untraced) + len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        if warmup:
            warmup = False
            _, out = timed_pass(work, checks)
        elif trace and len(traced) <= len(untraced):
            tracer.install(qdock)
            try:
                with tracer.span("bench.pass", "bench"):
                    elapsed, out = timed_pass(work, checks)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
        else:
            elapsed, out = timed_pass(work, checks)
            untraced.append(elapsed)
        pass_quality, pass_digest = work.verify(out, ref, checks)
        out = None  # free this pass's outputs before the next pass runs
        quality = quality or pass_quality
        digests.append(pass_digest)
    checks.check(None not in digests and len(set(digests)) == 1, "result documents differ between passes")
    return untraced, quality, digests[0]


def traced_metrics(qdock, work, ref, checks, tracer: Tracer, untraced: list[float], quality: dict) -> dict:
    roots = [s for s in tracer.spans if s.name == "bench.pass"]
    metrics = per_layer(tracer, len(roots))
    metrics["anneal.thread_ratio"] = 0.0
    metrics.update(work.extras(ref, checks))
    case, hp = work.peak_case()
    cx = qdock.load_complex(case.path)
    tracemalloc.start()
    try:
        qdock.build_full(cx, hp)
        metrics["qubo.assemble_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    metrics["trace.run_s"] = statistics.fmean(s.duration for s in roots)
    metrics["trace.untraced_run_s"] = statistics.fmean(untraced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    for key in ("hit_rate", "adjusted_rmsd_mean", "energy_gap"):
        metrics[f"dockeval.{key}"] = quality[key]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    qdock = import_qdock()
    checks = Checks((qdock.QdockError, ValueError))
    cases, setup_times = setup(qdock, args.workload, args.seed, checks)
    work = WORKLOAD_CLASSES[args.workload](qdock, cases)
    ref = Reference(qdock, cases)
    tracer = Tracer()
    untraced, quality, result_digest = measure(
        qdock, work, ref, checks, args.seconds, bool(args.trace), tracer
    )

    if args.trace:
        metrics = traced_metrics(qdock, work, ref, checks, tracer, untraced, quality)
        metrics["bench.error_rate"] = checks.failed / checks.attempted
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
        units = METRIC_UNITS["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "valid_rate": quality["valid_rate"],
        }
        units = METRIC_UNITS["end_to_end"]

    # Coordinate files run to 16 MB per build-large seed; keep only the records.
    for path in cases[0].path.parent.glob("*.qubo"):
        path.unlink()

    error_rate = checks.failed / checks.attempted
    for name, value in sorted({**metrics, **{f"({k})": v for k, v in quality.items()}}.items()):
        print(f"{name:32s} {value!r}")
    print(f"{'(error_rate)':32s} {error_rate!r} ({checks.failed}/{checks.attempted})")
    record = {
        "env": environment(args.workload, args.seed, args.seconds, args.trace),
        "summary": {
            "untraced_passes_s": untraced,
            "setup_s": setup_times,
            "error_rate": error_rate,
            "quality": quality,
            "result_digest": result_digest,
            "failures": checks.failures,
        },
    }
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1), encoding="utf-8"
    )
    print(json.dumps(record))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
