"""Command-line interface.

Subcommands cover the pipeline stages: `graph` and `grid` inspect the two
colored graphs, `build`/`export` write QUBO coordinate files, `solve` runs
a solver on a QUBO file, `dock` runs the full pipeline on one complex or a
dataset directory, `tune` runs the greedy weight search, and `report`
scores externally produced samples against a complex.

An optional JSON config file supplies defaults; explicit flags win. Exit
codes: 0 success, 1 domain error, 2 usage error. All randomness flows
through --seed, and outputs are byte-identical for identical inputs.
Annealing reads run as one seeded batch; --threads is accepted but changes
neither results nor execution.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .anneal import AnnealSchedule, brute_force, import_samples, simulated_anneal
from .dockeval import DockingReport, dock, greedy_tune, report_from_samples
from .errors import NoValidSolutionError, QdockError
from .ligand import build_ligand_graph
from .grid import build_grid_graph
from .model import load_complex
from .qubo import TERM_NAMES, Hyperparameters, build_full
from .qubofile import export_qubo, import_qubo

REPORT_CSV_COLUMNS = [
    "name",
    "valid",
    "total_energy",
    "lowest_energy",
    *TERM_NAMES,
    "rmsd",
    "adjusted_rmsd",
    "valid_solution_rate",
]

# JSON type of each config key the CLI reads; null means "not set".
_CONFIG_TYPES = {
    **dict.fromkeys(("complex", "dataset", "qubo", "samples", "out"), str),
    "exact": bool, "gamma": float, "lambdas": list, "reads": int, "sweeps": int, "seed": int,
}
_TYPE_NAMES = {str: "a string", bool: "true or false", float: "a finite number",
               int: "an integer", list: "a list of 5 numbers"}


def _json_is(value, kind) -> bool:
    """Whether a JSON value has the kind; true and false are not numbers,
    and a float kind is finite (an integer literal may not fit a float)."""
    if kind is float:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return number and abs(value) <= sys.float_info.max
    if kind is list:
        return isinstance(value, list) and len(value) == 5 and all(_json_is(v, float) for v in value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _parse_lambdas(text: str):
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"--lambdas needs 5 comma-separated values, got {len(parts)}"
        )
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--lambdas values must be numbers: {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdock",
        description="Molecular docking as a QUBO: build, solve, decode, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, complex_input=False, dataset=False, hyper=False, schedule=False,
                   solver_choice=False, out=False):
        p.add_argument("--config", help="JSON file with default argument values")
        if complex_input:
            p.add_argument("--complex", help="complex JSON file")
        if dataset:
            p.add_argument("--dataset", help="directory of complex JSON files")
        if hyper:
            p.add_argument("--lambdas", type=_parse_lambdas,
                           help="five interaction weights: el,vdw,hba,hbd,hydro")
            p.add_argument("--gamma", type=float, help="constraint penalty weight")
        if schedule:
            p.add_argument("--reads", type=_positive_int, help="annealing restarts (default 100)")
            p.add_argument("--sweeps", type=_positive_int, help="sweeps per read (default 2000)")
            p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        if solver_choice:
            p.add_argument("--exact", action="store_true", default=None,
                           help="solve by exhaustive enumeration instead of annealing")
            p.add_argument("--threads", type=_positive_int,
                           help="accepted for compatibility; reads run as one seeded "
                                "batch and the value changes neither results nor execution")
        if out:
            p.add_argument("--out", help="output path")

    p_graph = sub.add_parser("graph", help="build the ligand graph and print its edges")
    add_common(p_graph, complex_input=True, out=True)

    p_grid = sub.add_parser("grid", help="precompute pocket grid colorings")
    add_common(p_grid, complex_input=True, out=True)

    p_build = sub.add_parser("build", help="assemble the QUBO and write a coordinate file")
    add_common(p_build, complex_input=True, hyper=True, out=True)

    p_solve = sub.add_parser("solve", help="solve a QUBO coordinate file")
    p_solve.add_argument("--qubo", help="QUBO coordinate file")
    add_common(p_solve, schedule=True, solver_choice=True, out=True)

    p_dock = sub.add_parser("dock", help="dock one complex or a dataset directory")
    add_common(p_dock, complex_input=True, dataset=True, hyper=True, schedule=True,
               solver_choice=True, out=True)

    p_tune = sub.add_parser("tune", help="greedy search over interaction weights")
    add_common(p_tune, dataset=True, hyper=True, schedule=True, solver_choice=True, out=True)

    p_export = sub.add_parser("export", help="write a QUBO file for an external solver")
    add_common(p_export, complex_input=True, hyper=True, out=True)

    p_report = sub.add_parser("report", help="score externally produced samples")
    p_report.add_argument("--samples", help="JSON array of bitstrings")
    add_common(p_report, complex_input=True, hyper=True, out=True)

    return parser


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    path = Path(args.config)
    if not path.exists():
        raise QdockError(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise QdockError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise QdockError(f"{path}: config must be a JSON object")
    for key, value in doc.items():
        if key in _CONFIG_TYPES and value is not None and not _json_is(value, _CONFIG_TYPES[key]):
            kind = _TYPE_NAMES[_CONFIG_TYPES[key]]
            raise QdockError(f"{path}: config {key} must be {kind}, got {value!r}")
    if doc.get("lambdas") is not None:
        doc["lambdas"] = tuple(float(v) for v in doc["lambdas"])
    return doc


def _setting(args, config, key, default=None):
    """Explicit flag if given, else config value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config and config[key] is not None:
        return config[key]
    return default


def _require(args, config, parser, key, flag):
    value = _setting(args, config, key)
    if value is None:
        parser.error(f"{flag} is required")
    return value


def _hyperparameters(args, config) -> Hyperparameters:
    lambdas = _setting(args, config, "lambdas", (0.0, 0.0, 0.0, 0.0, 0.0))
    gamma = _setting(args, config, "gamma")
    return Hyperparameters(lambdas=tuple(lambdas), gamma=gamma)


def _schedule(args, config) -> AnnealSchedule:
    return AnnealSchedule(
        n_reads=_setting(args, config, "reads", 100),
        n_sweeps=_setting(args, config, "sweeps", 2000),
        seed=_setting(args, config, "seed", 0),
    )


def _write_json(doc, out_path) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _report_csv_row(report: DockingReport) -> dict:
    return {
        "name": report.name,
        "valid": report.valid,
        "total_energy": repr(report.total_energy),
        "lowest_energy": repr(report.lowest_energy),
        **{name: repr(report.term_energies.get(name, 0.0)) for name in TERM_NAMES},
        "rmsd": "" if report.rmsd is None else repr(report.rmsd),
        "adjusted_rmsd": "" if report.adjusted_rmsd is None else repr(report.adjusted_rmsd),
        "valid_solution_rate": repr(report.valid_solution_rate),
    }


def _write_csv(reports: list[DockingReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=REPORT_CSV_COLUMNS)
        writer.writeheader()
        for report in reports:
            writer.writerow(_report_csv_row(report))


def _load_dataset(directory) -> list:
    root = Path(directory)
    if not root.is_dir():
        raise QdockError(f"dataset directory not found: {directory}")
    paths = sorted(root.glob("*.json"))
    if not paths:
        raise QdockError(f"no complex JSON files in {directory}")
    return [load_complex(p) for p in paths]


def _cmd_graph(args, config, parser) -> int:
    complex_path = _require(args, config, parser, "complex", "--complex")
    complex_input = load_complex(complex_path)
    lig = build_ligand_graph(complex_input)
    atom_ids = [a.id for a in lig.atoms]
    doc = {
        "name": complex_input.name,
        "n_atoms": lig.n_atoms,
        "edges": [
            {
                "i": atom_ids[e.i],
                "j": atom_ids[e.j],
                "kind": e.kind.value,
                "distance": e.dist,
            }
            for e in lig.edges
        ],
    }
    _write_json(doc, _setting(args, config, "out"))
    return 0


def _cmd_grid(args, config, parser) -> int:
    complex_path = _require(args, config, parser, "complex", "--complex")
    complex_input = load_complex(complex_path)
    grid = build_grid_graph(complex_input)
    doc = {
        "name": complex_input.name,
        "points": [
            {
                "id": int(grid.point_ids[j]),
                "position": [float(x) for x in grid.positions[j]],
                "coulomb": float(grid.coulomb[j]),
                "lj": [float(v) for v in grid.lj[j]],
                "hb_acceptor": int(grid.hb_acceptor[j]),
                "hb_donor": int(grid.hb_donor[j]),
                "hydrophobic": int(grid.hydrophobic[j]),
            }
            for j in range(grid.n_points)
        ],
    }
    _write_json(doc, _setting(args, config, "out"))
    return 0


def _cmd_build(args, config, parser, quiet=False) -> int:
    complex_path = _require(args, config, parser, "complex", "--complex")
    out_path = _require(args, config, parser, "out", "--out")
    complex_input = load_complex(complex_path)
    problem = build_full(complex_input, _hyperparameters(args, config))
    export_qubo(problem, out_path)
    if not quiet:
        sys.stdout.write(
            json.dumps(
                {
                    "n_vars": problem.n_vars,
                    "n_entries": len(problem.coeffs),
                    "gamma": problem.gamma,
                    "lambdas": list(problem.lambdas),
                    "scales": list(problem.scales),
                    "out": str(out_path),
                },
                indent=2,
            )
            + "\n"
        )
    return 0


def _cmd_solve(args, config, parser) -> int:
    qubo_path = _require(args, config, parser, "qubo", "--qubo")
    problem = import_qubo(qubo_path)
    if _setting(args, config, "exact", False):
        sample_set = brute_force(problem)
    else:
        sample_set = simulated_anneal(problem, _schedule(args, config))
    _write_json(sample_set.to_dict(), _setting(args, config, "out"))
    return 0


def _dock_one(complex_input, args, config):
    return dock(
        complex_input,
        _hyperparameters(args, config),
        _schedule(args, config),
        exact=bool(_setting(args, config, "exact", False)),
    )


def _write_report(make_report, out) -> int:
    """Write make_report()'s report and return 0; when no pose is valid,
    write the failure's report if it carries one, print one error line and
    return 1."""
    try:
        report = make_report()
    except NoValidSolutionError as exc:
        if exc.report is not None:
            _write_json(exc.report.to_dict(), out)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    _write_json(report.to_dict(), out)
    return 0


def _cmd_dock(args, config, parser) -> int:
    complex_path = _setting(args, config, "complex")
    dataset_dir = _setting(args, config, "dataset")
    if bool(complex_path) == bool(dataset_dir):
        parser.error("dock needs exactly one of --complex or --dataset")

    if complex_path:
        return _write_report(
            lambda: _dock_one(load_complex(complex_path), args, config),
            _setting(args, config, "out"),
        )

    out_dir = Path(_require(args, config, parser, "out", "--out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    failures = 0
    for complex_input in _load_dataset(dataset_dir):
        try:
            reports.append(_dock_one(complex_input, args, config))
        except NoValidSolutionError as exc:
            failures += 1
            if exc.report is not None:
                reports.append(exc.report)
    _write_json({"reports": [r.to_dict() for r in reports]}, out_dir / "report.json")
    _write_csv(reports, out_dir / "metrics.csv")
    if failures:
        sys.stderr.write(f"warning: {failures} complex(es) had no valid pose\n")
    return 0


def _cmd_tune(args, config, parser) -> int:
    dataset_dir = _require(args, config, parser, "dataset", "--dataset")
    dataset = _load_dataset(dataset_dir)
    hp_template = Hyperparameters(gamma=_setting(args, config, "gamma"))
    result = greedy_tune(
        dataset,
        _schedule(args, config),
        hp_template=hp_template,
        exact=bool(_setting(args, config, "exact", False)),
    )

    out = _setting(args, config, "out")
    if out is None:
        _write_json(result.to_dict(), None)
        return 0
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(result.to_dict(), out_dir / "tune.json")

    reports = []
    tuned = Hyperparameters(lambdas=result.lambdas, gamma=_setting(args, config, "gamma"))
    for complex_input in dataset:
        try:
            reports.append(
                dock(
                    complex_input,
                    tuned,
                    _schedule(args, config),
                    exact=bool(_setting(args, config, "exact", False)),
                )
            )
        except NoValidSolutionError as exc:
            if exc.report is not None:
                reports.append(exc.report)
    _write_csv(reports, out_dir / "metrics.csv")
    return 0


def _cmd_export(args, config, parser) -> int:
    return _cmd_build(args, config, parser, quiet=True)


def _cmd_report(args, config, parser) -> int:
    complex_path = _require(args, config, parser, "complex", "--complex")
    samples_path = _require(args, config, parser, "samples", "--samples")
    complex_input = load_complex(complex_path)
    problem = build_full(complex_input, _hyperparameters(args, config))
    sample_set = import_samples(problem, samples_path)
    return _write_report(
        lambda: report_from_samples(problem, sample_set, complex_input.name),
        _setting(args, config, "out"),
    )


_HANDLERS = {
    "graph": _cmd_graph,
    "grid": _cmd_grid,
    "build": _cmd_build,
    "solve": _cmd_solve,
    "dock": _cmd_dock,
    "tune": _cmd_tune,
    "export": _cmd_export,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        return _HANDLERS[args.command](args, config, parser)
    except QdockError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: file not found: {exc.filename}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
