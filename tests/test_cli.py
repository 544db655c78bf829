"""Command-line interface: flags, exit codes, files, and reproducibility."""

import argparse
import csv
import json
import re
import resource
import shutil
import subprocess
import sys

import pytest

from qdock import (
    ComplexFormatError,
    Hyperparameters,
    QdockError,
    SampleFormatError,
    build_full,
    import_samples,
    load_complex,
)
from qdock.cli import REPORT_CSV_COLUMNS, _load_config, main

from conftest import FIXTURE_DIR, PLANTED6, TINY4

SUBCOMMANDS = ["graph", "grid", "build", "solve", "dock", "tune", "export", "report"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_cleanly(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--config" in out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_dock_requires_exactly_one_input(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dock"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["dock", "--complex", str(TINY4), "--dataset", str(FIXTURE_DIR)])
    assert excinfo.value.code == 2


def test_missing_complex_file_reports_path(capsys):
    code, _, err = run(capsys, ["graph", "--complex", "/no/such/file.json"])
    assert code == 1
    assert "/no/such/file.json" in err


def test_missing_samples_file_reports_path(capsys, tmp_path):
    missing = tmp_path / "absent.json"
    code, _, err = run(
        capsys, ["report", "--complex", str(TINY4), "--samples", str(missing)]
    )
    assert code == 1
    assert str(missing) in err


@pytest.mark.parametrize(
    "args",
    [
        ["graph", "--complex", "{dir}"],
        ["solve", "--qubo", "{dir}"],
        ["report", "--complex", str(TINY4), "--samples", "{dir}"],
        ["graph", "--complex", str(TINY4), "--config", "{dir}"],
        ["graph", "--complex", str(TINY4), "--out", "{file}/x.json"],
    ],
    ids=["complex-dir", "qubo-dir", "samples-dir", "config-dir", "out-under-file"],
)
def test_unreadable_path_exits_without_traceback(tmp_path, args):
    """A directory where a file is read, or a path through a plain file,
    ends in one error line that names it (the last argument)."""
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    args = [a.format(dir=tmp_path, file=plain) for a in args]
    proc = subprocess.run(
        [sys.executable, "-m", "qdock.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and args[-1] in lines[0]


# Each defect's error line, the same for every reader but for the word
# naming the missing file's kind; None writes no file.
BAD_JSON = {
    "missing": (None, "error: {what} file not found: {path}\n"),
    "syntax-line-2": (b'{"name": "x",\n  nope}', "error: {path}: JSON parse error at line 2, "
                      "column 3: Expecting property name enclosed in double quotes\n"),
    "not-utf8": (b'{"name": "\xff"}', "error: {path}: not readable as JSON ("),
    "too-deep": (b"[" * 200_000 + b"]" * 200_000, "error: {path}: not readable as JSON ("),
}
JSON_READERS = {
    "complex": (["graph", "--complex", "{bad}"], load_complex, ComplexFormatError),
    "samples": (
        ["report", "--complex", str(TINY4), "--samples", "{bad}"],
        lambda path: import_samples(build_full(load_complex(TINY4), Hyperparameters()), path),
        SampleFormatError,
    ),
    "config": (
        ["graph", "--complex", str(TINY4), "--config", "{bad}"],
        lambda path: _load_config(argparse.Namespace(config=str(path))),
        QdockError,
    ),
}


@pytest.mark.parametrize("content", sorted(BAD_JSON))
@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_unreadable_json_exits_naming_the_file(tmp_path, reader, content):
    """A complex, samples or config file that is missing, fails to decode,
    is not UTF-8 or nests past the recursion limit: the reader's domain
    error naming the file, and one error line of the same form for all three."""
    path = tmp_path / "bad.json"
    data, line = BAD_JSON[content]
    if data is not None:
        path.write_bytes(data)
    args, read, error = JSON_READERS[reader]
    args = [a.format(bad=path) for a in args]
    proc = subprocess.run(
        [sys.executable, "-m", "qdock.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(line.format(what=reader, path=path))
    with pytest.raises(error, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize(
    "break_doc, where",
    [
        (lambda doc: doc["protein"][0].pop("id"), "protein[0].id"),
        (lambda doc: doc.__setitem__("type_table", [0.1]), "type_table"),
        (lambda doc: doc.__setitem__("dielectric", None), "dielectric"),
        (
            lambda doc: doc["ligand"]["bonds"][0].__setitem__("atoms", [None, 2]),
            "ligand.bonds[0].atoms",
        ),
        (
            lambda doc: doc["protein"][0].__setitem__("donor_hydrogens", 5),
            "protein[0].donor_hydrogens",
        ),
    ],
    ids=["missing-id", "type-table-list", "dielectric-null", "bond-atom-null", "hydrogens-int"],
)
def test_malformed_complex_exits_without_traceback(tmp_path, break_doc, where):
    doc = json.loads(TINY4.read_text())
    break_doc(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "qdock.cli", "graph", "--complex", str(bad)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and where in lines[0]


@pytest.mark.parametrize("command", ["build", "dock"])
def test_non_finite_coefficients_exit_without_traceback(tmp_path, command):
    out = tmp_path / "huge.out"
    proc = subprocess.run(
        [sys.executable, "-m", "qdock.cli", command, "--complex", str(TINY4),
         "--gamma", "1e308", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "'penalty'" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [["--lambdas", "0,0,nan,0,0", "--gamma", "5"], ["--lambdas", "0,0,0,0,inf"], ["--gamma", "inf"]],
    ids=["nan-lambda", "inf-lambda", "inf-gamma"],
)
def test_non_finite_weights_exit_without_output(capsys, flags):
    # planted6 has no H-bond acceptor signal, so a NaN weight on hba would
    # otherwise reach only the report's metadata.
    code, out, err = run(capsys, ["dock", "--complex", str(PLANTED6), "--exact", *flags])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "and finite" in err and "NaN" not in err


@pytest.mark.parametrize("command", ["build", "dock"])
def test_far_coordinate_exits_without_traceback(tmp_path, command):
    doc = json.loads(TINY4.read_text())
    doc["grid_points"][0]["position"] = [1e200, 0.0, 0.0]
    bad = tmp_path / "far.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "far.out"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qdock.cli", command,
         "--complex", str(bad), "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: grid_points[0].position[0]: ")
    assert not out.exists()


def test_grid_with_non_finite_colouring_exits_without_output(tmp_path, capsys):
    doc = json.loads(TINY4.read_text())
    doc["dielectric"] = 1e-320
    bad = tmp_path / "tiny-dielectric.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "grid.json"
    code, stdout, err = run(capsys, ["grid", "--complex", str(bad), "--out", str(out)])
    assert code == 1
    assert err == "error: non-finite Coulomb potential at grid point 101\n"
    assert not out.exists() and "NaN" not in stdout


COINCIDENT_ARGS = {
    "grid": [],
    "build": ["--out", "{tmp}/p.qubo"],
    "export": ["--out", "{tmp}/p.qubo"],
    "dock": ["--exact", "--gamma", "5"],
    "tune": ["--exact", "--gamma", "5"],
    "report": ["--samples", "{tmp}/samples.json"],
}


@pytest.mark.parametrize("command", sorted(COINCIDENT_ARGS))
def test_coincident_grid_points_exit_naming_them(tmp_path, capsys, command):
    """tiny4 with grid point 102 moved onto 101: the document parses, and
    every command that builds the grid prints one error line naming both."""
    doc = json.loads(TINY4.read_text())
    doc["grid_points"][1]["position"] = doc["grid_points"][0]["position"]
    bad = tmp_path / "set" / "tiny4-coincident.json"
    bad.parent.mkdir()
    bad.write_text(json.dumps(doc))
    (tmp_path / "samples.json").write_text("[]")
    source = ["--dataset", str(bad.parent)] if command == "tune" else ["--complex", str(bad)]
    extra = [arg.format(tmp=tmp_path) for arg in COINCIDENT_ARGS[command]]
    code, out, err = run(capsys, [command, *source, *extra])
    assert (code, out, err) == (1, "", "error: grid points 101 and 102 coincide\n")
    assert not (tmp_path / "p.qubo").exists()
    code, out, err = run(capsys, ["graph", "--complex", str(bad)])
    assert code == 0 and err == "" and json.loads(out)["n_atoms"] == len(doc["ligand"]["atoms"])


@pytest.mark.parametrize("reads", [1, 8])
def test_sa_on_a_coefficient_near_the_float_limit_does_not_warn(tmp_path, reads):
    """A finite 1e308 coefficient passes `window_scale`; over temperatures
    below 1 it overflows SA's two divisions to inf, which must not warn."""
    path = tmp_path / "big.qubo"
    path.write_text("p qubo 3 4\n0 0 1e308\n0 1 -2.0\n1 1 0.5\n2 2 -1.0\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "qdock.cli", "solve", "--qubo", str(path),
         "--reads", str(reads), "--sweeps", "50"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout, parse_constant=pytest.fail)
    assert len(doc["samples"]) == reads and doc["samples"][0]["bits"] == "001"


def test_unallocatable_qubo_exits_without_traceback(tmp_path):
    huge = tmp_path / "huge.qubo"
    huge.write_text("p qubo 100000000 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "qdock.cli", "solve", "--qubo", str(huge)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "100000000" in lines[0]


def test_qubo_past_the_dense_limit_exits_naming_it(capsys, tmp_path):
    wide = tmp_path / "wide.qubo"
    wide.write_text("p qubo 40000 0\n")
    code, out, err = run(capsys, ["solve", "--qubo", str(wide)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "DENSE_MAX_VARS" in err and "40000" in err


def _cap_address_space():
    """Run the child under a 4 GB address-space limit, so an allocation no
    host could hold fails at once on any overcommit setting."""
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


@pytest.mark.parametrize("reads, sweeps", [(1, 10**11), (10**11, 1)])
def test_impossible_reads_or_sweeps_exit_without_traceback(reads, sweeps):
    """A temperature ladder of 10^11 sweeps, or bits for 10^11 reads, cannot
    be allocated: one error line at once, before a generator per read."""
    proc = subprocess.run(
        [sys.executable, "-m", "qdock.cli", "dock", "--complex", str(PLANTED6), "--gamma", "5",
         "--reads", str(reads), "--sweeps", str(sweeps)],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: ")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qdock.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "qdock" in proc.stdout


# ------------------------------------------------------------- inspection

def test_graph_lists_edges_by_atom_id(capsys):
    code, out, _ = run(capsys, ["graph", "--complex", str(TINY4)])
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "tiny4"
    assert doc["n_atoms"] == 4
    kinds = sorted(e["kind"] for e in doc["edges"])
    assert kinds == sorted(
        ["connectivity"] * 3 + ["bond_angle"] * 2 + ["dihedral"]
    )
    for edge in doc["edges"]:
        assert edge["i"] in (1, 2, 3, 4) and edge["j"] in (1, 2, 3, 4)


def test_grid_reports_colorings(capsys):
    code, out, _ = run(capsys, ["grid", "--complex", str(TINY4)])
    assert code == 0
    doc = json.loads(out)
    assert [p["id"] for p in doc["points"]] == [101, 102, 103, 104, 105, 106]
    point = doc["points"][0]
    for key in ("position", "coulomb", "lj", "hb_acceptor", "hb_donor", "hydrophobic"):
        assert key in point
    assert [p["hb_donor"] for p in doc["points"]] == [0, 0, 1, 0, 0, 0]


# ----------------------------------------------------------- build / export

def test_build_writes_coordinate_file(capsys, tmp_path):
    out_file = tmp_path / "tiny4.qubo"
    code, out, _ = run(
        capsys,
        [
            "build",
            "--complex", str(TINY4),
            "--lambdas", "1,1,1,1,1",
            "--gamma", "25",
            "--out", str(out_file),
        ],
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["n_vars"] == 24
    assert summary["gamma"] == 25.0
    header = out_file.read_text().splitlines()[0]
    assert header == f"p qubo 24 {summary['n_entries']}"


def test_export_is_quiet_build(capsys, tmp_path):
    built = tmp_path / "a.qubo"
    exported = tmp_path / "b.qubo"
    run(capsys, ["build", "--complex", str(PLANTED6), "--gamma", "5", "--out", str(built)])
    code, out, _ = run(
        capsys, ["export", "--complex", str(PLANTED6), "--gamma", "5", "--out", str(exported)]
    )
    assert code == 0
    assert out == ""
    assert exported.read_bytes() == built.read_bytes()


# ----------------------------------------------------------------- solve

def test_solve_exact_finds_ground_state(capsys, tmp_path):
    qubo = tmp_path / "p6.qubo"
    run(
        capsys,
        [
            "export",
            "--complex", str(PLANTED6),
            "--lambdas", "0,0,0,0,0.05",
            "--gamma", "5",
            "--out", str(qubo),
        ],
    )
    code, out, _ = run(capsys, ["solve", "--qubo", str(qubo), "--exact"])
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["solver"] == "brute_force"
    energies = [s["energy"] for s in doc["samples"]]
    assert energies == sorted(energies)

    from qdock import Hyperparameters, brute_force, build_full, import_qubo, load_complex

    assert energies[0] == brute_force(import_qubo(qubo)).best.energy
    # The coordinate file drops the constant offset, nothing else.
    problem = build_full(
        load_complex(PLANTED6), Hyperparameters(lambdas=(0, 0, 0, 0, 0.05), gamma=5.0)
    )
    assert energies[0] == pytest.approx(
        brute_force(problem).best.energy - problem.offset, rel=1e-12
    )


def test_solve_annealer_matches_library(capsys, tmp_path):
    qubo = tmp_path / "p6.qubo"
    run(capsys, ["export", "--complex", str(PLANTED6), "--gamma", "5", "--out", str(qubo)])
    code, out, _ = run(
        capsys,
        ["solve", "--qubo", str(qubo), "--reads", "4", "--sweeps", "60", "--seed", "3"],
    )
    assert code == 0
    doc = json.loads(out)

    from qdock import AnnealSchedule, import_qubo, simulated_anneal

    expected = simulated_anneal(
        import_qubo(qubo), AnnealSchedule(n_reads=4, n_sweeps=60, seed=3)
    )
    assert doc == expected.to_dict()


def test_solve_requires_qubo_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["solve"])
    assert excinfo.value.code == 2


# ------------------------------------------------------------------- dock

DOCK_ARGS = [
    "--lambdas", "0,0,0,0,0.05",
    "--gamma", "5",
    "--reads", "10",
    "--sweeps", "200",
    "--seed", "7",
]


def test_dock_single_complex_reruns_identically(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    code, _, _ = run(
        capsys, ["dock", "--complex", str(PLANTED6), *DOCK_ARGS, "--out", str(first)]
    )
    assert code == 0
    run(capsys, ["dock", "--complex", str(PLANTED6), *DOCK_ARGS, "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["valid"] is True
    assert doc["pose"]["mapping"] == {"1": 201, "2": 202, "3": 203}


def test_dock_output_independent_of_threads(capsys, tmp_path):
    lone = tmp_path / "t1.json"
    multi = tmp_path / "t4.json"
    run(
        capsys,
        ["dock", "--complex", str(PLANTED6), *DOCK_ARGS, "--threads", "1", "--out", str(lone)],
    )
    run(
        capsys,
        ["dock", "--complex", str(PLANTED6), *DOCK_ARGS, "--threads", "4", "--out", str(multi)],
    )
    assert lone.read_bytes() == multi.read_bytes()


def test_dock_dataset_writes_report_and_csv(capsys, tmp_path):
    out_dir = tmp_path / "batch"
    code, _, _ = run(
        capsys,
        [
            "dock",
            "--dataset", str(FIXTURE_DIR),
            "--reads", "10",
            "--sweeps", "200",
            "--seed", "7",
            "--out", str(out_dir),
        ],
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    names = [entry["name"] for entry in report["reports"]]
    assert names == ["planted6", "tiny4"]  # dataset is read in sorted order
    with open(out_dir / "metrics.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert list(rows[0].keys()) == REPORT_CSV_COLUMNS
    assert [row["name"] for row in rows] == names


def test_dock_without_valid_pose_fails_with_report(capsys, tmp_path):
    # Three-atom chain whose bond lengths no grid pair reproduces; with a
    # negligible penalty weight and a single short read the annealer stays
    # on invalid states.
    doc = {
        "protein": [],
        "ligand": {
            "atoms": [
                {"id": k + 1, "position": [1.3 * k, 0.0, 0.0], "charge": 0.0, "type_index": 0}
                for k in range(3)
            ],
            "bonds": [{"atoms": [1, 2]}, {"atoms": [2, 3]}],
        },
        "grid_points": [
            {"id": 100 + k, "position": [7.0 * k, 3.0, 0.0]} for k in range(6)
        ],
        "type_table": {"epsilon": [0.2], "r_min": [1.5]},
    }
    complex_path = tmp_path / "strained.json"
    complex_path.write_text(json.dumps(doc))
    out_file = tmp_path / "strained_report.json"
    code, _, err = run(
        capsys,
        [
            "dock",
            "--complex", str(complex_path),
            "--gamma", "1e-6",
            "--reads", "1",
            "--sweeps", "1",
            "--seed", "0",
            "--out", str(out_file),
        ],
    )
    assert code == 1
    assert "no sample decodes to a valid pose" in err
    failed = json.loads(out_file.read_text())
    assert failed["valid"] is False
    assert failed["valid_solution_rate"] == 0.0


# ------------------------------------------------------------------- tune

def test_tune_recovers_planted_interaction(capsys, tmp_path):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    shutil.copy(PLANTED6, dataset / "planted6.json")
    code, out, _ = run(
        capsys, ["tune", "--dataset", str(dataset), "--gamma", "5", "--exact"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lambdas"] == [0.0, 0.0, 0.0, 0.0, 0.2]
    assert doc["baseline_mean"] == 6.4375
    assert doc["selection_order"][0]["interaction"] == "hydro"
    assert doc["selection_order"][0]["mean_adjusted_rmsd"] == 0.0


def test_tune_out_directory_contains_trace_and_metrics(capsys, tmp_path):
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    shutil.copy(PLANTED6, dataset / "planted6.json")
    out_dir = tmp_path / "tuned"
    code, _, _ = run(
        capsys,
        ["tune", "--dataset", str(dataset), "--gamma", "5", "--exact", "--out", str(out_dir)],
    )
    assert code == 0
    tune_doc = json.loads((out_dir / "tune.json").read_text())
    assert tune_doc["lambdas"] == [0.0, 0.0, 0.0, 0.0, 0.2]
    with open(out_dir / "metrics.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 1
    assert rows[0]["name"] == "planted6"
    assert float(rows[0]["adjusted_rmsd"]) == 0.0


def test_tune_takes_no_lambdas(capsys, tmp_path):
    # tune searches the lambdas; a given value would be ignored.
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    shutil.copy(PLANTED6, dataset / "planted6.json")
    with pytest.raises(SystemExit) as excinfo:
        main(["tune", "--dataset", str(dataset), "--gamma", "5", "--exact", "--lambdas", "9,9,9,9,9"])
    assert excinfo.value.code == 2
    assert "--lambdas" in capsys.readouterr().err


def test_tune_rejects_lambdas_in_its_config(capsys, tmp_path):
    # A config's lambdas would be ignored like the flag; the key is named.
    dataset = tmp_path / "dataset"
    dataset.mkdir()
    shutil.copy(PLANTED6, dataset / "planted6.json")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambdas": [9, 9, 9, 9, 9]}))
    argv = ["tune", "--dataset", str(dataset), "--gamma", "5", "--exact", "--config", str(config)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "config lambdas" in err
    # A null value means "not set", as for every config key.
    config.write_text(json.dumps({"lambdas": None}))
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["lambdas"] == [0, 0, 0, 0, 0.2]


def test_tune_empty_dataset_dir_fails(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(capsys, ["tune", "--dataset", str(empty)])
    assert code == 1
    assert "no complex JSON files" in err


# ------------------------------------------------------------------ report

def test_report_scores_external_samples(capsys, tmp_path):
    # The planted pose as a bitstring: atom k on grid point k (6 points).
    bits = ["0"] * 18
    for atom, point in enumerate((0, 1, 2)):
        bits[atom * 6 + point] = "1"
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(["0" * 18, "".join(bits)]))
    code, out, _ = run(
        capsys,
        [
            "report",
            "--complex", str(PLANTED6),
            "--samples", str(samples),
            "--lambdas", "0,0,0,0,0.05",
            "--gamma", "5",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["pose"]["mapping"] == {"1": 201, "2": 202, "3": 203}
    assert doc["valid_solution_rate"] == 0.5
    assert doc["metadata"]["solver"] == "external"


def test_report_with_only_invalid_samples_fails(capsys, tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(["0" * 18]))
    out_file = tmp_path / "failed.json"
    code, _, err = run(
        capsys,
        [
            "report",
            "--complex", str(PLANTED6),
            "--samples", str(samples),
            "--gamma", "5",
            "--out", str(out_file),
        ],
    )
    assert code == 1
    assert "no sample decodes" in err
    assert json.loads(out_file.read_text())["valid"] is False


# ------------------------------------------------------------------ config

def test_config_supplies_defaults_and_flags_win(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "lambdas": [0, 0, 0, 0, 0.05],
                "gamma": 5.0,
                "reads": 10,
                "sweeps": 200,
                "seed": 7,
            }
        )
    )
    via_config = tmp_path / "via_config.json"
    via_flags = tmp_path / "via_flags.json"
    code, _, _ = run(
        capsys,
        ["dock", "--complex", str(PLANTED6), "--config", str(config), "--out", str(via_config)],
    )
    assert code == 0
    run(capsys, ["dock", "--complex", str(PLANTED6), *DOCK_ARGS, "--out", str(via_flags)])
    assert via_config.read_bytes() == via_flags.read_bytes()

    # An explicit flag overrides the config value.
    overridden = tmp_path / "override.json"
    pure = tmp_path / "pure.json"
    run(
        capsys,
        [
            "dock",
            "--complex", str(PLANTED6),
            "--config", str(config),
            "--seed", "9",
            "--out", str(overridden),
        ],
    )
    run(
        capsys,
        [
            "dock",
            "--complex", str(PLANTED6),
            "--lambdas", "0,0,0,0,0.05",
            "--gamma", "5",
            "--reads", "10",
            "--sweeps", "200",
            "--seed", "9",
            "--out", str(pure),
        ],
    )
    assert overridden.read_bytes() == pure.read_bytes()
    assert overridden.read_bytes() != via_config.read_bytes()


def test_config_errors(capsys, tmp_path):
    code, _, err = run(
        capsys, ["graph", "--complex", str(TINY4), "--config", str(tmp_path / "no.json")]
    )
    assert code == 1 and "config file not found" in err

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    code, _, err = run(capsys, ["graph", "--complex", str(TINY4), "--config", str(bad)])
    assert code == 1 and "must be a JSON object" in err

    bad.write_text(json.dumps({"lambdas": [1, 2]}))
    code, _, err = run(capsys, ["graph", "--complex", str(TINY4), "--config", str(bad)])
    assert code == 1 and "lambdas" in err

    # A value of the wrong JSON type is named, not a TypeError traceback.
    for key, value in [("gamma", "auto"), ("reads", "5"), ("seed", 1.5), ("gamma", 10**400)]:
        bad.write_text(json.dumps({key: value}))
        code, _, err = run(capsys, ["dock", "--complex", str(PLANTED6), "--config", str(bad)])
        assert code == 1 and f"config {key} must be" in err
        assert err.startswith("error:") and "Traceback" not in err
