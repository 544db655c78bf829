"""Generated malformed inputs through the command line.

Every input file the CLI reads is mutated: leaves of both fixture
complexes, lines of a built coordinate file, and a samples file and a
config file. Each run of `cli.main`, with every warning an error, must
either exit 0 and print strict, finite JSON, or exit 1 with one `error:`
line and nothing else on stderr.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdock import Hyperparameters, build_full, export_qubo, load_complex
from qdock.cli import main

from conftest import PLANTED6, TINY4

FIXTURES = {path.stem: json.loads(path.read_text()) for path in (TINY4, PLANTED6)}
DELETE = object()
VALUES = [None, "", "x", [], {}, 1e308, -1e308, 1e-320, math.nan, math.inf, -math.inf,
          True, False, 2**63, 0, -1, DELETE]
SA = ["--reads", "2", "--sweeps", "10"]
SAMPLES = ["0" * 24, "1" * 24, "100000010000001000000100"]
CONFIG = {"reads": 2, "sweeps": 10, "seed": 3, "gamma": 5.0, "lambdas": [0, 0, 0, 0, 0.1],
          "exact": False}


def leaves(doc, path=()):
    """Paths to the scalars and empty containers of a document, descending
    into the first three items of each list."""
    if isinstance(doc, (dict, list)) and doc:
        keys = doc.keys() if isinstance(doc, dict) else range(min(len(doc), 3))
        for key in keys:
            yield from leaves(doc[key], (*path, key))
    else:
        yield path


def mutated(doc, path, value) -> str:
    """The document as JSON text with the leaf at `path` replaced by
    `value`, or deleted; NaN and infinities are written as Python writes them."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc)


def leaf_edits(doc):
    """`doc` as JSON text with one leaf replaced or deleted."""
    return st.builds(mutated, st.just(doc), st.sampled_from(list(leaves(doc))), st.sampled_from(VALUES))


def json_edits(doc):
    """A leaf edit of `doc`, or its JSON text cut short."""
    text = json.dumps(doc)
    return st.one_of(leaf_edits(doc), st.integers(0, len(text) - 1).map(lambda cut: text[:cut]))


def reject(constant):
    raise AssertionError(f"not strict JSON: {constant}")


def run(argv) -> None:
    """Run the CLI with warnings as errors and check its outcome."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=reject)
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert code == 1, argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)


@contextlib.contextmanager
def written(text: str, name: str):
    """A temporary directory holding `text` in a file of the given name."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text, encoding="utf-8")
        yield path


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), name=st.sampled_from(sorted(FIXTURES)))
def test_mutated_complexes_exit_cleanly(data, name):
    text = data.draw(leaf_edits(FIXTURES[name]))
    with written(text, f"{name}.json") as path:
        complex_args = ["--complex", str(path)]
        run(["grid", *complex_args])
        run(["build", *complex_args, "--out", str(path.with_suffix(".qubo"))])
        run(["dock", *complex_args, "--exact"])
        run(["dock", *complex_args, *SA])


def coordinate_lines() -> list[str]:
    with written("", "planted6.qubo") as path:
        export_qubo(build_full(load_complex(PLANTED6), Hyperparameters(gamma=5.0)), path)
        return path.read_text().splitlines()


LINES = coordinate_lines()
TOKENS = ["1e308", "-1e308", "nan", "inf", "1e-320", "-0.0", "x", "", "18", "-1", "0",
          "9223372036854775808", "0.5", "1e400"]


@st.composite
def line_edits(draw):
    """The coordinate file with one line's value or any one field of it
    replaced, the whole line replaced, or the line deleted or repeated."""
    lines = list(LINES)
    k = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(["value", "field", "line", "delete", "repeat"]))
    if kind in ("value", "field"):
        fields = lines[k].split(" ")
        at = -1 if kind == "value" else draw(st.integers(0, len(fields) - 1))
        fields[at] = draw(st.sampled_from(TOKENS))
        lines[k] = " ".join(fields)
    elif kind == "line":
        lines[k] = draw(st.sampled_from(["", "p qubo 18 0", "0 0", "0 0 1.0 2.0", "\x00", *TOKENS]))
    elif kind == "delete":
        del lines[k]
    else:
        lines.insert(k, lines[k])
    return "\n".join(lines) + "\n"


# A finite coefficient near the float limit: SA divides it by temperatures below 1.
NEAR_LIMIT = "\n".join([LINES[0], f"{LINES[1].rsplit(' ', 1)[0]} 1e308", *LINES[2:]]) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(text=line_edits())
@example(text=NEAR_LIMIT)
def test_edited_coordinate_files_exit_cleanly(text):
    with written(text, "planted6.qubo") as path:
        run(["solve", "--qubo", str(path), "--exact"])
        run(["solve", "--qubo", str(path), *SA])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(text=json_edits(SAMPLES))
def test_mutated_samples_files_exit_cleanly(text):
    with written(text, "samples.json") as path:
        run(["report", "--complex", str(TINY4), "--samples", str(path), "--gamma", "5"])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(text=json_edits(CONFIG))
def test_mutated_config_files_exit_cleanly(text):
    with written(text, "config.json") as path:
        run(["graph", "--complex", str(TINY4), "--config", str(path)])
