"""Coordinate-list QUBO files: export format and exact round-trip."""

import collections
import io
import math
import os
import random
import threading
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdock import (
    GraphBuildError,
    Hyperparameters,
    QdockError,
    QuboFormatError,
    QuboProblem,
    build_full,
    export_qubo,
    import_qubo,
    load_complex,
    parse_complex,
)

from qdock import qubofile
from qdock.anneal import DENSE_MAX_VARS, _dense

from conftest import PLANTED6, TINY4, shuffled_map
from test_properties import qubos
from test_qubo import complex_docs, hyperparameters


def toy_problem(coeffs, n_vars=2):
    return QuboProblem(
        n_mol=1,
        n_grid=n_vars,
        coeffs=dict(coeffs),
        term_coeffs={"imported": dict(coeffs)},
    )


def test_two_entry_export_format(tmp_path):
    path = tmp_path / "toy.qubo"
    export_qubo(toy_problem({(0, 0): 1.5, (0, 1): -2.0}), path)
    lines = path.read_text().splitlines()
    assert lines == ["p qubo 2 2", "0 0 1.5", "0 1 -2.0"]


def test_empty_problem_exports_header_only(tmp_path):
    path = tmp_path / "empty.qubo"
    export_qubo(toy_problem({}, n_vars=0), path)
    assert path.read_text() == "p qubo 0 0\n"
    back = import_qubo(path)
    assert back.coeffs == {} and back.n_vars == 0


def test_entries_sorted_by_index(tmp_path):
    path = tmp_path / "sorted.qubo"
    coeffs = {(1, 1): 3.0, (0, 0): 1.0, (0, 1): 2.0}
    export_qubo(toy_problem(coeffs), path)
    body = path.read_text().splitlines()[1:]
    assert body == ["0 0 1.0", "0 1 2.0", "1 1 3.0"]


def test_awkward_floats_round_trip_exactly(tmp_path):
    values = {
        (0, 0): 0.1 + 0.2,
        (0, 1): -1.0 / 3.0,
        (1, 1): 1e-17,
        (2, 2): 12345678.987654321,
        (0, 3): -2.0**-52,
    }
    path = tmp_path / "floats.qubo"
    export_qubo(toy_problem(values, n_vars=4), path)
    back = import_qubo(path)
    assert back.coeffs == values  # bit-exact, not approximate


@pytest.mark.parametrize("fixture_path", [TINY4, PLANTED6])
def test_fixture_problem_round_trip(tmp_path, fixture_path):
    cx = load_complex(fixture_path)
    problem = build_full(cx, Hyperparameters(lambdas=(1.0,) * 5, gamma=25.0))
    path = tmp_path / "full.qubo"
    export_qubo(problem, path)
    back = import_qubo(path)
    assert back.n_vars == problem.n_vars
    assert back.coeffs == problem.coeffs
    # A second hop through the format changes nothing.
    again = tmp_path / "again.qubo"
    export_qubo(back, again)
    assert import_qubo(again).coeffs == problem.coeffs


def test_imported_problem_shape(tmp_path):
    path = tmp_path / "toy.qubo"
    export_qubo(toy_problem({(0, 1): -2.0}), path)
    back = import_qubo(path)
    assert back.n_mol == 1 and back.n_grid == 2
    assert back.offset == 0.0
    assert list(back.term_coeffs) == ["imported"]
    assert not back.has_decode_context()


def write(tmp_path, text):
    path = tmp_path / "bad.qubo"
    path.write_text(text)
    return path


def test_missing_file_rejected(tmp_path):
    with pytest.raises(QuboFormatError, match="not found"):
        import_qubo(tmp_path / "absent.qubo")


def test_malformed_headers_rejected(tmp_path):
    with pytest.raises(QuboFormatError, match="empty file"):
        import_qubo(write(tmp_path, ""))
    with pytest.raises(QuboFormatError, match="malformed header"):
        import_qubo(write(tmp_path, "c qubo 2 1\n0 0 1.0\n"))
    with pytest.raises(QuboFormatError, match="malformed header"):
        import_qubo(write(tmp_path, "p qubo 2\n"))
    with pytest.raises(QuboFormatError, match="non-integer counts"):
        import_qubo(write(tmp_path, "p qubo two 1\n0 0 1.0\n"))
    with pytest.raises(QuboFormatError, match="negative counts"):
        import_qubo(write(tmp_path, "p qubo -2 0\n"))
    # The header has the body's grammar: ASCII fields separated by spaces
    # or tabs, and ASCII decimal counts.
    malformed = ["p qubo ١٠ 0", "p qubo 2 ٠", "p\x85qubo 2 0", "p qubo\xa02 0", "p qubo 2 0\x0c"]
    non_integer = ["p qubo 1_0 0", "p qubo 2 0x0", "p qubo 2.0 0", "p qubo 2 1e0"]
    for error, headers in [("malformed header", malformed), ("non-integer counts in header", non_integer)]:
        for header in headers:
            path = write(tmp_path, header + "\n")
            with pytest.raises(QuboFormatError) as err:
                import_qubo(path)
            assert str(err.value) == f"{path}:1: {error} {header!r}"
    assert import_qubo(write(tmp_path, "p\tqubo  +2 \t0\n")).n_vars == 2


def test_malformed_entries_rejected(tmp_path):
    with pytest.raises(QuboFormatError, match="expected 'i j value'"):
        import_qubo(write(tmp_path, "p qubo 2 1\n0 0 1.0 extra\n"))
    with pytest.raises(QuboFormatError, match="malformed entry"):
        import_qubo(write(tmp_path, "p qubo 2 1\n0 zero 1.0\n"))
    with pytest.raises(QuboFormatError, match="outside upper triangle"):
        import_qubo(write(tmp_path, "p qubo 2 1\n1 0 1.0\n"))
    with pytest.raises(QuboFormatError, match="outside upper triangle"):
        import_qubo(write(tmp_path, "p qubo 2 1\n0 2 1.0\n"))
    with pytest.raises(QuboFormatError, match="non-finite"):
        import_qubo(write(tmp_path, "p qubo 2 1\n0 1 nan\n"))
    with pytest.raises(QuboFormatError, match="non-finite"):
        import_qubo(write(tmp_path, "p qubo 2 1\n0 1 inf\n"))
    with pytest.raises(QuboFormatError, match="duplicate entry"):
        import_qubo(write(tmp_path, "p qubo 2 2\n0 1 1.0\n0 1 2.0\n"))
    with pytest.raises(QuboFormatError, match="announces 3 entries, found 1"):
        import_qubo(write(tmp_path, "p qubo 2 3\n0 1 1.0\n"))


def test_error_messages_carry_line_numbers(tmp_path):
    path = write(tmp_path, "p qubo 4 2\n0 1 1.0\n3 2 1.0\n")
    with pytest.raises(QuboFormatError, match=r"bad\.qubo:3"):
        import_qubo(path)


# ------------------------------------------------- parity with the line loop

def reference_import(path):
    """The line-by-line parser that `import_qubo` replaced, kept as the
    oracle for what the array parser accepts and the errors it raises."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        raise QuboFormatError(f"QUBO file not found: {path}") from None

    if not lines:
        raise QuboFormatError(f"{path}: empty file, expected 'p qubo' header")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "p" or header[1] != "qubo":
        raise QuboFormatError(f"{path}:1: malformed header {lines[0]!r}")
    try:
        n_vars = int(header[2])
        n_entries = int(header[3])
    except ValueError:
        raise QuboFormatError(f"{path}:1: non-integer counts in header {lines[0]!r}") from None
    if n_vars < 0 or n_entries < 0:
        raise QuboFormatError(f"{path}:1: negative counts in header")

    coeffs = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise QuboFormatError(f"{path}:{lineno}: expected 'i j value', got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
            value = float(parts[2])
        except ValueError:
            raise QuboFormatError(f"{path}:{lineno}: malformed entry {line!r}") from None
        if not 0 <= a <= b < n_vars:
            raise QuboFormatError(
                f"{path}:{lineno}: indices ({a}, {b}) outside upper triangle of {n_vars} variables"
            )
        if not math.isfinite(value):
            raise QuboFormatError(f"{path}:{lineno}: non-finite coefficient {parts[2]!r}")
        if (a, b) in coeffs:
            raise QuboFormatError(f"{path}:{lineno}: duplicate entry for ({a}, {b})")
        coeffs[(a, b)] = value
    if len(coeffs) != n_entries:
        raise QuboFormatError(
            f"{path}: header announces {n_entries} entries, found {len(coeffs)}"
        )
    return QuboProblem(n_mol=1, n_grid=n_vars, coeffs=coeffs, term_coeffs={"imported": coeffs})


def outcome(parse, path):
    """What a parser makes of a file: its map (keys in order, values by
    float.hex) or its error message."""
    try:
        problem = parse(path)
    except QuboFormatError as exc:
        return "error", str(exc)
    return "ok", problem.n_vars, [(key, value.hex()) for key, value in problem.coeffs.items()]


EDGE_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1.7e308, -1.7e308, 0.1 + 0.2, -1.0 / 3.0]
value_floats = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.floats(allow_nan=False, allow_infinity=False),
)
ID_SPELLINGS = ["{}", "+{}", "0{}"]
VALUE_SPELLINGS = ["{!r}", "{:.17e}", "{:+.17g}"]
SEPARATORS = [" ", "\t", "  ", " \t "]
PADS = ["", " ", "\t"]
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def body_lines(draw):
    """A header's n_vars and a valid body: distinct upper-triangle entries
    in any order, with varied spellings, separators and padding."""
    n_vars = draw(st.integers(1, 6))
    slots = [(a, b) for a in range(n_vars) for b in range(a, n_vars)]
    keys = draw(st.lists(st.sampled_from(slots), unique=True, max_size=len(slots)))
    lines = []
    for a, b in keys:
        fields = [
            draw(st.sampled_from(ID_SPELLINGS)).format(a),
            draw(st.sampled_from(ID_SPELLINGS)).format(b),
            draw(st.sampled_from(VALUE_SPELLINGS)).format(draw(value_floats)),
        ]
        sep = st.sampled_from(SEPARATORS)
        line = draw(st.sampled_from(PADS)) + draw(sep).join(fields) + draw(st.sampled_from(PADS))
        lines.append(line)
    return n_vars, lines


def render(draw, n_vars, n_entries, lines):
    """Header plus body lines, each with a drawn line ending; the last line
    may have none."""
    text = f"p qubo {n_vars} {n_entries}" + draw(st.sampled_from(ENDINGS))
    for k, line in enumerate(lines):
        last = k == len(lines) - 1
        text += line + draw(st.sampled_from(ENDINGS + [""] if last else ENDINGS))
    return text


def mutate(draw, kind, n_vars, lines):
    """Apply one defect to the body; returns the change to the header count."""
    at = draw(st.integers(0, len(lines))) if lines else 0
    if kind == "duplicate" and lines:
        k = draw(st.integers(0, len(lines) - 1))
        lines.insert(max(at, k + 1), lines[k])
        return 1
    if kind == "blank":
        lines.insert(at, draw(st.sampled_from(["", " ", " \t "])))
        return 0
    if kind == "count":
        return draw(st.sampled_from([-1, 1]))
    inserted = {
        "i > j": f"{max(1, n_vars - 1)} 0 1.5",
        "j >= n_vars": f"0 {n_vars + draw(st.integers(0, 2))} 2.5",
        "negative id": "-1 0 1.0",
        "non-finite": "0 0 " + draw(st.sampled_from(["nan", "inf", "-inf", "-Infinity"])),
        "overflow": "0 0 " + draw(st.sampled_from(["1e999", "-1.8e308"])),
    }
    if kind in inserted:
        lines.insert(at, inserted[kind])
        return 1
    if not lines:
        return 0
    k = min(at, len(lines) - 1)
    fields = lines[k].split()
    if len(fields) != 3:
        return 0  # a line that an earlier defect blanked or reshaped
    if kind == "missing field":
        fields.pop(draw(st.integers(0, 2)))
    elif kind == "extra field":
        fields.insert(draw(st.integers(0, 3)), "7")
    elif kind == "non-numeric":
        bad = ["x", "1x", "one", "0x1", "1.0.0", "--1", "+", "e5", "1e"]
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(bad))
    elif kind == "float id":
        j = draw(st.integers(0, 1))
        fields[j] = draw(st.sampled_from(["{}.0", "{}e0", "{}."])).format(fields[j])
    lines[k] = " ".join(fields)
    return 0


MUTATIONS = [
    "missing field", "extra field", "non-numeric", "float id", "i > j", "j >= n_vars",
    "negative id", "non-finite", "overflow", "duplicate", "blank", "count",
]


@st.composite
def coordinate_files(draw):
    """File text and its announced count: valid files, and files with up to
    two defects anywhere in them (so first-bad-line precedence is tested)."""
    n_vars, lines = draw(body_lines())
    n_entries = len(lines)
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        n_entries += mutate(draw, kind, n_vars, lines)
    return render(draw, n_vars, n_entries, lines), n_vars, n_entries


def assert_matches_reference_parser(folder, case):
    text, n_vars, n_entries = case
    path = folder / "parity.qubo"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(import_qubo, path)
    want = outcome(reference_import, path)
    if n_entries > n_vars * (n_vars + 1) // 2:
        # An intended departure: a count no body can meet is refused at the
        # header, before the body is read. The other is the header grammar
        # (`test_malformed_headers_rejected`), which these headers meet.
        assert want[0] == "error"
        assert got[0] == "error" and f"{path}:1: header announces" in got[1], got
    else:
        assert got == want


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=coordinate_files())
def test_import_matches_reference_parser(tmp_path_factory, case):
    assert_matches_reference_parser(tmp_path_factory.getbasetemp(), case)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=coordinate_files(), read_bytes=st.integers(1, 5))
def test_import_matches_reference_parser_across_reads(tmp_path_factory, case, read_bytes):
    # Reads of a few bytes cut every generated file into many chunks, so
    # line ends, fields and defects fall on every side of a read boundary.
    with mock.patch.object(qubofile, "_READ_BYTES", read_bytes):
        assert_matches_reference_parser(tmp_path_factory.getbasetemp(), case)


def normalised(raw):
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


# (file bytes, read size, what the read boundary at offset `read size` cuts)
CHUNK_CASES = {
    # "p qubo 2 2\r" is 11 bytes: the first read ends in the `\r` of a `\r\n`.
    "crlf split": (b"p qubo 2 2\r\n0 0 1.0\r\n0 1 2.0\r\n", 11),
    # ... and here in a lone `\r`, which ends the header.
    "lone cr at a read's end": (b"p qubo 2 2\r0 0 1.0\r0 1 2.0\r", 11),
    # The second line spans three reads of 8 bytes.
    "line longer than a read": (b"p qubo 2 1\n0  1   -0.333333333333\n", 8),
    "no final newline": (b"p qubo 2 2\n0 0 1.0\n0 1 2.0", 15),
    # The second read starts with the blank line (line 3): an error there.
    "blank line starts a read": (b"p qubo 2 2\n0 0 1.0\n\n0 1 2.0\n", 19),
}


@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_read_boundaries_change_nothing(tmp_path, name):
    raw, read_bytes = CHUNK_CASES[name]
    cut = raw[read_bytes - 1 : read_bytes + 1]
    assert {
        "crlf split": cut == b"\r\n",
        "lone cr at a read's end": cut[:1] == b"\r" and cut[1:] != b"\n",
        "line longer than a read": b"\n" not in raw[11 : 11 + 2 * read_bytes],
        "no final newline": not raw.endswith(b"\n") and read_bytes < len(raw),
        "blank line starts a read": cut == b"\n\n",
    }[name]
    with mock.patch.object(qubofile, "_READ_BYTES", read_bytes):
        text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=None)
        chunks = list(qubofile._line_chunks(text))
        path = tmp_path / "chunks.qubo"
        path.write_bytes(raw)
        got = outcome(import_qubo, path)
    assert len(chunks) > 1 and "".join(chunks) == normalised(raw).decode()
    assert all(chunk.endswith("\n") for chunk in chunks[:-1])
    assert got == outcome(reference_import, path) == outcome(import_qubo, path)


NARROWED = {
    "digit separator": lambda fields: [fields[0], fields[1], "1_0.5"],
    "non-ASCII digit": lambda fields: [fields[0], fields[1], "١.٥"],
    "non-ASCII id": lambda fields: ["٠", fields[1], fields[2]],
}
NARROWED_SEPARATORS = ["\xa0", " ", "　", "\x85", " ", "\x0c", "\x0b", "\x1f"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    body=body_lines().filter(lambda body: body[1]),
    data=st.data(),
)
def test_characters_outside_the_grammar_are_malformed_entries(tmp_path_factory, body, data):
    # Python's int/float/str.split accept these; numpy's parser and the
    # documented grammar do not, so the line is a malformed entry.
    n_vars, lines = body
    k = data.draw(st.integers(0, len(lines) - 1))
    fields = lines[k].split()
    how = data.draw(st.sampled_from(sorted(NARROWED) + NARROWED_SEPARATORS))
    lines[k] = " ".join(NARROWED[how](fields)) if how in NARROWED else how.join(fields)
    path = tmp_path_factory.getbasetemp() / "narrowed.qubo"
    path.write_bytes(render(data.draw, n_vars, len(lines), lines).encode("utf-8"))
    with pytest.raises(QuboFormatError) as err:
        import_qubo(path)
    assert str(err.value) == f"{path}:{k + 2}: malformed entry {lines[k]!r}"


# ------------------------------------------------------- exact round trip

@st.composite
def problems_with_edge_values(draw):
    problem = draw(qubos())
    n = problem.n_vars
    slots = [(a, b) for a in range(n) for b in range(a, n)]
    extra = draw(st.dictionaries(st.sampled_from(slots), st.sampled_from(EDGE_VALUES)))
    coeffs = {**dict(problem.coeffs.items()), **extra}
    return toy_problem(coeffs, n_vars=n)


def assert_exact_round_trip(problem, folder):
    first, second = folder / "first.qubo", folder / "second.qubo"
    export_qubo(problem, first)
    back = import_qubo(first)
    export_qubo(back, second)
    assert back.n_vars == problem.n_vars
    assert [key for key, _ in back.coeffs.items()] == sorted(key for key, _ in problem.coeffs.items())
    assert all(type(a) is type(b) is int and type(v) is float for (a, b), v in back.coeffs.items())
    assert {k: v.hex() for k, v in back.coeffs.items()} == {
        k: float(v).hex() for k, v in problem.coeffs.items()
    }
    assert second.read_bytes() == first.read_bytes()
    body = first.read_text().splitlines()[1:]
    for line, ((a, b), value) in zip(body, back.coeffs.items()):
        assert line == f"{a} {b} {value!r}"
        if value == 0.0 and math.copysign(1.0, value) < 0:
            assert line.endswith(" -0.0")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problem=problems_with_edge_values())
def test_generated_qubos_round_trip_exactly(tmp_path_factory, problem):
    assert_exact_round_trip(problem, tmp_path_factory.getbasetemp())


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(doc=complex_docs(), hp=hyperparameters)
def test_generated_complexes_round_trip_exactly(tmp_path_factory, doc, hp):
    try:
        problem = build_full(parse_complex(doc), hp)
    except GraphBuildError:
        assume(False)
    assert_exact_round_trip(problem, tmp_path_factory.getbasetemp())


# ------------------------------------------------------------- header counts

def test_count_beyond_upper_triangle_rejected_at_header(tmp_path):
    # 2 variables have 3 upper-triangle slots.
    path = write(tmp_path, "p qubo 2 4\n0 0 1.0\n0 1 1.0\n1 1 1.0\n0 1 2.0\n")
    with pytest.raises(QuboFormatError, match=r"bad\.qubo:1: .*more than the 3 upper-triangle"):
        import_qubo(path)
    with pytest.raises(QuboFormatError, match=r"bad\.qubo:1: "):
        import_qubo(write(tmp_path, "p qubo 0 1\n"))


def test_header_count_beyond_the_body_sizes_no_arrays(tmp_path):
    # 10**12 entries fit in the upper triangle but not in an 8-byte body
    # (each line takes at least 6 bytes), so no 24 TB arrays are asked for:
    # the arrays hold the one line the body can, and the count check names
    # the count.
    path = write(tmp_path, "p qubo 100000000 1000000000000\n0 0 1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(QuboFormatError, match="announces 1000000000000 entries, found 1$"):
            import_qubo(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # The shortest lines fill the body exactly: the arrays path takes them.
    path = write(tmp_path, "p qubo 3 3\n0 0 0\n0 1 0\n1 1 0")
    assert import_qubo(path).coeffs == {(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes are POSIX-only")
def test_import_reads_a_pipe(tmp_path):
    # As with `qdock solve --qubo <(zcat p.qubo.gz)`: a pipe cannot seek,
    # so import reads it whole first; it imports, and fails, as a file does.
    path = tmp_path / "pipe.qubo"
    for text in [
        "p qubo 2 2\r\n0 0 1.0\r\n0 1 -2.0\r\n",
        "p qubo 2 2\n0 0 1.0\n0 0 2.0\n",
        "p qubo 2 3\n0 0 1.0\n",
    ]:
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            from_pipe = outcome(import_qubo, path)
        finally:
            writer.join(timeout=10)
            path.unlink()
        assert not writer.is_alive()
        path.write_text(text)
        assert from_pipe == outcome(import_qubo, path)
        path.unlink()


def test_empty_body_imports_without_warnings(tmp_path):
    path = write(tmp_path, "p qubo 100000000 0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = import_qubo(path)
    assert back.n_vars == 100000000 and back.coeffs == {}


def test_bytes_outside_the_grammar_name_their_line(tmp_path):
    path = tmp_path / "bad.qubo"
    path.write_bytes(b"p qubo 2 2\n0 0 1.0\n0 1 \xff\n")
    with pytest.raises(QuboFormatError, match=r"bad\.qubo:3: malformed entry"):
        import_qubo(path)
    # Ids are 64-bit integers, even where the header allows more variables.
    huge = write(tmp_path, f"p qubo {2**70} 1\n0 {2**63} 1.0\n")
    with pytest.raises(QuboFormatError, match=r"bad\.qubo:2: malformed entry"):
        import_qubo(huge)


@pytest.mark.parametrize("n_vars", [DENSE_MAX_VARS + 1, 40000])
def test_dense_view_refuses_past_its_limit(tmp_path, n_vars):
    """A header may announce any variable count, but the dense view is
    refused past the named limit before anything is allocated (40,000
    variables would ask for a 12.8 GB matrix)."""
    assert DENSE_MAX_VARS >= 9000  # a 30 x 300 pocket
    path = tmp_path / "wide.qubo"
    path.write_text(f"p qubo {n_vars} 0\n")
    problem = import_qubo(path)
    tracemalloc.start()
    try:
        with pytest.raises(QdockError, match=f"exceeds DENSE_MAX_VARS = {DENSE_MAX_VARS}"):
            _dense(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


# ------------------------------------------------------------ row blocks

def map_problem(cmap):
    a, b, _ = cmap.arrays
    n_vars = int(b.max()) + 1
    return QuboProblem(n_mol=1, n_grid=n_vars, coeffs=cmap, term_coeffs={"imported": cmap})


def reference_export(problem):
    """The coordinate file written line by line over the sorted keys."""
    entries = sorted(problem.coeffs.items())
    lines = [f"p qubo {problem.n_vars} {len(entries)}\n"]
    lines += [f"{a} {b} {v!r}\n" for (a, b), v in entries]
    return "".join(lines).encode("utf-8")


def test_export_and_import_across_blocks(tmp_path):
    problem = map_problem(shuffled_map(2 * qubofile._BLOCK_ROWS + 7))
    path = tmp_path / "blocks.qubo"
    export_qubo(problem, path)
    text = path.read_bytes()
    assert text == reference_export(problem)
    for ending in (b"\n", b"\r\n", b"\r"):
        path.write_bytes(text.replace(b"\n", ending))
        back = import_qubo(path)
        assert back.n_vars == problem.n_vars and back.coeffs == problem.coeffs
        assert [v.hex() for _, v in back.coeffs.items()] == [v.hex() for _, v in sorted(problem.coeffs.items())]


def test_first_duplicate_named_across_blocks(tmp_path):
    problem = map_problem(shuffled_map(2 * qubofile._BLOCK_ROWS + 7))
    header, *lines = reference_export(problem).decode().splitlines(keepends=True)
    # The first block's last entry comes back in the second block, so the
    # two copies straddle the blocks of the key order; a copy of the last
    # entry goes near the top, so the last line is a repeat too. The first
    # line that repeats an earlier one is the error.
    block = qubofile._BLOCK_ROWS
    lines.insert(block + 5, lines[block - 1])
    lines.insert(1, lines[-1])
    path = tmp_path / "repeats.qubo"
    path.write_text(f"p qubo {problem.n_vars} {len(lines)}\n" + "".join(lines))
    a, b, _ = lines[block].split()
    line = block + 8
    with pytest.raises(QuboFormatError, match=rf"repeats\.qubo:{line}: duplicate entry for \({a}, {b}\)$"):
        import_qubo(path)
    assert outcome(import_qubo, path) == outcome(reference_import, path)
    # In one block, the repeat of the larger key comes first in the file.
    path.write_text("p qubo 3 4\n1 1 1.0\n0 0 1.0\n1 1 2.0\n0 0 3.0\n")
    with pytest.raises(QuboFormatError, match=r"repeats\.qubo:4: duplicate entry for \(1, 1\)$"):
        import_qubo(path)


def test_repeat_check_sorts_only_keys_out_of_order(tmp_path, monkeypatch):
    problem = map_problem(shuffled_map(3000))
    path = tmp_path / "keys.qubo"
    export_qubo(problem, path)
    header, *lines = path.read_text().splitlines(keepends=True)

    def no_sort(*args):
        raise AssertionError("the keys were sorted")

    # Exported keys ascend strictly in file order: no repeat, and no sort.
    with monkeypatch.context() as patch:
        patch.setattr(qubofile.np, "lexsort", no_sort)
        imported = import_qubo(path)
    assert imported.coeffs == problem.coeffs
    # Shuffled lines with one key repeated: the sort names the later copy's line.
    shuffled = random.Random(4).sample(lines, len(lines))
    shuffled.insert(2500, shuffled[100])
    path.write_text(f"p qubo {problem.n_vars} {len(shuffled)}\n" + "".join(shuffled))
    a, b, _ = shuffled[100].split()
    with pytest.raises(QuboFormatError, match=rf"keys\.qubo:2502: duplicate entry for \({a}, {b}\)$"):
        import_qubo(path)
    assert outcome(import_qubo, path) == outcome(reference_import, path)
    # Ascending keys with one repeated next to itself are not strictly ascending.
    lines.insert(1001, lines[1000])
    path.write_text(f"p qubo {problem.n_vars} {len(lines)}\n" + "".join(lines))
    a, b, _ = lines[1000].split()
    with pytest.raises(QuboFormatError, match=rf"keys\.qubo:1003: duplicate entry for \({a}, {b}\)$"):
        import_qubo(path)


def traced_peak(work) -> int:
    """The most bytes that work() holds at once beyond what existed before."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_listing_exporting_and_importing_hold_bounded_memory(tmp_path):
    """Listing a map holds one block of Python values whatever its size, and
    export and import a fixed number of bytes per entry. Measured on numpy
    2.4 and Python 3.11: items() peaked at 5.5 MiB over 200,000 entries and
    6.5 MiB over 800,000; on the 800,000-entry map, export at 51 bytes per
    entry and import at 34 (the parsed arrays, then their key order for the
    repeat check). Listing whole columns at once took 79.5 MiB over 800,000
    entries; export held 106 bytes per entry and import 75 when they
    gathered whole sorted copies, and import 53 when it held the file's
    bytes beside the parsed rows. Rejecting the file with `nan` on its
    last line held 35 bytes per entry, and 277 when a rejected body was
    read again whole and scanned line by line with a set of its keys."""
    for n in (200_000, 800_000):
        cmap = shuffled_map(n)
        assert traced_peak(lambda: collections.deque(cmap.items(), maxlen=0)) < 8 * 2**20
    problem = map_problem(cmap)
    path = tmp_path / "large.qubo"
    assert traced_peak(lambda: export_qubo(problem, path)) < 64 * n
    assert traced_peak(lambda: import_qubo(path)) < 40 * n
    raw = path.read_bytes()
    path.write_bytes(raw[: raw.rstrip(b"\n").rfind(b" ") + 1] + b"nan\n")

    def reject():
        with pytest.raises(QuboFormatError, match=rf"large\.qubo:{n + 1}: non-finite coefficient 'nan'$"):
            import_qubo(path)

    assert traced_peak(reject) < 40 * n
