"""QUBO coordinate-list files.

Line 1 is `p qubo <n_vars> <n_entries>`; every following line is
`<i> <j> <value>` with 0-based variable ids, i <= j, and the value written
as `repr(float(value))`, so a value round-trips bit for bit (`-0.0`
included) and an int-valued map writes `1.0` where `1` was given. Export
and import are exact inverses on the coefficient map. Imported problems
carry coefficients only: no placement structure, no decode context, a
single `imported` term map, and zero offset.

The accepted grammar: lines end in `\\n`, `\\r\\n` or `\\r`; fields are
separated by spaces or tabs; ids are ASCII decimal integers that fit in
64 bits and values ASCII decimal floats. A body line holding any other
character (`_` digit separators, non-ASCII digits or whitespace, other
control characters) is a `malformed entry` at its line number. The header
follows the same grammar: any other character in it makes it a
`malformed header`, and a count that is not an ASCII decimal integer is
`non-integer counts in header`. It may announce at most
n_vars (n_vars + 1) / 2 entries, the number of upper-triangle slots.

Both directions work on the coefficient map's (a, b, value) arrays.
Export sorts the keys once, formats each distinct id and each distinct
value (by bit pattern) once, and writes fixed-size row blocks, each
gathered from a slice of the key order. Beyond the map it holds the
order and the value index (8 bytes per entry each), the texts of the
distinct ids and values, and one block of rows.

Import reads the file once, as text with universal newlines, in
fixed-size reads cut into chunks that end at a line end. Each chunk is
parsed by `np.loadtxt` and checked with array masks (its line count,
ranges and finiteness) straight into (a, b, value) arrays sized from the
header's entry count, which become the problem's map. Only a chunk that
numpy or a mask rejects is walked line by line: the lines before its
first bad line are kept and reading stops there. One look for repeated
keys through the key order of the rows kept, a block at a time, then
finds the first error: a repeat comes before the bad line, and with
neither the entry count is checked. Import holds the arrays (24 bytes per
entry) and one chunk, its lines and its rows, then the key order (8 bytes
per entry), whether it accepts the file or not. A count that the body's
bytes cannot hold (each line takes at least 6) sizes the arrays for only
the lines they can, and a body with more lines than its header announces
grows them; only a file that is rejected does either.
"""

from __future__ import annotations

import io
import itertools
import math
import re
import warnings
from collections.abc import Iterator

import numpy as np

from .errors import QuboFormatError
from .qubo import CoeffMap, QuboProblem

# Rows per formatted block: bounds the transient Python strings to a fixed
# size, whatever the size of the problem.
_BLOCK_ROWS = 1 << 16
# Characters (bytes, in a valid file) read at a time: import holds one
# line-aligned chunk of the body, its lines and its rows beside the arrays.
_READ_BYTES = 1 << 18
# Bytes of the shortest body line, `0 0 0` and its line end.
_MIN_LINE = 6
_ROW = np.dtype([("a", np.int64), ("b", np.int64), ("value", np.float64)])
_INT64_MAX = int(np.iinfo(np.int64).max)
# Every character a valid body can hold; a chunk holding any other is walked.
_BODY_BYTES = b"0123456789+-.eE \t\n"
# A line holding anything but printable ASCII and tab is malformed.
_FOREIGN = re.compile(r"[^\t\x20-\x7e]")
_INDEX = re.compile(r"[+-]?[0-9]+")


def export_qubo(problem: QuboProblem, path) -> None:
    """Write the coefficient map in ascending (i, j) order."""
    a, b, values = problem.coeffs.arrays
    n = len(values)
    order = np.lexsort((b, a))
    ids = np.union1d(_distinct(a), _distinct(b))
    bits, value_of = np.unique(values.view(np.int64), return_inverse=True)
    id_text = np.array(list(map(str, ids.tolist())), dtype=object)
    value_text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"p qubo {problem.n_vars} {n}\n")
        for start in range(0, n, _BLOCK_ROWS):
            at = order[start : start + _BLOCK_ROWS]
            rows = zip(
                id_text[ids.searchsorted(a.take(at))].tolist(),
                id_text[ids.searchsorted(b.take(at))].tolist(),
                value_text[value_of.take(at)].tolist(),
            )
            handle.write("\n".join(map(" ".join, rows)))
            handle.write("\n")


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct entries of an int array, ascending, from one sorted copy.
    Not `np.unique`, which from numpy 2.3 goes through a hash table: on the
    575,400 ids of a 20x100 complex it took 27 ms to this 7 ms (numpy
    2.4.6, 2-core Xeon)."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])] if len(x) else x


def import_qubo(path) -> QuboProblem:
    """Parse a coordinate file back into a coefficient-only problem."""
    try:
        handle = open(path, encoding="utf-8", errors="replace", newline=None)
    except FileNotFoundError:
        raise QuboFormatError(f"QUBO file not found: {path}") from None
    with handle:
        if not handle.seekable():
            # A pipe: the size guard needs a size, so it is read whole.
            handle = io.StringIO(handle.read())
        size = handle.seek(0, io.SEEK_END)
        handle.seek(0)
        chunks = _line_chunks(handle)
        first = next(chunks, "")
        if not first:
            raise QuboFormatError(f"{path}: empty file, expected 'p qubo' header")
        end = first.find("\n")
        end = len(first) if end < 0 else end
        n_vars, n_entries = _parse_header(path, first[:end])
        # The body holds at most size - end - 1 bytes, and each line takes at
        # least _MIN_LINE of them (the last may lack its line end): a count
        # they cannot hold sizes arrays for only the lines they can.
        capacity = min(n_entries, max(size - end, 0) // _MIN_LINE)
        body = itertools.chain([first[end + 1 :]], chunks)
        (a, b, values), bad = _parse_body(body, n_vars, capacity)
    # Every row kept comes before the bad line, so a repeat among them is
    # the first error.
    repeat = _first_repeat(a, b)
    if repeat is not None:
        raise QuboFormatError(f"{path}:{repeat + 2}: duplicate entry for ({a[repeat]}, {b[repeat]})")
    if bad is not None:
        raise QuboFormatError(f"{path}:{len(a) + 2}: {bad}")
    if len(a) != n_entries:
        raise QuboFormatError(f"{path}: header announces {n_entries} entries, found {len(a)}")

    coeffs = CoeffMap(a, b, values)
    return QuboProblem(
        n_mol=1,
        n_grid=n_vars,
        coeffs=coeffs,
        term_coeffs={"imported": coeffs},
        offset=0.0,
    )


def _line_chunks(handle) -> Iterator[str]:
    """The file's text in chunks that each end at a line end; the last may
    lack one. Each chunk is the rest of the line the previous one cut, then
    one read's text up to its last line end; reads without a line end are
    joined to the next one that has."""
    parts = [""]
    while True:
        data = handle.read(_READ_BYTES)
        parts.append(data)
        if data and "\n" not in data:
            continue  # within a line longer than a read
        buf = "".join(parts)
        cut = buf.rfind("\n") + 1 if data else len(buf)
        if cut:
            yield buf[:cut]
        if not data:
            return
        parts = [buf[cut:]]


def _parse_body(chunks, n_vars: int, capacity: int) -> tuple[tuple[np.ndarray, ...], str | None]:
    """The (a, b, value) arrays of the body's lines in file order up to its
    first bad line, and that line's error, or None when no line is bad.
    Each chunk is parsed and checked into arrays of `capacity` rows, grown
    only when the body has more lines; a chunk that numpy or a mask rejects
    is walked line by line, and reading stops at its bad line."""
    a, b = np.empty(capacity, np.int64), np.empty(capacity, np.int64)
    values = np.empty(capacity)
    filled, bad = 0, None
    for chunk in chunks:
        lines = chunk.split("\n")
        if not lines[-1]:
            lines.pop()
        rows = _parse_rows(chunk, lines)
        if rows is None or not _rows_valid(rows, lines, n_vars):
            entries, bad = _first_bad_line(lines, n_vars)
            rows = np.array(entries, _ROW)
        stop = filled + len(rows)
        if stop > len(a):
            a, b, values = (np.resize(x, max(stop, 2 * len(x))) for x in (a, b, values))
        a[filled:stop], b[filled:stop], values[filled:stop] = rows["a"], rows["b"], rows["value"]
        filled = stop
        if bad is not None:
            break
    return (a[:filled], b[:filled], values[:filled]), bad


def _parse_header(path, line: str) -> tuple[int, int]:
    header = line.split()
    if _FOREIGN.search(line) or len(header) != 4 or header[0] != "p" or header[1] != "qubo":
        raise QuboFormatError(f"{path}:1: malformed header {line!r}")
    if not (_INDEX.fullmatch(header[2]) and _INDEX.fullmatch(header[3])):
        raise QuboFormatError(f"{path}:1: non-integer counts in header {line!r}")
    n_vars, n_entries = int(header[2]), int(header[3])
    if n_vars < 0 or n_entries < 0:
        raise QuboFormatError(f"{path}:1: negative counts in header")
    slots = n_vars * (n_vars + 1) // 2
    if n_entries > slots:
        raise QuboFormatError(
            f"{path}:1: header announces {n_entries} entries, more than the "
            f"{slots} upper-triangle slots of {n_vars} variables"
        )
    return n_vars, n_entries


def _parse_rows(chunk: str, lines: list[str]) -> np.ndarray | None:
    """The (a, b, value) rows of a chunk of the body, split into its lines,
    in file order, or None when it holds a character outside the grammar or
    numpy rejects a line. Blank lines are skipped here and caught by the
    line count."""
    if chunk.encode("ascii", "replace").translate(None, _BODY_BYTES):
        return None
    with warnings.catch_warnings():
        # numpy 1.23-1.26 parse an id such as `1.0` as an integer and only
        # warn; the grammar rejects it.
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            # numpy walks any input but a path line by line; a list of str
            # lines is the quickest such input.
            return np.loadtxt(lines, dtype=_ROW, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _rows_valid(rows: np.ndarray, lines: list[str], n_vars: int) -> bool:
    """A row per line, and `_first_bad_line`'s range and finiteness checks,
    as array masks over the parsed rows."""
    a, b = rows["a"], rows["b"]
    if len(rows) != len(lines):
        return False
    in_range = (0 <= a) & (a <= b) & (b <= min(n_vars - 1, _INT64_MAX))
    return bool(in_range.all() and np.isfinite(rows["value"]).all())


def _first_repeat(a: np.ndarray, b: np.ndarray) -> int | None:
    """The position of the first row whose (a, b) key an earlier row holds,
    or None. Keys that ascend strictly in file order, as `export_qubo`
    writes them, hold no repeat. Otherwise the stable key order lists each
    key's rows in file order, so a repeat is a row whose key equals the one
    before it there; the order is compared one block of rows at a time."""
    if ((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))).all():
        return None
    order = np.lexsort((b, a))
    first = len(a)
    for at in range(0, len(a), _BLOCK_ROWS):
        block = order[at : at + _BLOCK_ROWS + 1]
        later, earlier = block[1:], block[:-1]
        repeat = (a.take(later) == a.take(earlier)) & (b.take(later) == b.take(earlier))
        if repeat.any():
            first = min(first, int(later[repeat].min()))
    return first if first < len(a) else None


def _first_bad_line(lines: list[str], n_vars: int) -> tuple[list, str | None]:
    """The entries of the lines before the first bad one, and that line's
    error, or None when no line is bad; within a line, fields, then
    parsing, range and finiteness."""
    entries = []
    for line in lines:
        if _FOREIGN.search(line):
            return entries, f"malformed entry {line!r}"
        parts = line.split()
        if len(parts) != 3:
            return entries, f"expected 'i j value', got {line!r}"
        entry = _parse_entry(parts)
        if entry is None:
            return entries, f"malformed entry {line!r}"
        a, b, value = entry
        if not 0 <= a <= b < n_vars:
            return entries, f"indices ({a}, {b}) outside upper triangle of {n_vars} variables"
        if b > _INT64_MAX:  # in range only when n_vars exceeds what numpy's ids hold
            return entries, f"malformed entry {line!r}"
        if not math.isfinite(value):
            return entries, f"non-finite coefficient {parts[2]!r}"
        entries.append(entry)
    return entries, None


def _parse_entry(parts: list[str]) -> tuple[int, int, float] | None:
    """A line's three fields as (a, b, value), or None where the grammar rejects them."""
    if not (_INDEX.fullmatch(parts[0]) and _INDEX.fullmatch(parts[1])) or "_" in parts[2]:
        return None
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        return None
