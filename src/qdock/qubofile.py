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
may announce at most n_vars (n_vars + 1) / 2 entries, the number of
upper-triangle slots.

Both directions work on the coefficient map's (a, b, value) arrays.
Export sorts the keys once, formats each distinct id and each distinct
value (by bit pattern) once, and writes fixed-size row blocks, each
gathered from a slice of the key order. Beyond the map it holds the
order and the value index (8 bytes per entry each), the texts of the
distinct ids and values, and one block of rows.

Import streams the file: it reads fixed-size blocks, normalises their
line ends and cuts them into chunks that end at a line end (a `\\r` at
the end of a read waits for the next, which may start with `\\n`). Each
chunk is parsed by `np.loadtxt` and checked with array masks (its line
count, ranges and finiteness) straight into (a, b, value) arrays sized
from the header's entry count, which become the problem's map; it then
looks for repeated keys through the key order, one block at a time. It
holds the arrays (24 bytes per entry) and one chunk, its lines and its
rows, then the key order (8 bytes per entry). A count that the body's
bytes cannot hold (each line takes at least 6) sizes no arrays. When
numpy, a mask or the count rejects the body, the file is read again
whole and a line-by-line scan finds the first bad line and raises its
error, so every accepted file goes through the same array path; a
repeated key in a body that passed every other check is the first bad
line, and is named from the arrays.
"""

from __future__ import annotations

import io
import itertools
import math
import re
import warnings
from collections.abc import Iterator
from typing import NoReturn

import numpy as np

from .errors import QuboFormatError
from .qubo import CoeffMap, QuboProblem

# Rows per formatted block: bounds the transient Python strings to a fixed
# size, whatever the size of the problem.
_BLOCK_ROWS = 1 << 16
# Bytes read from the file at a time: import holds one line-aligned chunk
# of the body, its lines and its rows beside the parsed arrays.
_READ_BYTES = 1 << 18
# Bytes of the shortest body line, `0 0 0` and its line end.
_MIN_LINE = 6
_ROW = np.dtype([("a", np.int64), ("b", np.int64), ("value", np.float64)])
_INT64_MAX = int(np.iinfo(np.int64).max)
# Every byte a valid body can hold; any other byte sends the body to the scan.
_BODY_BYTES = b"0123456789+-.eE \t\n"
# A body line holding anything but printable ASCII and tab is malformed.
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
    """The distinct entries of an int array, ascending, from one sorted copy."""
    x = np.sort(x)
    return x[np.append(True, x[1:] != x[:-1])] if len(x) else x


def import_qubo(path) -> QuboProblem:
    """Parse a coordinate file back into a coefficient-only problem."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise QuboFormatError(f"QUBO file not found: {path}") from None
    with handle:
        if not handle.seekable():
            # A pipe: the size guard and the line scan need a file that seeks.
            handle = io.BytesIO(handle.read())
        size = handle.seek(0, io.SEEK_END)
        handle.seek(0)
        chunks = _line_chunks(handle)
        first = next(chunks, b"")
        if not first:
            raise QuboFormatError(f"{path}: empty file, expected 'p qubo' header")
        end = first.find(b"\n")
        end = len(first) if end < 0 else end
        n_vars, n_entries = _parse_header(path, first[:end].decode("utf-8", "replace"))
        # The body holds at most size - end - 1 bytes, and n_entries lines
        # take at least _MIN_LINE n_entries - 1 of them.
        arrays = None
        if _MIN_LINE * n_entries <= size - end:
            arrays = _parse_body(itertools.chain([first[end + 1 :]], chunks), n_vars, n_entries)
        if arrays is None:
            handle.seek(0)
            raw = _normalise(handle.read())
            end = raw.find(b"\n")
            _raise_first_error(path, raw[end + 1 :] if end >= 0 else b"", n_vars, n_entries)
    a, b, values = arrays
    # Every other check has passed, so a repeated key is the first bad line.
    repeat = _first_repeat(a, b)
    if repeat is not None:
        raise _duplicate(path, repeat + 2, int(a[repeat]), int(b[repeat]))

    coeffs = CoeffMap(a, b, values)
    return QuboProblem(
        n_mol=1,
        n_grid=n_vars,
        coeffs=coeffs,
        term_coeffs={"imported": coeffs},
        offset=0.0,
    )


def _normalise(raw: bytes) -> bytes:
    """raw with every `\\r\\n` and lone `\\r` made `\\n`."""
    return raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in raw else raw


def _line_chunks(handle) -> Iterator[bytes]:
    """The file's bytes, line ends normalised, in chunks that each end at a
    line end; the last may lack one. Each chunk is the rest of the line the
    previous one cut, then one read's bytes up to their last line end. A
    read that ends in `\\r` holds it back, since the next may start with
    `\\n`; reads without a line end are joined to the next one that has."""
    parts = [b""]
    while True:
        data = handle.read(_READ_BYTES)
        parts.append(data)
        if data and b"\n" not in data and b"\r" not in data:
            continue  # within a line longer than a read
        buf = b"".join(parts)
        held = b"\r" if data and buf.endswith(b"\r") else b""
        buf = _normalise(buf[: len(buf) - len(held)])
        cut = buf.rfind(b"\n") + 1 if data else len(buf)
        if cut:
            yield buf[:cut]
        if not data:
            return
        parts = [buf[cut:] + held]


def _parse_body(chunks, n_vars: int, n_entries: int) -> tuple[np.ndarray, ...] | None:
    """The body's (a, b, value) arrays in file order, each chunk parsed and
    checked into arrays sized from the header, or None as soon as numpy, a
    mask or the line count rejects it."""
    a, b = np.empty(n_entries, np.int64), np.empty(n_entries, np.int64)
    values = np.empty(n_entries)
    filled = 0
    for chunk in chunks:
        if not chunk:
            continue
        rows = _parse_rows(chunk)
        if rows is None or not _rows_valid(rows, chunk, n_vars) or len(rows) > n_entries - filled:
            return None
        stop = filled + len(rows)
        a[filled:stop], b[filled:stop], values[filled:stop] = rows["a"], rows["b"], rows["value"]
        filled = stop
    return (a, b, values) if filled == n_entries else None


def _parse_header(path, line: str) -> tuple[int, int]:
    header = line.split()
    if len(header) != 4 or header[0] != "p" or header[1] != "qubo":
        raise QuboFormatError(f"{path}:1: malformed header {line!r}")
    try:
        n_vars = int(header[2])
        n_entries = int(header[3])
    except ValueError:
        raise QuboFormatError(f"{path}:1: non-integer counts in header {line!r}") from None
    if n_vars < 0 or n_entries < 0:
        raise QuboFormatError(f"{path}:1: negative counts in header")
    slots = n_vars * (n_vars + 1) // 2
    if n_entries > slots:
        raise QuboFormatError(
            f"{path}:1: header announces {n_entries} entries, more than the "
            f"{slots} upper-triangle slots of {n_vars} variables"
        )
    return n_vars, n_entries


def _parse_rows(chunk: bytes) -> np.ndarray | None:
    """The (a, b, value) rows of a chunk of the body in file order, or None
    when it holds a byte outside the grammar or numpy rejects a line. Blank
    lines are skipped here and caught by the line count."""
    if chunk.translate(None, _BODY_BYTES):
        return None
    # numpy walks any input but a path line by line; a list of str lines
    # is the quickest such input.
    lines = chunk.decode("ascii").split("\n")
    with warnings.catch_warnings():
        # numpy 1.23-1.26 parse an id such as `1.0` as an integer and only
        # warn; the grammar rejects it.
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(lines, dtype=_ROW, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            return None


def _rows_valid(rows: np.ndarray, chunk: bytes, n_vars: int) -> bool:
    """A row per line of the chunk, and `_raise_first_error`'s range and
    finiteness checks, as array masks over the parsed rows."""
    a, b = rows["a"], rows["b"]
    if len(rows) != chunk.count(b"\n") + (not chunk.endswith(b"\n")):
        return False
    in_range = (0 <= a) & (a <= b) & (b <= min(n_vars - 1, _INT64_MAX))
    return bool(in_range.all() and np.isfinite(rows["value"]).all())


def _first_repeat(a: np.ndarray, b: np.ndarray) -> int | None:
    """The position of the first row whose (a, b) key an earlier row holds,
    or None. The stable key order lists each key's rows in file order, so a
    repeat is a row whose key equals the one before it there; the order is
    compared one block of rows at a time."""
    order = np.lexsort((b, a))
    first = len(a)
    for at in range(0, len(a), _BLOCK_ROWS):
        block = order[at : at + _BLOCK_ROWS + 1]
        later, earlier = block[1:], block[:-1]
        repeat = (a.take(later) == a.take(earlier)) & (b.take(later) == b.take(earlier))
        if repeat.any():
            first = min(first, int(later[repeat].min()))
    return first if first < len(a) else None


def _duplicate(path, lineno: int, a: int, b: int) -> QuboFormatError:
    return QuboFormatError(f"{path}:{lineno}: duplicate entry for ({a}, {b})")


def _raise_first_error(path, body: bytes, n_vars: int, n_entries: int) -> NoReturn:
    """Walk the body line by line and raise the error of its first bad line;
    within a line, fields, then parsing, range, finiteness and duplicates.
    The entry count is checked last."""
    lines = body.decode("utf-8", "replace").split("\n")
    if lines[-1] == "":
        lines.pop()
    seen = set()
    for lineno, line in enumerate(lines, start=2):
        if _FOREIGN.search(line):
            raise QuboFormatError(f"{path}:{lineno}: malformed entry {line!r}")
        parts = line.split()
        if len(parts) != 3:
            raise QuboFormatError(f"{path}:{lineno}: expected 'i j value', got {line!r}")
        entry = _parse_entry(parts)
        if entry is None:
            raise QuboFormatError(f"{path}:{lineno}: malformed entry {line!r}")
        a, b, value = entry
        if not 0 <= a <= b < n_vars:
            raise QuboFormatError(
                f"{path}:{lineno}: indices ({a}, {b}) outside upper triangle of {n_vars} variables"
            )
        if b > _INT64_MAX:  # in range only when n_vars exceeds what numpy's ids hold
            raise QuboFormatError(f"{path}:{lineno}: malformed entry {line!r}")
        if not math.isfinite(value):
            raise QuboFormatError(f"{path}:{lineno}: non-finite coefficient {parts[2]!r}")
        if (a, b) in seen:
            raise _duplicate(path, lineno, a, b)
        seen.add((a, b))
    if len(seen) != n_entries:
        raise QuboFormatError(f"{path}: header announces {n_entries} entries, found {len(seen)}")
    # Reached only if numpy rejected a body this scan accepts.
    raise QuboFormatError(f"{path}: body could not be parsed")


def _parse_entry(parts: list[str]) -> tuple[int, int, float] | None:
    """A line's three fields as (a, b, value), or None where the grammar rejects them."""
    if not (_INDEX.fullmatch(parts[0]) and _INDEX.fullmatch(parts[1])) or "_" in parts[2]:
        return None
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError:
        return None
