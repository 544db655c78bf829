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

Both directions work on arrays. Export sorts the map's flattened keys
once, formats each distinct index and each distinct value (by bit pattern)
once, and writes fixed-size row blocks. Import parses the body in one
`np.loadtxt` pass and checks it with array masks; when numpy or a mask
rejects the body, a line-by-line scan finds the first bad line and raises
its error, so every accepted file goes through the same array path.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from typing import NoReturn

import numpy as np

from .errors import QuboFormatError
from .qubo import QuboProblem, coeff_arrays

# Rows per formatted or converted block: bounds the transient Python strings
# and objects to a fixed size, whatever the size of the problem.
_BLOCK_ROWS = 1 << 16
_ROW = np.dtype([("a", np.int64), ("b", np.int64), ("value", np.float64)])
_INT64_MAX = int(np.iinfo(np.int64).max)
# Every byte a valid body can hold; any other byte sends the body to the scan.
_BODY_BYTES = b"0123456789+-.eE \t\n"
# A body line holding anything but printable ASCII and tab is malformed.
_FOREIGN = re.compile(r"[^\t\x20-\x7e]")
_INDEX = re.compile(r"[+-]?[0-9]+")


def export_qubo(problem: QuboProblem, path) -> None:
    """Write the coefficient map in ascending (i, j) order."""
    a, b, values = coeff_arrays(problem.coeffs)
    n = len(values)
    order = np.lexsort((b, a))
    ids, id_of = np.unique(np.concatenate([a[order], b[order]]), return_inverse=True)
    bits, value_of = np.unique(values[order].view(np.int64), return_inverse=True)
    id_text = np.array(list(map(str, ids.tolist())), dtype=object)
    value_text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"p qubo {problem.n_vars} {n}\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = zip(
                id_text[id_of[:n][block]].tolist(),
                id_text[id_of[n:][block]].tolist(),
                value_text[value_of[block]].tolist(),
            )
            handle.write("\n".join(map(" ".join, rows)))
            handle.write("\n")


def import_qubo(path) -> QuboProblem:
    """Parse a coordinate file back into a coefficient-only problem."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise QuboFormatError(f"QUBO file not found: {path}") from None

    if not raw:
        raise QuboFormatError(f"{path}: empty file, expected 'p qubo' header")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    first, _, body = raw.partition(b"\n")
    del raw
    n_vars, n_entries = _parse_header(path, first.decode("utf-8", "replace"))

    rows = _parse_rows(body)
    if rows is None or not _rows_valid(rows, body, n_vars, n_entries):
        _raise_first_error(path, body, n_vars, n_entries)
    del body

    coeffs: dict[tuple[int, int], float] = {}
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        coeffs.update(zip(block[["a", "b"]].tolist(), block["value"].tolist()))
    return QuboProblem(
        n_mol=1,
        n_grid=n_vars,
        coeffs=coeffs,
        term_coeffs={"imported": coeffs},
        offset=0.0,
    )


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


def _parse_rows(body: bytes) -> np.ndarray | None:
    """The body's (a, b, value) rows in file order, or None when numpy
    rejects a line. Blank lines are skipped here and caught by the line count."""
    if body.translate(None, _BODY_BYTES):
        return None
    with warnings.catch_warnings():
        # numpy 1.23-1.26 parse an id such as `1.0` as an integer and only
        # warn; the grammar rejects it.
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(io.BytesIO(body), dtype=_ROW, comments=None, ndmin=1, encoding="ascii")
        except (ValueError, DeprecationWarning):
            return None


def _rows_valid(rows: np.ndarray, body: bytes, n_vars: int, n_entries: int) -> bool:
    """The line count and `_raise_first_error`'s range, finiteness,
    duplicate and entry-count checks, as array masks over the parsed rows."""
    a, b = rows["a"], rows["b"]
    n_lines = body.count(b"\n") + (not body.endswith(b"\n")) if body else 0
    if not len(rows) == n_lines == n_entries:
        return False
    in_range = (0 <= a) & (a <= b) & (b <= min(n_vars - 1, _INT64_MAX))
    if not (in_range.all() and np.isfinite(rows["value"]).all()):
        return False
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    return not ((a[1:] == a[:-1]) & (b[1:] == b[:-1])).any()


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
            raise QuboFormatError(f"{path}:{lineno}: duplicate entry for ({a}, {b})")
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
