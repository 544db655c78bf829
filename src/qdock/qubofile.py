"""QUBO coordinate-list files.

Line 1 is `p qubo <n_vars> <n_entries>`; every following line is
`<i> <j> <value>` with 0-based variable ids, i <= j, and the value printed
with full round-trip precision (repr). Export and import are exact
inverses on the coefficient map. Imported problems carry coefficients
only: no placement structure, no decode context, a single `imported`
term map, and zero offset.
"""

from __future__ import annotations

import math

from .errors import QuboFormatError
from .qubo import QuboProblem


def export_qubo(problem: QuboProblem, path) -> None:
    """Write the coefficient map in ascending (i, j) order."""
    entries = sorted(problem.coeffs.items())
    lines = [f"p qubo {problem.n_vars} {len(entries)}"]
    for (a, b), value in entries:
        lines.append(f"{a} {b} {value!r}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def import_qubo(path) -> QuboProblem:
    """Parse a coordinate file back into a coefficient-only problem."""
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

    coeffs: dict[tuple[int, int], float] = {}
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

    return QuboProblem(
        n_mol=1,
        n_grid=n_vars,
        coeffs=coeffs,
        term_coeffs={"imported": coeffs},
        offset=0.0,
    )
