"""Plain-text matrix files.

Format: any line starting with ``#`` is a comment; the first non-comment
line holds the dimension ``n``; the next ``n`` data lines hold ``n``
whitespace-separated entries each.  Real entries accept integer, decimal and
scientific notation; complex entries are written ``a+bi`` / ``a-bi`` with no
spaces.  Blank lines are ignored.
"""

from __future__ import annotations

import re

import numpy as np

from .linalg import as_matrix

_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^{_NUM}$")
_COMPLEX_RE = re.compile(rf"^({_NUM})([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i$")


class MatrixFormatError(ValueError):
    """Raised when matrix text does not follow the file format."""


def _parse_entry(token: str, lineno: int) -> complex | float:
    if _REAL_RE.match(token):
        return float(token)
    m = _COMPLEX_RE.match(token)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    raise MatrixFormatError(f"line {lineno}: cannot parse entry {token!r}")


def parse_matrix(text: str) -> np.ndarray:
    """Parse matrix text into a float64 or complex128 square array."""
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines:
        raise MatrixFormatError("no dimension line found")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise MatrixFormatError(f"line {lineno}: expected dimension, got {head!r}") from None
    if n < 1:
        raise MatrixFormatError(f"line {lineno}: dimension must be positive, got {n}")
    rows = lines[1:]
    if len(rows) != n:
        raise MatrixFormatError(f"expected {n} data lines, found {len(rows)}")

    entries = []
    for lineno, line in rows:
        tokens = line.split()
        if len(tokens) != n:
            raise MatrixFormatError(f"line {lineno}: expected {n} entries, found {len(tokens)}")
        entries.append([_parse_entry(tok, lineno) for tok in tokens])

    grid = np.array(entries)
    if grid.dtype.kind != "c":
        grid = grid.astype(np.float64)
    return as_matrix(grid)


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _format_entry(value, spec: str = "") -> str:
    """One entry as ``a`` or ``a+bi`` in format ``spec``; the empty spec reads back exactly."""
    if isinstance(value, complex) or np.iscomplexobj(value):
        z = complex(value)
        sign = "-" if np.signbit(z.imag) else "+"
        return f"{z.real:{spec}}{sign}{abs(z.imag):{spec}}i"
    return f"{float(value):{spec}}"


def format_matrix(m, comments: tuple[str, ...] = ()) -> str:
    """Render a square matrix in the text format, at full precision."""
    m = as_matrix(m)
    out = [f"# {c}" for c in comments]
    out.append(str(m.shape[0]))
    for row in m:
        out.append(" ".join(_format_entry(v) for v in row))
    return "\n".join(out) + "\n"


def write_matrix(path, m, comments: tuple[str, ...] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(m, comments))
