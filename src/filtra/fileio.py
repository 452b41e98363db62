"""File formats: filter grids as CSV, filter dumps as PGM.

Filter CSV: first line ``S=<odd int>``, then S lines of S comma-separated
values.  Values are written with 17 significant digits so round trips are
exact.  Files are read as UTF-8, less one leading byte-order mark.  Reading
rejects a nan or inf value with its file and line: this reader, with
`features.feature_map`, is where finiteness is checked.  Both writers take
their grid through `filters.check_filter_grid`, so every grid written is
real, finite, square and of odd side.  Feature maps have no file format;
callers hand them over as arrays.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .filters import check_filter_grid


def write_filter_csv(path: str | Path, values: np.ndarray) -> None:
    values = check_filter_grid(values)
    lines = [f"S={values.shape[0]}"]
    lines += [",".join(f"{v:.17g}" for v in row) for row in values]
    Path(path).write_text("\n".join(lines) + "\n")


def read_filter_csv(path: str | Path) -> np.ndarray:
    try:
        raw = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    # errors name file lines, which count the blank lines stripped before the header
    stripped = raw.strip()
    first = raw[: raw.index(stripped)].count("\n") + 1
    # `\n` alone ends a line, as in the header's line number; `read_text`
    # reads `\r\n` and a lone `\r` as `\n`, so CRLF and CR files read too
    lines = stripped.split("\n")
    if not lines or not lines[0].startswith("S="):
        raise ValueError(f"{path}:{first}: expected a first line of the form S=<odd int>")
    field = lines[0][2:]
    try:
        s = int(field) if field.isascii() and "_" not in field else 0
    except ValueError:
        s = 0
    if s < 1:
        raise ValueError(f"{path}:{first}: S must be a positive integer, got {field!r}")
    if len(lines) != s + 1:
        raise ValueError(f"{path}: expected {s} rows after the header, got {len(lines) - 1}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=first + 1):
        items = line.split(",")
        if len(items) != s:
            raise ValueError(f"{path}:{lineno}: expected {s} values, got {len(items)}")
        try:
            # `float`, like `int`, also reads other scripts' digits and `_` separators
            if not line.isascii() or "_" in line:
                raise ValueError(line)
            row = [float(v) for v in items]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: values must be numbers, got {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}:{lineno}: values must be finite, got {line!r}")
        rows.append(row)
    try:
        return check_filter_grid(np.array(rows))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """8-bit P2 PGM of a filter grid with per-filter affine min-max
    normalization (lossy, visualization only)."""
    values = check_filter_grid(values)
    # halved before subtracting, so that the range of finite values never
    # overflows; exact outside the subnormal range, so the pixels are those
    # of the unhalved ratio
    lo, hi = values.min() / 2, values.max() / 2
    if hi > lo:
        scaled = np.rint((values / 2 - lo) / (hi - lo) * 255).astype(int)
    else:
        scaled = np.zeros(values.shape, dtype=int)
    h, w = values.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines += [" ".join(str(v) for v in row) for row in scaled]
    Path(path).write_text("\n".join(lines) + "\n")
