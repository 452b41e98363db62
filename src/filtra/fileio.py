"""File formats: filter grids as CSV, filter dumps as PGM.

Filter CSV: first line ``S=<odd int>``, then S lines of S comma-separated
values.  Values are written with 17 significant digits so round trips are
exact.  Files are read as UTF-8, less one leading byte-order mark.  Reading
rejects a nan or inf value with its file and line: this reader, with
`features.feature_map`, is where finiteness is checked.  Feature maps have
no file format; callers hand them over as arrays.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .filters import check_filter_grid


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_filter_csv(path: str | Path, values: np.ndarray) -> None:
    values = check_filter_grid(values)
    s = values.shape[0]
    lines = [f"S={s}"]
    lines += [",".join(_fmt(v) for v in row) for row in values]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_lines(path: str | Path) -> tuple[list[str], int]:
    """The lines of `path` without leading and trailing blank space, and the
    file line number of the first of them."""
    try:
        raw = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    stripped = raw.strip()
    return stripped.splitlines(), raw[: raw.index(stripped)].count("\n") + 1


def _value_rows(path: str | Path, lines: list[str], first: int, width: int) -> list[list[float]]:
    """Parse lines of `width` comma-separated finite numbers; `first` is the
    file line number of lines[0]."""
    rows = []
    for lineno, line in enumerate(lines, start=first):
        items = line.split(",")
        if len(items) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} values, got {len(items)}")
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
    return rows


def read_filter_csv(path: str | Path) -> np.ndarray:
    text, first = _read_lines(path)
    if not text or not text[0].startswith("S="):
        raise ValueError(f"{path}:{first}: expected a first line of the form S=<odd int>")
    field = text[0][2:]
    try:
        s = int(field) if field.isascii() and "_" not in field else 0
    except ValueError:
        s = 0
    if s < 1:
        raise ValueError(f"{path}:{first}: S must be a positive integer, got {field!r}")
    if len(text) != s + 1:
        raise ValueError(f"{path}: expected {s} rows after the header, got {len(text) - 1}")
    values = np.array(_value_rows(path, text[1:], first + 1, s))
    try:
        return check_filter_grid(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_pgm(path: str | Path, values: np.ndarray) -> None:
    """8-bit P2 PGM with per-filter affine min-max normalization (lossy,
    visualization only)."""
    values = np.asarray(values, dtype=float)
    lo, hi = values.min(), values.max()
    if hi > lo:
        scaled = np.rint((values - lo) / (hi - lo) * 255).astype(int)
    else:
        scaled = np.zeros(values.shape, dtype=int)
    h, w = values.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines += [" ".join(str(v) for v in row) for row in scaled]
    Path(path).write_text("\n".join(lines) + "\n")
