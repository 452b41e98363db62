"""File formats: filter grids and feature maps as CSV, filter dumps as PGM.

Filter CSV: first line ``S=<odd int>``, then S lines of S comma-separated
values.  Feature CSV: one header line
``C=<c>,H=<h>,W=<w>,group=<c|d><N>,rep=<trivial|irrep:J:K|regular>,mult=<m>``
followed by C*H lines of W values, channel-major.  Values are written with 17
significant digits so round trips are exact.  Reading rejects a nan or inf
value with its file and line: these readers, with `features.feature_map`,
are where finiteness is checked.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .features import FeatureMap
from .filters import check_filter_grid
from .groups import GroupSpec, parse_group
from .representations import RepSpec, irrep, regular_rep, trivial_rep


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
    raw = Path(path).read_text()
    stripped = raw.strip()
    return stripped.splitlines(), raw[: raw.index(stripped)].count("\n") + 1


def _int_field(where: str, key: str, text: str) -> int:
    """A positive integer header field; `where` names the file and line."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{where}: {key} must be a positive integer, got {text!r}")
    return value


def _value_rows(path: str | Path, lines: list[str], first: int, width: int) -> list[list[float]]:
    """Parse lines of `width` comma-separated finite numbers; `first` is the
    file line number of lines[0]."""
    rows = []
    for lineno, line in enumerate(lines, start=first):
        items = line.split(",")
        if len(items) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} values, got {len(items)}")
        try:
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
    s = _int_field(f"{path}:{first}", "S", text[0][2:])
    if len(text) != s + 1:
        raise ValueError(f"{path}: expected {s} rows after the header, got {len(text) - 1}")
    values = np.array(_value_rows(path, text[1:], first + 1, s))
    try:
        return check_filter_grid(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _rep_token(rep: RepSpec) -> str:
    if rep.kind == "irrep":
        return f"irrep:{rep.j}:{rep.k}"
    return rep.kind


def _parse_rep(token: str, spec: GroupSpec) -> RepSpec:
    if token == "trivial":
        return trivial_rep(spec)
    if token == "regular":
        return regular_rep(spec)
    if token.startswith("irrep:"):
        try:
            j, k = (int(part) for part in token.split(":")[1:])
        except ValueError:
            raise ValueError(f"bad representation token {token!r}") from None
        return irrep(spec, j, k)
    raise ValueError(f"bad representation token {token!r}")


def write_feature_csv(path: str | Path, f: FeatureMap) -> None:
    c, h, w = f.data.shape
    header = f"C={c},H={h},W={w},group={f.group.name},rep={_rep_token(f.rep)},mult={f.multiplicity}"
    lines = [header]
    for channel in f.data:
        lines += [",".join(_fmt(v) for v in row) for row in channel]
    Path(path).write_text("\n".join(lines) + "\n")


def read_feature_csv(path: str | Path) -> FeatureMap:
    text, first = _read_lines(path)
    if not text:
        raise ValueError(f"{path}: empty feature file")
    where = f"{path}:{first}"
    fields = {}
    for item in text[0].split(","):
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"{where}: header item {item!r} is not of the form key=value")
        fields[key] = value
    missing = [key for key in ("C", "H", "W", "group", "rep", "mult") if key not in fields]
    if missing:
        raise ValueError(f"{where}: header lacks {', '.join(missing)}")
    c, h, w, mult = (_int_field(where, key, fields[key]) for key in ("C", "H", "W", "mult"))
    try:
        spec = parse_group(fields["group"])
        rep = _parse_rep(fields["rep"], spec)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if c != mult * rep.dim:
        raise ValueError(f"{where}: C={c} does not equal mult*dim = {mult}*{rep.dim}")
    if len(text) != 1 + c * h:
        raise ValueError(f"{path}: expected {c * h} value rows, got {len(text) - 1}")
    data = np.array(_value_rows(path, text[1:], first + 1, w)).reshape(c, h, w)
    try:
        return FeatureMap(spec, rep, data)
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
