"""Spatial filter grids and the geometric resampling that realizes the
filter transform and general group actions on them.

Grids are square with odd side length so a center pixel exists; the center
pixel sits at the origin, x grows rightward (columns), y grows upward (rows
decrease).  Samples outside the grid read as zero.

The resampling surface is `sample_plane`, the one primitive, and
`filter_transform`, which stacks a base filter with its rotated and
reflected copies, one per element of the group.  The coordinate maps of a
group's elements are one read-only (|G|, 2, 2) table, `coordinate_table`,
built once per group; `coordinate_matrix(g)` is its row `g.index`, so the
steer checks and the group action read maps without fresh trigonometry.
`sample_plane(f, coordinate_matrix(g), mode)` evaluates f at the
coordinates moved by one element g: out(x) = f(g x).

Resampling through a linear coordinate map is a fixed sparse linear map on
the pixels: one tap per pixel for nearest, up to four for bilinear.
`sample_plane` takes a whole stack of maps at once, so the |G| copies of a
filter transform, or the acted copies of a feature map, come from one
gather.  The taps (flat `intp` source index and weight) are built once per
(grid size, stack of maps, mode) and kept in a cache bounded in entries and
in bytes.  A call works pixel-major: the batched grids are transposed once
to (h*w, batch), so a tap copies one contiguous row holding every grid.  A
bilinear call then takes, per tile of output pixels, one `take` of every
tap plane, one in-place product with the weights and one sum over the
planes from +0.0 in their fixed order; the tile bounds that temporary to
about TAP_TILE doubles.  The pixel-major result is transposed back to
(..., maps, h, w) once at the end.  A bilinear tap plane whose weight is 0
at every pixel of the stack is dropped when the taps are built: adding
0 * value to a partial sum that starts from +0.0 changes no bits for finite
values, and a map that lands on grid points (a quarter turn, a reflection)
then gathers one plane instead of four.

Rotation angles are exact rationals: every rotation is a turn i1/N, reduced
to lowest terms before cos/sin are evaluated, and near-integer cos/sin
values are snapped.  This makes rotations by congruent angles bit-identical
for every N and makes 90-degree multiples exact pixel permutations.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .groups import TAU, GroupElement, GroupSpec

MODES = ("bilinear", "nearest")

_SNAP_EPS = 1e-12


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown interpolation mode {mode!r}: expected one of {MODES}")
    return mode


def check_filter_grid(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError(f"filter grid must be square, got shape {values.shape}")
    if values.shape[0] % 2 == 0:
        raise ValueError(f"filter side length must be odd, got {values.shape[0]}")
    if not np.all(np.isfinite(values)):
        raise ValueError("filter grid contains non-finite values")
    return values


def rotation_cos_sin(turn: int, n: int) -> tuple[float, float]:
    """Cosine and sine of the rotation by turn/n of a full turn.

    The turn is reduced mod 1 and to lowest terms before the angle is formed,
    so congruent turns give bit-identical values for every n; cos/sin within
    1e-12 of an integer snap to it.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    turn %= n
    d = math.gcd(turn, n)
    a = TAU * (turn // d) / (n // d)
    c, s = math.cos(a), math.sin(a)
    if abs(c - round(c)) < _SNAP_EPS:
        c = float(round(c))
    if abs(s - round(s)) < _SNAP_EPS:
        s = float(round(s))
    return c, s


def _round_half_down(x: np.ndarray) -> np.ndarray:
    """Round to the nearest integer, ties toward the smaller integer."""
    return np.ceil(x - 0.5).astype(int)


class _TapCacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int
    nbytes: int
    maxbytes: int


class _TapCache:
    """Least recently used tap sets, bounded in entries and in bytes.  A tap
    set larger than the byte bound is built on every call and never kept."""

    def __init__(self, build, maxsize: int, maxbytes: int) -> None:
        self._build = build
        self.maxsize, self.maxbytes = maxsize, maxbytes
        self._entries: OrderedDict = OrderedDict()
        self.cache_clear()

    def __call__(self, *key):
        taps = self._entries.get(key)
        if taps is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return taps
        self.misses += 1
        taps = self._build(*key)
        size = sum(t.nbytes for t in taps)
        if size <= self.maxbytes:
            self._entries[key] = taps
            self.nbytes += size
            while len(self._entries) > self.maxsize or self.nbytes > self.maxbytes:
                self.nbytes -= sum(t.nbytes for t in self._entries.popitem(last=False)[1])
        return taps

    def cache_info(self) -> _TapCacheInfo:
        return _TapCacheInfo(self.hits, self.misses, self.maxsize, len(self._entries), self.nbytes, self.maxbytes)

    def cache_clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.nbytes = 0


def _build_taps(
    h: int, w: int, matrices: tuple[float, ...], mode: str
) -> tuple[np.ndarray, np.ndarray]:
    """The taps of `sample_plane` for a stack of n maps (flattened row-major
    into `matrices`) on an h x w grid: flat source indices and, per tap, the
    bilinear weight (0 outside the grid) or the nearest-mode inside mask.
    Shapes (n*h*w,) for nearest and (planes, n*h*w) for bilinear, where the
    planes are the four bilinear corners in a fixed order less those whose
    weight is 0 everywhere, and never fewer than one."""
    m = np.array(matrices, dtype=float).reshape(-1, 2, 2, 1, 1)
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.indices((h, w))
    x = cols - cc
    y = cr - rows
    sx = m[:, 0, 0] * x + m[:, 0, 1] * y
    sy = m[:, 1, 0] * x + m[:, 1, 1] * y
    fr = cr - sy
    fc = sx + cc

    def flat_index(r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inside = (r >= 0) & (r < h) & (c >= 0) & (c < w)
        index = np.clip(r, 0, h - 1) * w + np.clip(c, 0, w - 1)
        return index.ravel().astype(np.intp), inside.ravel()

    if mode == "nearest":
        index, weight = flat_index(_round_half_down(fr), _round_half_down(fc))
    else:
        r0 = np.floor(fr).astype(int)
        c0 = np.floor(fc).astype(int)
        dr = fr - r0
        dc = fc - c0
        planes = []
        row_taps = ((r0, 1.0 - dr), (r0 + 1, dr))
        col_taps = ((c0, 1.0 - dc), (c0 + 1, dc))
        for (rr, wr), (c_, wc) in itertools.product(row_taps, col_taps):
            idx, inside = flat_index(rr, c_)
            planes.append((idx, np.where(inside, (wr * wc).ravel(), 0.0)))
        kept = [plane for plane in planes if plane[1].any()] or planes[:1]
        index = np.stack([idx for idx, _ in kept])
        weight = np.stack([wt for _, wt in kept])
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


# a D_N suite over a few sizes and both modes needs a few hundred tap sets;
# the byte bound keeps a few large stacks from holding memory
_sample_taps = _TapCache(_build_taps, maxsize=1024, maxbytes=32 << 20)

# doubles in the live tap temporary of a bilinear `sample_plane` call (128
# KiB): a tile holds as many output pixels of every plane and batched grid as
# fit, and never fewer than one.  Untiled, the temporary is the output times
# the plane count.
TAP_TILE = 1 << 14


def _weighted_tap_sum(source: np.ndarray, index: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """out[i] = sum over planes p of weight[p, i] * source[index[p, i]], for
    a pixel-major (h*w, batch) source: one gather, one product and one sum
    per tile of output pixels.  Each sum starts from +0.0 and adds the planes
    in order.  A function of its own so that the last tile is freed before
    `sample_plane` makes its transposed copy."""
    planes, pixels = index.shape
    batch = source.shape[1]
    out = np.empty((pixels, batch))
    tile = max(1, TAP_TILE // max(1, planes * batch))
    for start in range(0, pixels, tile):
        span = slice(start, start + tile)
        taps = source.take(index[:, span], axis=0)
        taps *= weight[:, span, None]
        np.add.reduce(taps, axis=0, initial=0.0, out=out[span])
    return out


def sample_plane(values: np.ndarray, matrix: np.ndarray, mode: str) -> np.ndarray:
    """Resample a grid through a stack of linear coordinate maps.

    `matrix` has shape (..., 2, 2); a single (2, 2) map is the empty stack.
    out[..., i, r, c] = values[...] interpolated at matrix[i] @ (x, y) for the
    centered coordinates (x, y) of pixel (r, c); points outside the grid read
    0.  The output has shape values.shape[:-2] + matrix.shape[:-2] + (h, w):
    leading dimensions of `values` are batched over every map of the stack.
    The taps are built once per (h, w, stack, mode) and cached; bilinear taps
    are summed in a fixed order starting from zero, so each map of a stack
    gives the same bits as a call with that map alone, whatever the tiling.
    The output is a new C-contiguous array.
    """
    check_mode(mode)
    values = np.asarray(values, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim < 2 or matrix.shape[-2:] != (2, 2):
        raise ValueError(f"coordinate maps must have shape (..., 2, 2), got {matrix.shape}")
    h, w = values.shape[-2:]
    index, weight = _sample_taps(h, w, tuple(matrix.ravel().tolist()), mode)
    lead = values.shape[:-2]
    batch = math.prod(lead)
    # pixel-major: a tap copies one contiguous row holding every batched grid
    source = np.ascontiguousarray(values.reshape(batch, h * w).T)
    if mode == "nearest":
        out = source.take(index, axis=0)
        out[~weight] = 0.0
    else:
        out = _weighted_tap_sum(source, index, weight)
    return np.ascontiguousarray(out.T).reshape(lead + matrix.shape[:-2] + (h, w))


@functools.lru_cache(maxsize=64)
def coordinate_table(spec: GroupSpec) -> np.ndarray:
    """The (|G|, 2, 2) coordinate maps of every element, row `g.index` for g,
    built once per group and read-only.  Row g is the rotation by g's angle,
    after the reflection y -> -y when g reflects."""
    rows = []
    for g in spec.elements():
        c, s = rotation_cos_sin(g.i1, spec.rotation_order)
        rot = np.array([[c, -s], [s, c]])
        rows.append(rot @ np.diag([1.0, -1.0]) if g.i0 else rot)
    table = np.array(rows)
    table.setflags(write=False)
    return table


def coordinate_matrix(g: GroupElement) -> np.ndarray:
    """Matrix of g acting on centered coordinates: reflect (y -> -y) first
    when i0 = 1, then rotate by the element's angle.  A read-only row of
    `coordinate_table`."""
    return coordinate_table(g.spec)[g.index]


def filter_transform(base: np.ndarray, spec: GroupSpec, mode: str) -> np.ndarray:
    """The filter transform: (|G|, S, S) copies of the base filter f, the
    copy for element g being f(g^-1 x), in `spec.elements()` order.  Entry m
    is f rotated counter-clockwise by m/N of a turn; on D_N, entry N + m is
    its row flip (the reflection about the x-axis) rotated the same way.  Both
    halves go through the N - 1 inverse-rotation maps in one `sample_plane`
    call."""
    base = check_filter_grid(base)
    n = spec.rotation_order
    halves = np.stack([base, base[::-1]][: spec.reflection_order])
    # out(x) = f(R(-theta) x) rotates the content by theta
    cos_sin = [rotation_cos_sin(m, n) for m in range(1, n)]
    maps = np.reshape([[[c, s], [-s, c]] for c, s in cos_sin], (n - 1, 2, 2))
    rotated = sample_plane(halves, maps, mode)
    return np.concatenate([halves[:, None], rotated], axis=1).reshape(-1, *base.shape)
