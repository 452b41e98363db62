"""Spatial filter grids and the geometric resampling that realizes the
filter transform and general group actions on them.

Grids are square with odd side length so a center pixel exists; the center
pixel sits at the origin, x grows rightward (columns), y grows upward (rows
decrease).  Samples outside the grid read as zero.

The resampling surface is `sample_plane`, the one primitive.  The
coordinate maps of a group's elements are one read-only (|G|, 2, 2) table,
`coordinate_table`, built once per group: `sample_plane(f, table[g.index],
mode)` evaluates f at the coordinates moved by g, out(x) = f(g x).
`filter_transform` is that action through the whole table in inverse
order, so its copies steer exactly where the table permutes the grid.

Resampling through a linear coordinate map is a fixed sparse linear map on
the pixels: one tap per pixel for nearest, up to four for bilinear.
`sample_plane` takes a whole stack of maps at once, so the |G| copies of a
filter transform, or the acted copies of a feature map, come from one
gather.  The taps (flat `intp` source index and weight) are built once per
(grid size, stack of maps, mode) and kept in one `functools.lru_cache` of
256 stacks, each of at most TAP_CACHE_PIXELS output pixels; larger stacks
are rebuilt per call.  `exact_indices` reads the taps of the whole table,
the filter transform's own.  A call works pixel-major: the batched grids
are transposed once to (h*w, batch), so a tap copies one contiguous row
holding every grid.  A bilinear call then takes, per tile of output pixels,
one `take` of every tap plane, one in-place product with the weights and
one sum over the planes from +0.0 in their fixed order; the tile bounds
that to about TAP_TILE doubles, and the result is transposed back to (...,
maps, h, w) once.  A bilinear tap plane whose weight is 0 at every pixel of
the stack is dropped when the taps are built: adding 0 * value to a partial
sum that starts from +0.0 changes no bits for finite values, and a map that
lands on grid points (a quarter turn, a reflection) then gathers one plane
instead of four.

Rotation angles are exact rationals (`rotation_cos_sin`), so congruent
turns resample bit-identically for every N and 90-degree multiples are
exact pixel permutations.  Nearest mode rounds centred source coordinates
half away from zero, so the rounding commutes with negation at every tie.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .groups import GroupSpec, check_integers, inverse_indices, product_indices

MODES = ("bilinear", "nearest")
TAU = 2.0 * math.pi


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown interpolation mode {mode!r}: expected one of {MODES}")
    return mode


def check_filter_grid(values: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(values):
        raise ValueError("filter grid must be real, got complex values")
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

    The turn is reduced mod 1 and to lowest terms, so congruent turns give
    bit-identical values for every n.  Its remainder within a quarter turn is
    folded into the first octant, where cos/sin are evaluated once; the
    octant swap (c == s at 45 degrees) and the quarter turns are exact swap
    and sign steps, so turn n - m gives (c, -s) and m + n/4 gives (-s, c).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    turn %= n
    d = math.gcd(turn, n)
    q = n // d
    # turn/n = (quarter + rest/q) / 4, with 0 <= rest < q
    quarter, rest = divmod(4 * turn // d, q)
    a = TAU * min(rest, q - rest) / (4 * q)
    c, s = math.cos(a), math.sin(a)
    if 2 * rest >= q:
        c, s = (c, c) if 2 * rest == q else (s, c)
    for _ in range(quarter):
        c, s = -s, c
    # + 0.0 turns the -0.0 of a sign step into +0.0
    return c + 0.0, s + 0.0


def _round_centred(t: np.ndarray, centre: float) -> np.ndarray:
    """The pixel index nearest the centred coordinate t on a side with this
    centre index: |t| rounds half away from zero onto the pixel positions
    (integers on an odd side, half-integers on an even one, whose centre tie
    t = 0 follows t's sign bit) and t's sign is put back."""
    half = centre % 1.0
    return (centre + np.copysign(np.floor(np.abs(t) + (0.5 - half)) + half, t)).astype(int)


# a stack of at most this many output pixels keeps its taps in `_build_taps`'s
# cache of 256 entries, each at most 64 B a pixel (four bilinear planes of
# index and weight), so 32 MiB in all; a larger stack is built on every call
TAP_CACHE_PIXELS = 2048


@functools.lru_cache(maxsize=256)
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
    if not np.isfinite(m).all():
        raise ValueError("coordinate maps must be finite")
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.indices((h, w))
    x = cols - cc
    y = cr - rows
    sx = m[:, 0, 0] * x + m[:, 0, 1] * y
    sy = m[:, 1, 0] * x + m[:, 1, 1] * y

    def flat_index(r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inside = (r >= 0) & (r < h) & (c >= 0) & (c < w)
        index = np.clip(r, 0, h - 1) * w + np.clip(c, 0, w - 1)
        return index.ravel().astype(np.intp), inside.ravel()

    if mode == "nearest":
        # rows grow downward, against y
        index, weight = flat_index(_round_centred(-sy, cr), _round_centred(sx, cc))
    else:
        fr, fc = cr - sy, sx + cc
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


def _taps(h: int, w: int, matrix: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """`_build_taps` for a stack of maps, cached up to TAP_CACHE_PIXELS pixels."""
    key = tuple(matrix.ravel().tolist())
    build = _build_taps if len(key) // 4 * h * w <= TAP_CACHE_PIXELS else _build_taps.__wrapped__
    return build(h, w, key, mode)


def sample_plane(values: np.ndarray, matrix: np.ndarray, mode: str) -> np.ndarray:
    """Resample a grid through a stack of linear coordinate maps.

    `matrix` has shape (..., 2, 2); a single (2, 2) map is the empty stack.
    out[..., i, r, c] = values[...] interpolated at matrix[i] @ (x, y) for the
    centered coordinates (x, y) of pixel (r, c); points outside the grid read
    0.  The output has shape values.shape[:-2] + matrix.shape[:-2] + (h, w):
    leading dimensions of `values` are batched over every map of the stack.
    The grid and the maps must be real, and every map finite.  Bilinear
    taps are summed in a fixed order from zero, so each map of a stack gives
    the same bits as a call with that map alone, whatever the tiling.  The
    output is a new C-contiguous array.
    """
    check_mode(mode)
    if np.iscomplexobj(values):
        raise ValueError("resampled grid must be real, got complex values")
    values = np.asarray(values, dtype=float)
    matrix = np.asarray(matrix)
    if matrix.dtype.kind == "c":
        raise ValueError("coordinate maps must be real, got complex values")
    matrix = matrix.astype(float, copy=False)
    if matrix.ndim < 2 or matrix.shape[-2:] != (2, 2):
        raise ValueError(f"coordinate maps must have shape (..., 2, 2), got {matrix.shape}")
    h, w = values.shape[-2:]
    index, weight = _taps(h, w, matrix, mode)
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
    built once per group and read-only.  Row g is g acting on centred
    coordinates: the rotation by g's angle, after the reflection y -> -y
    when g reflects."""
    rows = []
    for g in spec.elements():
        c, s = rotation_cos_sin(g.i1, spec.rotation_order)
        rot = np.array([[c, -s], [s, c]])
        rows.append(rot @ np.diag([1.0, -1.0]) if g.i0 else rot)
    table = np.array(rows)
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=256, typed=True)
def exact_indices(spec: GroupSpec, size: int, mode: str) -> frozenset[int]:
    """The indices of the elements that act exactly on a size x size grid in
    this mode, from the whole `coordinate_table`'s taps, built uncached as
    nothing reads them again.  g is exact when its taps permute the pixels,
    one in-grid tap of weight exactly 1 per pixel reading each source pixel
    once, and when, for every h, h's taps read at g's sources equal the taps
    of h * g, the column of `groups.product_indices` at g: then resampling by
    h and then by g is resampling by h * g."""
    check_mode(mode)
    check_integers(size=size)
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    pixels = size * size
    index, weight = _build_taps.__wrapped__(size, size, tuple(coordinate_table(spec).ravel().tolist()), mode)
    weight = weight.reshape(-1, spec.order, pixels)
    # (planes, |G|, pixels), with -1 at the taps that read nothing
    index = np.where(weight != 0, index.reshape(weight.shape), -1)
    source = index.max(axis=0)
    permutes = ((weight != 0).sum(axis=0) == 1).all(axis=1) & (weight.max(axis=0) == 1).all(axis=1)
    permutes &= (np.sort(source, axis=1) == np.arange(pixels)).all(axis=1)
    elements = np.arange(spec.order)
    return frozenset(
        g
        for g in np.flatnonzero(permutes).tolist()
        for product in [product_indices(spec, elements, g)]
        if (index.take(source[g], axis=2) == index.take(product, axis=1)).all()
        and (weight.take(source[g], axis=2) == weight.take(product, axis=1)).all()
    )


def filter_transform(base: np.ndarray, spec: GroupSpec, mode: str) -> np.ndarray:
    """The filter transform: (|G|, S, S) copies of the base filter f in
    `spec.elements()` order, copy g being f(g^-1 x): row g^-1 of one
    `sample_plane` call through all of `coordinate_table`.  Copy m is f turned
    counter-clockwise by m/N of a turn; on D_N, copy N + m is the row flip
    of f (the reflection about the x-axis) turned the same way."""
    base = check_filter_grid(base)
    return sample_plane(base, coordinate_table(spec), mode)[inverse_indices(spec, np.arange(spec.order))]
