"""Vector-field feature maps, the group action on them, plain 2D convolution
against steerable kernels, and relu and max pooling, which keep steerability
by acting channel by channel and so reject irrep features.

A feature map is a C x H x W tensor whose channels carry `multiplicity`
copies of a representation, multiplicity-major: channel block b spans
[b * dim, (b + 1) * dim).

Correlation contracts a block's channels in one of two orders, chosen from
the shapes alone.  im2col copies the S x S windows of a band of output rows
as (dim_in * S * S, rows * W') columns into one reused buffer, then
multiplies the kernel flattened to (dim_out, dim_in * S * S) straight into
the output.  Channel-first (kn2row) multiplies the kernel reshaped to
(dim_out * S * S, dim_in) by the block's (dim_in, H * W) channels, then
sums the S * S planes of that product, each shifted by its window offset,
through one strided view into the output.  Channel-first is taken where its
product is smaller than the im2col columns, dim_out * H * W <
dim_in * H' * W' (kernels with one or two output channels, such as the
reversed families), and a whole block's product fits COLUMN_TILE doubles;
other blocks keep im2col.  Each order's buffer holds at most COLUMN_TILE
doubles, sized to stay in a core's L2 cache between the copy and the
product: im2col in bands of output rows (more only where one row of
columns alone exceeds it), channel-first in as many whole blocks as fit.
The order and the band height depend only on the kernel's shape and the
map's H and W, so a block's result does not depend on how many blocks are
correlated with it; the two orders round differently in the last bits.
`_correlate` is that valid correlation: it reads the map itself and gives
the (H - S + 1) x (W - S + 1) output.  `conv2d` runs it on a zero-padded
copy of the map, so the valid output is `conv2d`'s interior crop up to BLAS
rounding, because no window there reaches the padding.  The equivariance
harness runs both sides of its feature check on the valid correlation.  The
action on a cropped map reads zero outside the crop, so only at an element
that maps the grid onto itself does it equal the crop of the acted full
map.

`pool_spatial` is a separable strided max: k in-place maxima over strided
row slices into a (C, out_h, W) buffer, then k over its strided column
slices.  Its windows must tile the map (H, W >= k, with the stride dividing
H - k and W - k), so their lattice is centred; else it raises `ValueError`.

`feature_map` checks a caller's group and that its data are real and finite,
where they enter the library.  `FeatureMap` does not scan its data, so maps
computed inside the library are not scanned again; an overflow there shows
as inf or nan, which the harness reports as an infinite residual.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .filters import coordinate_table, sample_plane
from .groups import GroupElement, GroupSpec, check_integers, inverse_indices
from .kernels import SteerableKernel
from .representations import RepSpec, trivial_rep

# doubles in the im2col band buffer (512 KiB): a band holds as many output
# rows of columns as fit, and never fewer than one.  A channel-first product
# holds as many whole blocks as fit, and at least one, else im2col is kept.
# 4 MiB bands did not fit a 2 MiB L2 and streamed from memory; at 256 KiB a
# 15 x 15 map with 1296 column rows (D8 regular, S = 9) becomes one-row bands
# of 15 columns, where BLAS is slower.  BLAS may round a product in the last
# bits differently at another band width.
COLUMN_TILE = 1 << 16


@dataclass(frozen=True)
class FeatureMap:
    rep: RepSpec
    data: np.ndarray  # (C, H, W), C = multiplicity * rep.dim

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ValueError(f"feature data must be C x H x W, got shape {self.data.shape}")
        if self.data.shape[0] % self.rep.dim != 0 or self.data.shape[0] == 0:
            raise ValueError(
                f"channel count {self.data.shape[0]} is not a positive multiple of dim {self.rep.dim}"
            )
        self.data.setflags(write=False)

    @property
    def multiplicity(self) -> int:
        return self.data.shape[0] // self.rep.dim

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def blocks(self) -> np.ndarray:
        """View as (multiplicity, rep.dim, H, W)."""
        m, d = self.multiplicity, self.rep.dim
        return self.data.reshape(m, d, self.height, self.width)


def feature_map(group: GroupSpec, rep: RepSpec, data: np.ndarray) -> FeatureMap:
    """A feature map of `rep`, which must live on `group`, over a copy of
    `data`, which must be real and finite."""
    if rep.spec != group:
        raise ValueError("feature representation must live on the feature's group")
    if np.iscomplexobj(data):
        raise ValueError("feature map must be real, got complex values")
    data = np.array(data, dtype=float)
    if not np.isfinite(data).all():
        raise ValueError("feature map contains non-finite values")
    return FeatureMap(rep, data)


def _channel_first(do: int, di: int, s: int, h: int, w: int) -> bool:
    """Whether a di -> do kernel of side s is correlated channel-first on
    h x w blocks: where its product, do * s * s planes of h * w doubles, is
    smaller than the im2col columns, di * s * s rows of h' * w', and a whole
    block's product fits COLUMN_TILE doubles."""
    return do * s * s * h * w <= COLUMN_TILE and do * h * w < di * (h - s + 1) * (w - s + 1)


def _correlate_columns(grids: np.ndarray, blocks: np.ndarray, out: np.ndarray) -> None:
    """im2col: each band's windows copied as (di * S * S, rows * W')
    columns, then one product with the kernel flattened to (do, di * S * S)
    straight into `out`, (m, do, H', W')."""
    (m, di, _, _), (do, _, s, _) = blocks.shape, grids.shape
    oh, ow, k = out.shape[2], out.shape[3], di * s * s
    # (blocks, di, S, S, H', W'): window offset first, output pixel last
    strides = blocks.strides + blocks.strides[2:]
    windows = as_strided(blocks, (m, di, s, s, oh, ow), strides, writeable=False)
    rows = min(oh, max(1, COLUMN_TILE // (k * ow)))
    buffer = np.empty(k * rows * ow)
    weights = grids.reshape(do, k)
    flat = out.reshape(m, do, oh * ow)
    for b in range(m):
        for y in range(0, oh, rows):
            band = min(rows, oh - y)
            columns = buffer[: k * band * ow].reshape(k, band * ow)
            np.copyto(columns.reshape(di, s, s, band, ow), windows[b, :, :, :, y : y + band])
            np.matmul(weights, columns, out=flat[b, :, y * ow : (y + band) * ow])


def _correlate_channels_first(grids: np.ndarray, blocks: np.ndarray, out: np.ndarray) -> None:
    """kn2row: the kernel reshaped to (do * S * S, di) times each block's
    (di, H * W) channels, then the S * S planes of that product, each
    shifted by its window offset, summed into `out`, (m, do, H', W').
    Whole blocks go as many at a time as fit COLUMN_TILE."""
    (m, di, h, w), (do, _, s, _) = blocks.shape, grids.shape
    oh, ow, planes = out.shape[2], out.shape[3], do * s * s
    count = min(m, COLUMN_TILE // (planes * h * w))
    buffer = np.empty(count * planes * h * w)
    # row (o, u, v) holds the kernel taps at window offset (u, v)
    weights = grids.transpose(0, 2, 3, 1).reshape(planes, di)
    step = buffer.itemsize
    for b in range(0, m, count):
        n = min(count, m - b)
        product = buffer[: n * planes * h * w].reshape(n, planes, h * w)
        np.matmul(weights, blocks[b : b + n].reshape(n, di, h * w), out=product)
        # (n, do, S, S, H', W'): plane (o, u, v) read from row u and column v on
        by_block, by_plane, _ = product.strides
        shifted = as_strided(
            product,
            (n, do, s, s, oh, ow),
            (by_block, s * s * by_plane, s * by_plane + w * step, by_plane + step, w * step, step),
            writeable=False,
        )
        shifted.sum(axis=(2, 3), out=out[b : b + n])


def _correlate(kernel: SteerableKernel, f: FeatureMap) -> FeatureMap:
    """Valid cross-correlation of the feature map with the kernel at stride
    1: the output has H - S + 1 rows and W - S + 1 columns, reads the map
    alone and carries the kernel's output representation.  The order of the
    contraction is chosen from the shapes alone (`_channel_first`)."""
    if f.rep.spec != kernel.rep_in.spec:
        raise ValueError(f"feature group {f.rep.spec.name} != kernel group {kernel.rep_in.spec.name}")
    if f.rep != kernel.rep_in:
        raise ValueError(f"feature rep {f.rep.label()} != kernel input rep {kernel.rep_in.label()}")
    s = kernel.size
    if f.height < s or f.width < s:
        raise ValueError(f"spatial size {f.height}x{f.width} smaller than the kernel size {s}")
    blocks = f.blocks()
    (m, di, h, w), do = blocks.shape, kernel.rep_out.dim
    out = np.empty((m, do, h - s + 1, w - s + 1))
    if _channel_first(do, di, s, h, w):
        _correlate_channels_first(kernel.grids, blocks, out)
    else:
        _correlate_columns(kernel.grids, blocks, out)
    return FeatureMap(kernel.rep_out, out.reshape(-1, *out.shape[2:]))


def conv2d(kernel: SteerableKernel, f: FeatureMap) -> FeatureMap:
    """Cross-correlate the feature map with the kernel: zero padding, stride 1,
    same spatial size; output carries the kernel's output representation.
    The valid correlation of a zero-padded copy of the map."""
    s = kernel.size
    if f.height < s or f.width < s:
        raise ValueError(f"spatial size {f.height}x{f.width} smaller than the kernel size {s}")
    pad = s // 2
    padded = np.pad(f.data, ((0, 0), (pad, pad), (pad, pad)))
    return _correlate(kernel, FeatureMap(f.rep, padded))


def act_on_feature_stack(
    elements: Sequence[GroupElement], f: FeatureMap, mode: str = "bilinear"
) -> np.ndarray:
    """The acted copies g . f for each element in order, as one
    (len(elements), C, H, W) array.

    Every channel is resampled at the coordinates moved by each g's inverse
    in one gather, then each copy's channel blocks are mixed by the
    representation of its g in one batched matrix product, the same for
    every kind of representation.  Each copy equals `act_on_feature(g, f,
    mode)` bit for bit.
    """
    n, m, d, spec = len(elements), f.multiplicity, f.rep.dim, f.rep.spec
    # first: the representation rejects an element of another group
    rho = np.array([f.rep.matrix(g) for g in elements]).reshape(n, d, d)
    maps = coordinate_table(spec)[inverse_indices(spec, [g.index for g in elements])]
    # (C, n, H, W) from the gather; each copy's blocks made contiguous
    moved = sample_plane(f.data, maps, mode).swapaxes(0, 1)
    moved = np.ascontiguousarray(moved).reshape(n, m, d, f.height * f.width)
    return (rho[:, None] @ moved).reshape(n, *f.data.shape)


def act_on_feature(g: GroupElement, f: FeatureMap, mode: str = "bilinear") -> FeatureMap:
    """Group action on a feature map: resample each channel at the coordinates
    moved by g's inverse, then mix channel blocks by the representation of g."""
    return FeatureMap(f.rep, act_on_feature_stack([g], f, mode)[0])


def _check_channelwise(f: FeatureMap, op: str) -> None:
    """Reject irrep features: a channel-wise op commutes with the action only where it permutes channels."""
    if f.rep.kind == "irrep":
        raise ValueError(f"{op} breaks steerability of irrep features")


def relu_channelwise(f: FeatureMap) -> FeatureMap:
    """Elementwise max(0, v).  Rejects irrep features."""
    _check_channelwise(f, "channel-wise relu")
    return FeatureMap(f.rep, np.maximum(f.data, 0.0))


def group_pool(f: FeatureMap) -> FeatureMap:
    """Per multiplicity block and pixel, max over the regular-representation
    channels; the result carries the trivial representation."""
    if f.rep.kind != "regular":
        raise ValueError(f"group pooling needs a regular-representation feature, got {f.rep.label()}")
    pooled = f.blocks().max(axis=1)
    return FeatureMap(trivial_rep(f.rep.spec), pooled)


def pool_spatial(f: FeatureMap, k: int, stride: int) -> FeatureMap:
    """Channel-wise spatial max pooling over windows that tile the map; rejects irrep
    features.  Commutes with the action of every element exact on the map's grid."""
    _check_channelwise(f, "channel-wise max pooling")
    check_integers(k=k, stride=stride)
    if k < 1 or stride < 1:
        raise ValueError(f"window {k} and stride {stride} must be >= 1")
    h, w = f.height, f.width
    if min(h, w) < k or (h - k) % stride or (w - k) % stride:
        raise ValueError(f"window {k} and stride {stride} do not tile a {h}x{w} map")
    span_h, span_w = h - k + 1, w - k + 1
    # separable: the max over the k row offsets, then over the k column offsets
    rows = f.data[:, :span_h:stride].copy()
    for u in range(1, k):
        np.maximum(rows, f.data[:, u : u + span_h : stride], out=rows)
    out = rows[:, :, :span_w:stride].copy()
    for v in range(1, k):
        np.maximum(out, rows[:, :, v : v + span_w : stride], out=out)
    return FeatureMap(f.rep, out)
