"""Vector-field feature maps, the group action on them, plain 2D convolution
against steerable kernels, and steerability-preserving nonlinearity/pooling.

A feature map is a C x H x W tensor whose channels carry `multiplicity`
copies of a representation, multiplicity-major: channel block b spans
[b * dim, (b + 1) * dim).

Correlation is im2col in row bands: the S x S windows of a band of output
rows are copied as (dim_in * S * S, rows * W') columns into one reused
buffer of about COLUMN_TILE doubles, then multiplied by the kernel flattened
to (dim_out, dim_in * S * S) straight into the output.  The buffer is sized
to stay in a core's L2 cache between the copy and the product.  The band
height depends only on dim_in * S * S and the output width W', so a block's
result does not depend on how many blocks are correlated with it.
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
slices; the map is copied into a zero-padded one only when the windows run
past its edge.

Finiteness of a caller's data is checked where it enters the library, in
`feature_map`.  `FeatureMap` does not scan its data, so maps
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
# rows of columns as fit, and never fewer than one.  4 MiB bands did not fit a
# 2 MiB L2 and streamed from memory; at 256 KiB a 15 x 15 map with 1296 column
# rows (D8 regular, S = 9) becomes one-row bands of 15 columns, where BLAS is
# slower.  BLAS may round a product in the last bits differently at another
# band width.
COLUMN_TILE = 1 << 16


@dataclass(frozen=True)
class FeatureMap:
    group: GroupSpec
    rep: RepSpec
    data: np.ndarray  # (C, H, W), C = multiplicity * rep.dim

    def __post_init__(self) -> None:
        if self.rep.spec != self.group:
            raise ValueError("feature representation must live on the feature's group")
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
    """A feature map over a copy of `data`, which must be finite."""
    data = np.array(data, dtype=float)
    if not np.isfinite(data).all():
        raise ValueError("feature map contains non-finite values")
    return FeatureMap(group, rep, data)


def _correlate(kernel: SteerableKernel, f: FeatureMap) -> FeatureMap:
    """Valid cross-correlation of the feature map with the kernel at stride
    1: the output has H - S + 1 rows and W - S + 1 columns, reads the map
    alone and carries the kernel's output representation."""
    if f.group != kernel.group:
        raise ValueError(f"feature group {f.group.name} != kernel group {kernel.group.name}")
    if f.rep != kernel.rep_in:
        raise ValueError(f"feature rep {f.rep.label()} != kernel input rep {kernel.rep_in.label()}")
    s = kernel.size
    if f.height < s or f.width < s:
        raise ValueError(f"spatial size {f.height}x{f.width} smaller than the kernel size {s}")
    blocks = f.blocks()
    (m, di, h, w), do = blocks.shape, kernel.rep_out.dim
    oh, ow, k = h - s + 1, w - s + 1, di * s * s
    # (blocks, di, S, S, H', W'): window offset first, output pixel last
    strides = blocks.strides + blocks.strides[2:]
    windows = as_strided(blocks, (m, di, s, s, oh, ow), strides, writeable=False)
    rows = min(oh, max(1, COLUMN_TILE // (k * ow)))
    buffer = np.empty(k * rows * ow)
    weights = kernel.grids.reshape(do, k)
    out = np.empty((m, do, oh * ow))
    for b in range(m):
        for y in range(0, oh, rows):
            band = min(rows, oh - y)
            columns = buffer[: k * band * ow].reshape(k, band * ow)
            np.copyto(columns.reshape(di, s, s, band, ow), windows[b, :, :, :, y : y + band])
            np.matmul(weights, columns, out=out[b, :, y * ow : (y + band) * ow])
    return FeatureMap(f.group, kernel.rep_out, out.reshape(m * do, oh, ow))


def conv2d(kernel: SteerableKernel, f: FeatureMap) -> FeatureMap:
    """Cross-correlate the feature map with the kernel: zero padding, stride 1,
    same spatial size; output carries the kernel's output representation.
    The valid correlation of a zero-padded copy of the map."""
    s = kernel.size
    if f.height < s or f.width < s:
        raise ValueError(f"spatial size {f.height}x{f.width} smaller than the kernel size {s}")
    pad = s // 2
    padded = np.pad(f.data, ((0, 0), (pad, pad), (pad, pad)))
    return _correlate(kernel, FeatureMap(f.group, f.rep, padded))


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
    for g in elements:
        if g.spec != f.group:
            raise ValueError(f"element of {g.spec.name} acting on a {f.group.name} feature")
    n, m, d = len(elements), f.multiplicity, f.rep.dim
    maps = coordinate_table(f.group)[inverse_indices(f.group, [g.index for g in elements])]
    # (C, n, H, W) from the gather; each copy's blocks made contiguous
    moved = sample_plane(f.data, maps, mode).swapaxes(0, 1)
    moved = np.ascontiguousarray(moved).reshape(n, m, d, f.height * f.width)
    rho = np.array([f.rep.matrix(g) for g in elements]).reshape(n, d, d)
    return (rho[:, None] @ moved).reshape(n, *f.data.shape)


def act_on_feature(g: GroupElement, f: FeatureMap, mode: str = "bilinear") -> FeatureMap:
    """Group action on a feature map: resample each channel at the coordinates
    moved by g's inverse, then mix channel blocks by the representation of g."""
    return FeatureMap(f.group, f.rep, act_on_feature_stack([g], f, mode)[0])


def relu_channelwise(f: FeatureMap) -> FeatureMap:
    """Elementwise max(0, v).  Rejects irrep features: a channel-wise
    nonlinearity does not commute with irrep channel mixing."""
    if f.rep.kind == "irrep":
        raise ValueError("channel-wise relu breaks steerability of irrep features")
    return FeatureMap(f.group, f.rep, np.maximum(f.data, 0.0))


def group_pool(f: FeatureMap) -> FeatureMap:
    """Per multiplicity block and pixel, max over the regular-representation
    channels; the result carries the trivial representation."""
    if f.rep.kind != "regular":
        raise ValueError(f"group pooling needs a regular-representation feature, got {f.rep.label()}")
    pooled = f.blocks().max(axis=1)
    return FeatureMap(f.group, trivial_rep(f.group), pooled)


def pool_spatial(f: FeatureMap, k: int, stride: int) -> FeatureMap:
    """Channel-wise spatial max pooling with zero padding to cover the edges."""
    check_integers(k=k, stride=stride)
    if k < 1 or stride < 1:
        raise ValueError(f"window {k} and stride {stride} must be >= 1")
    h, w = f.height, f.width
    oh = max(0, -(-(h - k) // stride)) + 1
    ow = max(0, -(-(w - k) // stride)) + 1
    ph = max(0, (oh - 1) * stride + k - h)
    pw = max(0, (ow - 1) * stride + k - w)
    data = np.pad(f.data, ((0, 0), (0, ph), (0, pw))) if ph or pw else f.data
    span_h, span_w = (oh - 1) * stride + 1, (ow - 1) * stride + 1
    # separable: the max over the k row offsets, then over the k column offsets
    rows = data[:, :span_h:stride].copy()
    for u in range(1, k):
        np.maximum(rows, data[:, u : u + span_h : stride], out=rows)
    out = rows[:, :, :span_w:stride].copy()
    for v in range(1, k):
        np.maximum(out, rows[:, :, v : v + span_w : stride], out=out)
    return FeatureMap(f.group, f.rep, out)
