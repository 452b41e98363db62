from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from filtra import features
from filtra.features import (
    COLUMN_TILE,
    _correlate,
    act_on_feature,
    act_on_feature_stack,
    conv2d,
    feature_map,
    group_pool,
    pool_spatial,
    relu_channelwise,
)
from filtra.filters import coordinate_table, sample_plane
from filtra.groups import cyclic_group, dihedral_group, parse_group
from filtra.kernels import SteerableKernel, steerable_kernel
from filtra.representations import irrep, regular_rep, trivial_rep


def identity_kernel(spec):
    return SteerableKernel(
        spec, trivial_rep(spec), trivial_rep(spec), np.ones((1, 1, 1, 1)), "bilinear"
    )


def averaging_kernel(spec):
    return SteerableKernel(
        spec, trivial_rep(spec), trivial_rep(spec), np.full((1, 1, 3, 3), 1.0 / 9.0), "bilinear"
    )


def test_feature_map_validation():
    c4 = cyclic_group(4)
    with pytest.raises(ValueError):
        feature_map(c4, regular_rep(c4), np.zeros((3, 5, 5)))  # 3 not a multiple of 4
    for bad in (np.nan, np.inf, -np.inf):
        data = np.zeros((4, 5, 5))
        data[3, 4, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            feature_map(c4, regular_rep(c4), data)
    f = feature_map(c4, regular_rep(c4), np.zeros((8, 5, 5)))
    assert f.multiplicity == 2
    with pytest.raises(ValueError, match="^feature representation must live on the feature's group$"):
        feature_map(c4, regular_rep(dihedral_group(4)), np.zeros((8, 5, 5)))
    with pytest.raises(ValueError, match=r"^feature data must be C x H x W, got shape \(5, 5\)$"):
        feature_map(c4, trivial_rep(c4), np.zeros((5, 5)))


def test_intermediate_maps_are_not_scanned():
    # finiteness is checked where data enters (feature_map);
    # a conv that overflows returns inf instead of raising
    c4 = cyclic_group(4)
    kernel = SteerableKernel(c4, trivial_rep(c4), trivial_rep(c4), np.full((1, 1, 3, 3), 2.0), "bilinear")
    with np.errstate(over="ignore"):
        out = conv2d(kernel, feature_map(c4, trivial_rep(c4), np.full((1, 5, 5), 1e308)))
    assert np.isposinf(out.data).all()


def test_conv_identity():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(0)
    f = feature_map(c4, trivial_rep(c4), rng.uniform(-1, 1, (1, 7, 7)))
    out = conv2d(identity_kernel(c4), f)
    assert_array_equal(out.data, f.data)


def test_conv_constant_interior():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(1)
    grids = rng.uniform(-1, 1, (4, 1, 3, 3))
    kernel = SteerableKernel(c4, trivial_rep(c4), regular_rep(c4), grids, "bilinear")
    f = feature_map(c4, trivial_rep(c4), np.full((1, 9, 9), 2.0))
    out = conv2d(kernel, f)
    for o in range(4):
        assert_allclose(out.data[o, 1:-1, 1:-1], 2.0 * grids[o, 0].sum(), atol=1e-12)


def test_conv_impulse_plateau():
    c1 = cyclic_group(1)
    f = np.zeros((1, 5, 5))
    f[0, 2, 2] = 1.0
    out = conv2d(averaging_kernel(c1), feature_map(c1, trivial_rep(c1), f))
    expected = np.zeros((5, 5))
    expected[1:4, 1:4] = 1.0 / 9.0
    assert_allclose(out.data[0], expected, atol=1e-15)


def test_conv_errors():
    c4 = cyclic_group(4)
    f = feature_map(c4, regular_rep(c4), np.zeros((4, 5, 5)))
    with pytest.raises(ValueError):
        conv2d(identity_kernel(c4), f)  # rep mismatch
    small = feature_map(c4, trivial_rep(c4), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError):
        conv2d(averaging_kernel(c4), small)
    d4 = dihedral_group(4)
    with pytest.raises(ValueError):
        conv2d(identity_kernel(d4), feature_map(c4, trivial_rep(c4), np.zeros((1, 5, 5))))


def test_conv_linearity():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(2)
    kernel = steerable_kernel(trivial_rep(cyclic_group(4)), [rng.uniform(-1, 1, (3, 3))])
    fa = rng.uniform(-1, 1, (1, 9, 9))
    fb = rng.uniform(-1, 1, (1, 9, 9))
    a, b = 0.3, -1.9
    mixed = conv2d(kernel, feature_map(c4, trivial_rep(c4), a * fa + b * fb))
    separate = a * conv2d(kernel, feature_map(c4, trivial_rep(c4), fa)).data + b * conv2d(
        kernel, feature_map(c4, trivial_rep(c4), fb)
    ).data
    assert_allclose(mixed.data, separate, atol=1e-12)


def test_act_identity():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(3)
    f = feature_map(c4, regular_rep(c4), rng.uniform(-1, 1, (4, 5, 5)))
    out = act_on_feature(c4.identity(), f)
    assert_array_equal(out.data, f.data)


def test_act_trivial_rotates_image_only():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(4)
    data = rng.uniform(-1, 1, (3, 5, 5))
    f = feature_map(c4, trivial_rep(c4), data)
    out = act_on_feature(c4.element(0, 1), f)
    expected = np.stack([np.rot90(ch) for ch in data])
    assert_allclose(out.data, expected, atol=1e-15)


def test_act_irrep_rotates_vectors():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(5)
    data = rng.uniform(-1, 1, (2, 5, 5))
    f = feature_map(c4, irrep(c4, 0, 1), data)
    out = act_on_feature(c4.element(0, 1), f)
    spun = np.stack([np.rot90(ch) for ch in data])
    expected = np.einsum("ab,bhw->ahw", np.array([[0.0, -1.0], [1.0, 0.0]]), spun)
    assert_allclose(out.data, expected, atol=1e-12)


def one_element_action(g, f, mode):
    """The group action written out for a single element: one resampling
    pass, then the channel blocks mixed by the representation of g."""
    moved = sample_plane(f.data, coordinate_table(g.spec)[g.inverse().index], mode)
    m, d = f.multiplicity, f.rep.dim
    mixed = f.rep.matrix(g) @ moved.reshape(m, d, f.height * f.width)
    return mixed.reshape(f.data.shape)


@pytest.mark.parametrize("mode", ["bilinear", "nearest"])
@pytest.mark.parametrize("name", ["c8", "d6", "c12"])
def test_stacked_action_equals_one_element_actions(name, mode):
    spec = parse_group(name)
    n = spec.rotation_order
    js = (0,) if spec.reflection_order == 1 else (0, 1)
    reps = [trivial_rep(spec), regular_rep(spec)] + [irrep(spec, j, k) for j in js for k in range(n // 2 + 1)]
    rng = np.random.default_rng(n)
    elements = spec.elements()
    # exact (quarter turns, reflections) and non-exact elements, in a shuffled order
    order = [elements[i] for i in rng.permutation(len(elements))]
    for rep in reps:
        for m, (h, w) in ((1, (9, 9)), (2, (7, 11))):
            f = feature_map(spec, rep, rng.uniform(-1, 1, (m * rep.dim, h, w)))
            stacked = act_on_feature_stack(order, f, mode)
            assert stacked.shape == (len(order), m * rep.dim, h, w)
            for copy, g in zip(stacked, order):
                single = act_on_feature(g, f, mode)
                assert single.rep == rep and single.data.shape == f.data.shape
                assert copy.tobytes() == single.data.tobytes(), (rep, g)
                assert copy.tobytes() == one_element_action(g, f, mode).tobytes(), (rep, g)


def test_stacked_action_edge_cases():
    c4, d4 = cyclic_group(4), dihedral_group(4)
    f = feature_map(c4, regular_rep(c4), np.ones((4, 5, 5)))
    assert act_on_feature_stack([], f).shape == (0, 4, 5, 5)
    with pytest.raises(ValueError, match="acting on"):
        act_on_feature_stack([c4.identity(), d4.identity()], f)
    with pytest.raises(ValueError, match="interpolation mode"):
        act_on_feature_stack([c4.identity()], f, "bicubic")


def test_relu():
    c4 = cyclic_group(4)
    f = feature_map(c4, trivial_rep(c4), np.array([[[-1.0, 2.0]]]))
    assert_array_equal(relu_channelwise(f).data, [[[0.0, 2.0]]])
    neg = feature_map(c4, regular_rep(c4), -np.ones((4, 3, 3)))
    assert_array_equal(relu_channelwise(neg).data, np.zeros((4, 3, 3)))
    vec = feature_map(c4, irrep(c4, 0, 1), np.ones((2, 3, 3)))
    with pytest.raises(ValueError):
        relu_channelwise(vec)


def test_relu_commutes_with_regular_permutation():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(6)
    f = feature_map(c4, regular_rep(c4), rng.uniform(-1, 1, (4, 7, 7)))
    for g in c4.elements():
        a = relu_channelwise(act_on_feature(g, f))
        b = act_on_feature(g, relu_channelwise(f))
        assert_allclose(a.data, b.data, atol=1e-15)


def test_group_pool():
    c4 = cyclic_group(4)
    data = np.array([3.0, 1.0, 4.0, 1.0]).reshape(4, 1, 1)
    f = feature_map(c4, regular_rep(c4), data)
    out = group_pool(f)
    assert out.rep.kind == "trivial"
    assert out.data[0, 0, 0] == 4.0

    rng = np.random.default_rng(7)
    f = feature_map(c4, regular_rep(c4), rng.uniform(-1, 1, (8, 5, 5)))  # multiplicity 2
    pooled = group_pool(f)
    assert pooled.data.shape == (2, 5, 5)
    blocks = f.data.reshape(2, 4, 5, 5)
    assert_array_equal(pooled.data, blocks.max(axis=1))
    for g in c4.elements():
        # channel content is invariant: only the spatial grid moves
        assert_allclose(
            group_pool(act_on_feature(g, f)).data,
            act_on_feature(g, pooled).data,
            atol=1e-12,
        )
    with pytest.raises(ValueError):
        group_pool(feature_map(c4, trivial_rep(c4), np.zeros((1, 5, 5))))


def test_pool_spatial():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(8)
    f = feature_map(c4, trivial_rep(c4), rng.uniform(-1, 1, (1, 5, 5)))
    assert_array_equal(pool_spatial(f, 1, 1).data, f.data)

    square = feature_map(c4, trivial_rep(c4), np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    assert_array_equal(pool_spatial(square, 2, 2).data, [[[4.0]]])

    reg = feature_map(c4, regular_rep(c4), rng.uniform(-1, 1, (4, 6, 6)))
    pooled = pool_spatial(reg, 3, 2)
    assert pooled.data.shape == (4, 3, 3)
    with pytest.raises(ValueError):
        pool_spatial(reg, 0, 1)


@pytest.mark.parametrize(
    "k, stride, message",
    [(2.0, 1, "k must be an integer, got 2.0"), (3, 2.0, "stride must be an integer, got 2.0"),
     (True, 1, "k must be an integer, got True"), (3, False, "stride must be an integer, got False"),
     (0, 1, "window 0 and stride 1 must be >= 1"), (3, -2, "window 3 and stride -2 must be >= 1")],
    ids=["float-window", "float-stride", "bool-window", "bool-stride", "zero-window", "negative-stride"],
)
def test_pool_spatial_rejects_non_integer_and_non_positive_windows(k, stride, message):
    c4 = cyclic_group(4)
    f = feature_map(c4, trivial_rep(c4), np.ones((1, 5, 5)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        pool_spatial(f, k, stride)


def test_pool_spatial_commutes_with_channel_permutation():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(9)
    data = rng.uniform(-1, 1, (4, 7, 7))
    f = feature_map(c4, regular_rep(c4), data)
    perm = [1, 2, 3, 0]
    a = pool_spatial(feature_map(c4, regular_rep(c4), data[perm]), 3, 1)
    b = pool_spatial(f, 3, 1)
    assert_array_equal(a.data, b.data[perm])


def loop_conv2d(grids, data):
    """Per-pixel zero-padded same-size cross-correlation of each multiplicity block."""
    do, di, s, _ = grids.shape
    c, h, w = data.shape
    r = s // 2
    padded = np.pad(data.reshape(c // di, di, h, w), ((0, 0), (0, 0), (r, r), (r, r)))
    out = np.zeros((c // di, do, h, w))
    for b in range(c // di):
        for o in range(do):
            for y in range(h):
                for x in range(w):
                    out[b, o, y, x] = np.sum(grids[o] * padded[b, :, y : y + s, x : x + s])
    return out.reshape(-1, h, w)


def loop_pool(data, k, stride):
    """Per-pixel max over k x k windows at the given stride; windows that run
    past the bottom or right edge read zeros."""
    c, h, w = data.shape
    oh = 1 + max(0, -(-(h - k) // stride))
    ow = 1 + max(0, -(-(w - k) // stride))
    out = np.empty((c, oh, ow))
    for ch in range(c):
        for r in range(oh):
            for col in range(ow):
                window = [
                    data[ch, y, x] if y < h and x < w else 0.0
                    for y in range(r * stride, r * stride + k)
                    for x in range(col * stride, col * stride + k)
                ]
                out[ch, r, col] = max(window)
    return out


@pytest.mark.parametrize(
    "rep_in, rep_out, m, s, h, w",
    [
        ("trivial", "trivial", 1, 1, 4, 6),
        ("trivial", "regular", 2, 3, 7, 5),
        ("regular", "regular", 3, 5, 6, 9),
        ("irrep", "regular", 1, 9, 9, 11),
        ("regular", "irrep", 2, 3, 3, 8),
        ("irrep", "irrep", 3, 5, 5, 5),
        ("regular", "trivial", 1, 9, 12, 9),
        # one row of D4-regular S=9 columns is 648 * W doubles: bands of three
        # rows, so ten rows end in a short band of one
        ("regular", "trivial", 2, 9, 10, COLUMN_TILE // (3 * 648)),
        # one row of columns is larger than the buffer: every band is one row
        ("regular", "irrep", 1, 9, 9, COLUMN_TILE // 648 + 1),
    ],
)
def test_conv_matches_per_pixel_loop(rep_in, rep_out, m, s, h, w):
    d4 = dihedral_group(4)
    reps = {"trivial": trivial_rep(d4), "irrep": irrep(d4, 1, 1), "regular": regular_rep(d4)}
    rin, rout = reps[rep_in], reps[rep_out]
    rng = np.random.default_rng(s * 100 + m * 10 + h)
    grids = rng.uniform(-1, 1, (rout.dim, rin.dim, s, s))
    kernel = SteerableKernel(d4, rin, rout, grids, "bilinear")
    data = rng.uniform(-1, 1, (m * rin.dim, h, w))
    out = conv2d(kernel, feature_map(d4, rin, data))
    assert out.rep == rout
    assert out.data.shape == (m * rout.dim, h, w)
    assert_allclose(out.data, loop_conv2d(grids, data), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k, stride", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 1)])
@pytest.mark.parametrize("h, w", [(7, 8), (2, 1), (5, 4)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pool_spatial_matches_per_pixel_loop(k, stride, h, w, sign):
    c4 = cyclic_group(4)
    rng = np.random.default_rng(h * 10 + w)
    # sign -1 makes every input negative, so zero padding wins wherever it is read
    data = sign * rng.uniform(0.1, 1.0, (4, h, w))
    out = pool_spatial(feature_map(c4, regular_rep(c4), data), k, stride)
    assert out.rep == regular_rep(c4)
    assert_array_equal(out.data, loop_pool(data, k, stride))


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 12),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    k=st.integers(1, 4),
    stride=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pool_spatial_property_matches_loop(c, h, w, k, stride, seed):
    # all-negative inputs: zero padding wins wherever a window reads it, so a
    # missed or misplaced pad shows, and maps with and without padding occur
    data = -np.random.default_rng(seed).uniform(1e-3, 1.0, (c, h, w))
    c1 = cyclic_group(1)
    out = pool_spatial(feature_map(c1, trivial_rep(c1), data), k, stride)
    assert_array_equal(out.data, loop_pool(data, k, stride))


@settings(max_examples=40, deadline=None)
@given(
    reps=st.sampled_from([("trivial", "regular"), ("regular", "regular"), ("irrep", "trivial"), ("regular", "irrep")]),
    m=st.integers(1, 3),
    s=st.sampled_from([1, 3, 5]),
    dh=st.integers(0, 5),
    dw=st.integers(0, 5),
    tile=st.sampled_from([COLUMN_TILE, 1, 40, 300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv_property_matches_loop_and_is_linear(reps, m, s, dh, dw, tile, seed):
    if dh == dw:
        dw += 1  # H != W
    d2 = dihedral_group(2)
    by_name = {"trivial": trivial_rep(d2), "irrep": irrep(d2, 1, 0), "regular": regular_rep(d2)}
    rin, rout = by_name[reps[0]], by_name[reps[1]]
    rng = np.random.default_rng(seed)
    grids = rng.uniform(-1, 1, (rout.dim, rin.dim, s, s))
    kernel = SteerableKernel(d2, rin, rout, grids, "bilinear")
    x, y = rng.uniform(-1, 1, (2, m * rin.dim, s + dh, s + dw))
    a, b = rng.uniform(-2, 2, 2)
    # small tiles split even these maps into bands of a few rows
    with mock.patch.object(features, "COLUMN_TILE", tile):
        cx, cy, cxy = (conv2d(kernel, feature_map(d2, rin, v)).data for v in (x, y, a * x + b * y))
    assert_allclose(cx, loop_conv2d(grids, x), rtol=0, atol=1e-12)
    assert_allclose(cxy, a * cx + b * cy, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    reps=st.sampled_from([(a, b) for a in ("trivial", "irrep", "regular") for b in ("trivial", "irrep", "regular")]),
    m=st.integers(1, 3),
    s=st.sampled_from([1, 3, 5, 9]),
    dh=st.integers(0, 16),
    dw=st.integers(0, 16),
    tile=st.sampled_from([COLUMN_TILE, 1, 40, 300]),
    seed=st.integers(0, 2**32 - 1),
)
@example(reps=("regular", "regular"), m=2, s=9, dh=0, dw=0, tile=COLUMN_TILE, seed=0)  # one output pixel
@example(reps=("irrep", "regular"), m=1, s=1, dh=0, dw=16, tile=40, seed=1)  # a 1 x 17 map
def test_valid_correlation_is_the_interior_crop_of_conv(reps, m, s, dh, dw, tile, seed):
    d4 = dihedral_group(4)
    by_name = {"trivial": trivial_rep(d4), "irrep": irrep(d4, 1, 1), "regular": regular_rep(d4)}
    rin, rout = by_name[reps[0]], by_name[reps[1]]
    h, w = s + min(dh, 17 - s), s + min(dw, 17 - s)
    rng = np.random.default_rng(seed)
    kernel = SteerableKernel(d4, rin, rout, rng.uniform(-1, 1, (rout.dim, rin.dim, s, s)), "bilinear")
    f = feature_map(d4, rin, rng.uniform(-1, 1, (m * rin.dim, h, w)))
    r = s // 2
    with mock.patch.object(features, "COLUMN_TILE", tile):
        valid = _correlate(kernel, f)
        crop = conv2d(kernel, f).data[:, r : h - r, r : w - r]
        # each block alone: its bits do not depend on the blocks beside it
        blocks = f.data.reshape(m, -1, h, w)
        alone = [_correlate(kernel, feature_map(d4, rin, block)).data for block in blocks]
    assert valid.rep == rout
    assert valid.data.shape == (m * rout.dim, h - s + 1, w - s + 1)
    # not bit for bit: the band widths, and so BLAS's rounding, differ
    assert_allclose(valid.data, crop, rtol=0, atol=1e-12)
    assert np.concatenate(alone).tobytes() == valid.data.tobytes()

