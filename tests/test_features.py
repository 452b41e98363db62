from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from filtra import features
from filtra.features import (
    COLUMN_TILE,
    _channel_first,
    _correlate,
    _correlate_columns,
    act_on_feature,
    act_on_feature_stack,
    conv2d,
    feature_map,
    group_pool,
    pool_spatial,
    relu_channelwise,
)
from filtra.filters import coordinate_table, exact_indices, sample_plane
from filtra.groups import cyclic_group, dihedral_group, parse_group
from filtra.harness import FEATURE_TOL
from filtra.kernels import SteerableKernel, input_blocks, steerable_kernel
from filtra.representations import irrep, regular_rep, trivial_rep


def identity_kernel(spec):
    return SteerableKernel(trivial_rep(spec), trivial_rep(spec), np.ones((1, 1, 1, 1)), "bilinear")


def averaging_kernel(spec):
    return SteerableKernel(trivial_rep(spec), trivial_rep(spec), np.full((1, 1, 3, 3), 1.0 / 9.0), "bilinear")


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
    # a cast to float would keep the real part, 1.0, and only warn
    c1 = cyclic_group(1)
    with pytest.raises(ValueError, match="^feature map must be real, got complex values$"):
        feature_map(c1, trivial_rep(c1), np.full((1, 3, 3), 1 + 2j))


def test_intermediate_maps_are_not_scanned():
    # finiteness is checked where data enters (feature_map);
    # a conv that overflows returns inf instead of raising
    c4 = cyclic_group(4)
    kernel = SteerableKernel(trivial_rep(c4), trivial_rep(c4), np.full((1, 1, 3, 3), 2.0), "bilinear")
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
    kernel = SteerableKernel(trivial_rep(c4), regular_rep(c4), grids, "bilinear")
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
    with pytest.raises(ValueError, match="^feature rep regular != kernel input rep trivial$"):
        conv2d(identity_kernel(c4), f)
    small = feature_map(c4, trivial_rep(c4), np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="^spatial size 2x2 smaller than the kernel size 3$"):
        conv2d(averaging_kernel(c4), small)
    d4 = dihedral_group(4)
    with pytest.raises(ValueError, match="^feature group c4 != kernel group d4$"):
        conv2d(identity_kernel(d4), feature_map(c4, trivial_rep(c4), np.zeros((1, 5, 5))))
    with pytest.raises(ValueError, match="^feature group d4 != kernel group c4$"):
        conv2d(identity_kernel(c4), feature_map(d4, trivial_rep(d4), np.zeros((1, 5, 5))))


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
    # the representation rejects another group's element before any table is indexed:
    # (1, 3) is index 7 of d4, past the end of c4's tables
    for stranger in (d4.identity(), d4.element(1, 3)):
        with pytest.raises(ValueError, match="^element of d4 fed to a c4 representation$"):
            act_on_feature_stack([c4.identity(), stranger], f)
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

    reg = feature_map(c4, regular_rep(c4), rng.uniform(-1, 1, (4, 7, 7)))
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


def test_channelwise_layers_reject_irrep_features():
    # max pooling and relu each act channel by channel, which commutes with
    # the action only where it permutes channels
    for spec in (cyclic_group(4), dihedral_group(4)):
        for rep in (irrep(spec, j, k) for j in range(spec.reflection_order) for k in (1, 2)):
            f = feature_map(spec, rep, np.ones((2 * rep.dim, 9, 9)))
            with pytest.raises(ValueError, match="^channel-wise max pooling breaks steerability of irrep features$"):
                pool_spatial(f, 3, 3)
            with pytest.raises(ValueError, match="^channel-wise relu breaks steerability of irrep features$"):
                relu_channelwise(f)


def test_pool_spatial_commutes_with_the_action_where_it_pads_nothing():
    # (h - k) a multiple of the stride: the windows tile the map, and their
    # lattice is symmetric under every element of D4; elsewhere the pool raises
    rng = np.random.default_rng(10)
    cases = refused = 0
    for spec in (cyclic_group(4), dihedral_group(4)):
        rep = regular_rep(spec)
        for h in range(3, 40):
            f = feature_map(spec, rep, rng.uniform(-1, 1, (spec.order, h, h)))
            acted = act_on_feature_stack(spec.elements(), f)
            for k, stride in ((2, 2), (3, 2), (3, 1), (2, 1), (3, 3)):
                if (h - k) % stride:
                    with pytest.raises(ValueError, match=f"^window {k} and stride {stride} do not tile a {h}x{h} map$"):
                        pool_spatial(f, k, stride)
                    refused += 1
                    continue
                moved = act_on_feature_stack(spec.elements(), pool_spatial(f, k, stride))
                for copy, expected in zip(acted, moved):
                    assert_array_equal(pool_spatial(feature_map(spec, rep, copy), k, stride).data, expected)
                    cases += 1
    assert (cases, refused) == (12 * 124, 2 * 61)  # 124 tiling (h, k, stride), 4 + 8 elements


def test_pool_spatial_commutes_with_channel_permutation():
    c4 = cyclic_group(4)
    rng = np.random.default_rng(9)
    data = rng.uniform(-1, 1, (4, 7, 7))
    f = feature_map(c4, regular_rep(c4), data)
    perm = [1, 2, 3, 0]
    a = pool_spatial(feature_map(c4, regular_rep(c4), data[perm]), 3, 1)
    b = pool_spatial(f, 3, 1)
    assert_array_equal(a.data, b.data[perm])


@pytest.mark.parametrize("name, exact_count", [("c4", 4), ("d4", 8), ("d8", 8)])
def test_strided_stack_commutes_with_every_exact_element(name, exact_count):
    # the benchmark's forward-stack layout with S = 3 kernels, 31 -> 15 -> 7:
    # every pool's windows tile its map, so the stack commutes with each
    # element exact on all three grids; at side 30 the first pool refuses its
    # map rather than pool it off-centre
    spec = parse_group(name)
    rng = np.random.default_rng(12)
    reg = regular_rep(spec)
    first = steerable_kernel(trivial_rep(spec), [rng.uniform(-1, 1, (3, 3))])
    second, third = (
        steerable_kernel(reg, [rng.uniform(-1, 1, (3, 3)) for _ in input_blocks(reg)]) for _ in range(2)
    )

    def forward(f):
        y = pool_spatial(relu_channelwise(conv2d(first, f)), 3, 2)
        y = pool_spatial(relu_channelwise(conv2d(second, y)), 3, 2)
        return group_pool(conv2d(third, y))

    f = feature_map(spec, trivial_rep(spec), rng.uniform(-1, 1, (2, 31, 31)))
    out = forward(f)
    assert out.data.shape == (2, 7, 7)
    exact = set.intersection(*(set(exact_indices(spec, side, "bilinear")) for side in (31, 15, 7)))
    assert len(exact) == exact_count
    for g in (g for g in spec.elements() if g.index in exact):
        residual = np.abs(forward(act_on_feature(g, f)).data - act_on_feature(g, out).data).max()
        assert residual <= FEATURE_TOL, (g, residual)
    with pytest.raises(ValueError, match="^window 3 and stride 2 do not tile a 30x30 map$"):
        forward(feature_map(spec, trivial_rep(spec), rng.uniform(-1, 1, (2, 30, 30))))


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
    """Per-pixel max over k x k windows at the given stride, on a map that
    they tile."""
    c, h, w = data.shape
    oh, ow = 1 + (h - k) // stride, 1 + (w - k) // stride
    out = np.empty((c, oh, ow))
    for ch in range(c):
        for r in range(oh):
            for col in range(ow):
                window = [
                    data[ch, y, x]
                    for y in range(r * stride, r * stride + k)
                    for x in range(col * stride, col * stride + k)
                ]
                out[ch, r, col] = max(window)
    return out


def pool_or_refusal(f, k, stride):
    """The pooled map where the windows tile the map; else None, once the
    pool has raised with the message that names k, stride and the sides."""
    h, w = f.height, f.width
    if min(h, w) >= k and (h - k) % stride == 0 and (w - k) % stride == 0:
        return pool_spatial(f, k, stride)
    message = f"^window {k} and stride {stride} do not tile a {h}x{w} map$"
    with pytest.raises(ValueError, match=message):
        pool_spatial(f, k, stride)
    return None


@pytest.mark.parametrize(
    "rep_in, rep_out, m, s, h, w",
    [
        ("trivial", "trivial", 1, 1, 4, 6),
        ("trivial", "regular", 2, 3, 7, 5),
        ("regular", "regular", 3, 5, 6, 9),
        ("irrep", "regular", 1, 9, 9, 11),
        ("regular", "irrep", 2, 3, 3, 8),  # channel-first
        ("irrep", "irrep", 3, 5, 5, 5),
        ("regular", "trivial", 1, 9, 12, 9),  # channel-first
        # one row of D4-regular S=9 columns is 648 * W doubles: im2col bands
        # of three rows, so ten rows end in a short band of one
        ("regular", "regular", 1, 9, 10, COLUMN_TILE // (3 * 648)),
        # the same map channel-first, one whole block per product
        ("regular", "trivial", 2, 9, 10, COLUMN_TILE // (3 * 648)),
        # one row of columns is larger than the buffer: every band is one row;
        # the block's channel-first product would be smaller, but exceeds it too
        ("regular", "irrep", 1, 9, 9, COLUMN_TILE // 648 + 1),
        # channel-first: three whole blocks in one product, and the smallest
        # margin, 56 < 60 doubles a plane
        ("regular", "trivial", 3, 5, 9, 7),
        ("irrep", "trivial", 2, 3, 6, 5),
    ],
)
def test_conv_matches_per_pixel_loop(rep_in, rep_out, m, s, h, w):
    d4 = dihedral_group(4)
    reps = {"trivial": trivial_rep(d4), "irrep": irrep(d4, 1, 1), "regular": regular_rep(d4)}
    rin, rout = reps[rep_in], reps[rep_out]
    rng = np.random.default_rng(s * 100 + m * 10 + h)
    grids = rng.uniform(-1, 1, (rout.dim, rin.dim, s, s))
    kernel = SteerableKernel(rin, rout, grids, "bilinear")
    data = rng.uniform(-1, 1, (m * rin.dim, h, w))
    out = conv2d(kernel, feature_map(d4, rin, data))
    assert out.rep == rout
    assert out.data.shape == (m * rout.dim, h, w)
    assert_allclose(out.data, loop_conv2d(grids, data), rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "do, di, s, h, w, taken",
    [
        # the conv2d cases above, on their padded maps
        (1, 8, 5, 13, 11, True),
        (1, 2, 3, 8, 7, True),
        (8, 8, 9, 18, 41, False),
        (2, 8, 9, 17, 110, False),
        # 2 * 4 * 4 == 8 * 2 * 2: a tie keeps im2col, and one output
        # channel takes channel-first
        (2, 8, 3, 4, 4, False),
        (1, 8, 3, 4, 4, True),
        # 9 planes of 81 x 89 doubles are the widest block that fits the
        # tile; at 90 columns im2col is kept, though its columns are larger
        (1, 8, 3, 81, COLUMN_TILE // (9 * 81), True),
        (1, 8, 3, 81, COLUMN_TILE // (9 * 81) + 1, False),
    ],
)
def test_channel_first_is_taken_where_its_product_is_smaller(do, di, s, h, w, taken):
    assert _channel_first(do, di, s, h, w) == taken
    if taken:
        assert do * s * s * h * w <= COLUMN_TILE


def _blocks_as_im2col(kernel, f):
    """`_correlate` forced to im2col."""
    s, blocks = kernel.size, f.blocks()
    out = np.empty((f.multiplicity, kernel.rep_out.dim, f.height - s + 1, f.width - s + 1))
    _correlate_columns(kernel.grids, blocks, out)
    return out.reshape(-1, *out.shape[2:])


@pytest.mark.parametrize(
    "group, rep_in, s, m, side",
    # into the regular representation: forward-stack's three layers on their
    # padded maps, then each verify family shape with do >= 8
    [("d8", "trivial", 5, 3, 131), ("d8", "regular", 5, 1, 67), ("d8", "regular", 5, 1, 35)]
    + [(g, rep_in, s, 4, 15) for g in ("c8", "d8") for rep_in in ("trivial", "irrep", "regular") for s in (3, 5, 9)],
)
def test_many_output_channels_keep_the_im2col_bits(group, rep_in, s, m, side):
    spec = parse_group(group)
    rin = {"trivial": trivial_rep(spec), "irrep": irrep(spec, 0, 1), "regular": regular_rep(spec)}[rep_in]
    rout = regular_rep(spec)
    rng = np.random.default_rng(s)
    kernel = SteerableKernel(rin, rout, rng.uniform(-1, 1, (rout.dim, rin.dim, s, s)), "bilinear")
    f = feature_map(spec, rin, rng.uniform(-1, 1, (m * rin.dim, side, side)))
    assert not _channel_first(rout.dim, rin.dim, s, side, side)
    assert _correlate(kernel, f).data.tobytes() == _blocks_as_im2col(kernel, f).tobytes()


@pytest.mark.parametrize("k, stride", [(1, 1), (2, 2), (3, 2), (2, 3), (3, 1)])
@pytest.mark.parametrize("h, w", [(7, 8), (2, 1), (5, 4)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_pool_spatial_matches_per_pixel_loop(k, stride, h, w, sign):
    c4 = cyclic_group(4)
    rng = np.random.default_rng(h * 10 + w)
    # sign -1 makes every input negative, so a zero read past the edge would win
    data = sign * rng.uniform(0.1, 1.0, (4, h, w))
    f = feature_map(c4, regular_rep(c4), data)
    out = pool_or_refusal(f, k, stride)
    if out is not None:
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
# windows that tile at strides 2 and 3, in non-square maps
@example(c=3, h=8, w=6, k=2, stride=2, seed=0)
@example(c=2, h=9, w=7, k=3, stride=2, seed=1)
@example(c=1, h=8, w=5, k=2, stride=3, seed=2)
@example(c=4, h=12, w=9, k=3, stride=3, seed=3)
def test_pool_spatial_property_matches_loop(c, h, w, k, stride, seed):
    # all-negative inputs: a zero read past the edge would win wherever a
    # window read it, and maps that the windows tile and do not tile occur
    data = -np.random.default_rng(seed).uniform(1e-3, 1.0, (c, h, w))
    c1 = cyclic_group(1)
    out = pool_or_refusal(feature_map(c1, trivial_rep(c1), data), k, stride)
    if out is not None:
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
    kernel = SteerableKernel(rin, rout, grids, "bilinear")
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
# each side of the shape rule: 99 doubles a plane against 280 channel-first,
# 8 * 99 against 8 * 35 im2col
@example(reps=("regular", "trivial"), m=3, s=5, dh=6, dw=4, tile=COLUMN_TILE, seed=2)
@example(reps=("regular", "regular"), m=2, s=5, dh=6, dw=4, tile=COLUMN_TILE, seed=3)
def test_valid_correlation_is_the_interior_crop_of_conv(reps, m, s, dh, dw, tile, seed):
    d4 = dihedral_group(4)
    by_name = {"trivial": trivial_rep(d4), "irrep": irrep(d4, 1, 1), "regular": regular_rep(d4)}
    rin, rout = by_name[reps[0]], by_name[reps[1]]
    h, w = s + min(dh, 17 - s), s + min(dw, 17 - s)
    rng = np.random.default_rng(seed)
    kernel = SteerableKernel(rin, rout, rng.uniform(-1, 1, (rout.dim, rin.dim, s, s)), "bilinear")
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

