import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from filtra import filters
from filtra.fileio import write_filter_csv, write_pgm
from filtra.filters import (
    TAP_CACHE_PIXELS,
    _build_taps,
    _round_centred,
    check_filter_grid,
    coordinate_table,
    exact_indices,
    filter_transform,
    rotation_cos_sin,
    sample_plane,
)
from filtra.groups import cyclic_group, dihedral_group, product_indices
from filtra.kernels import circulant_kernel, steerable_kernel
from filtra.representations import trivial_rep

GRID3 = np.arange(1.0, 10.0).reshape(3, 3)


def _rotation_map(c, s):
    """The coordinate map that rotates content counter-clockwise by the angle
    with cosine c and sine s: out(x) = f(R(-theta) x)."""
    return np.array([[c, s], [-s, c]])


def _rotate(values, turn, n, mode):
    """values rotated counter-clockwise by turn/n of a full turn."""
    return sample_plane(values, _rotation_map(*rotation_cos_sin(turn, n)), mode)


def test_grid_validation():
    with pytest.raises(ValueError):
        check_filter_grid(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        check_filter_grid(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        check_filter_grid(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        filter_transform(GRID3, cyclic_group(4), "bicubic")
    with pytest.raises(ValueError):
        filter_transform(np.zeros((3, 5)), dihedral_group(4), "bilinear")


@pytest.mark.parametrize(
    "entry, noun",
    [
        (lambda grid, tmp: filter_transform(grid, cyclic_group(4), "bilinear"), "filter"),
        (lambda grid, tmp: steerable_kernel(trivial_rep(cyclic_group(4)), [grid]), "filter"),
        (lambda grid, tmp: circulant_kernel(grid, 4), "filter"),
        (lambda grid, tmp: write_filter_csv(tmp / "grid.csv", grid), "filter"),
        (lambda grid, tmp: write_pgm(tmp / "grid.pgm", grid), "filter"),
        (lambda grid, tmp: sample_plane(grid, np.eye(2), "nearest"), "resampled"),
    ],
    ids=["filter_transform", "steerable_kernel", "circulant_kernel", "write_filter_csv", "write_pgm", "sample_plane"],
)
def test_complex_filter_grids_are_rejected(entry, noun, tmp_path):
    # a cast to float would keep the real part and only warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{noun} grid must be real, got complex values$"):
            entry(GRID3 + 2j, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_rotation_cos_sin_snaps_quarter_turns():
    assert rotation_cos_sin(0, 4) == (1.0, 0.0)
    assert rotation_cos_sin(1, 4) == (0.0, 1.0)
    assert rotation_cos_sin(2, 4) == (-1.0, 0.0)
    assert rotation_cos_sin(3, 4) == (0.0, -1.0)
    assert rotation_cos_sin(-1, 4) == (0.0, -1.0)


@pytest.mark.parametrize("n", (720, 1440, 1441))
def test_congruent_turns_are_bit_identical(n):
    rng = np.random.default_rng(4)
    f = rng.uniform(-1.0, 1.0, (5, 5))
    for i in (1, 7, n // 4, n - 1):
        want = rotation_cos_sin(i, n)
        for turn, den in ((i + n, n), (i - n, n), (i - 3 * n, n), (2 * i, 2 * n), (3 * i + 3 * n, 3 * n)):
            assert rotation_cos_sin(turn, den) == want, (turn, den)
        # the same angle as an element of C_N and of D_3N
        g, h = cyclic_group(n).element(0, i), dihedral_group(3 * n).element(0, 3 * i)
        assert coordinate_table(g.spec)[g.index].tobytes() == coordinate_table(h.spec)[h.index].tobytes()
        for mode in ("bilinear", "nearest"):
            moved_g = sample_plane(f, coordinate_table(g.spec)[g.index], mode)
            assert moved_g.tobytes() == sample_plane(f, coordinate_table(h.spec)[h.index], mode).tobytes()
    if n % 4 == 0:
        assert rotation_cos_sin(n // 4, n) == (0.0, 1.0)


def test_rotate_zero_is_identity():
    c4 = cyclic_group(4)
    for mode in ("bilinear", "nearest"):
        assert_array_equal(sample_plane(GRID3, np.eye(2), mode), GRID3)
        assert_array_equal(sample_plane(GRID3, coordinate_table(c4)[c4.identity().index], mode), GRID3)
        assert_array_equal(filter_transform(GRID3, c4, mode)[0], GRID3)


def test_rotate_quarter_turn_both_modes():
    expected = np.array([[3, 6, 9], [2, 5, 8], [1, 4, 7]], dtype=float)
    c4 = cyclic_group(4)
    for mode in ("bilinear", "nearest"):
        assert_array_equal(sample_plane(GRID3, _rotation_map(0.0, 1.0), mode), expected)
        # content turned counter-clockwise: evaluated at the inverse element
        assert_array_equal(sample_plane(GRID3, coordinate_table(c4)[c4.element(0, 3).index], mode), expected)
        assert_array_equal(filter_transform(GRID3, c4, mode)[1], expected)


def test_rotate_eighth_turn_nearest_is_ring_shift():
    got = _rotate(GRID3, 1, 8, "nearest")
    expected = np.array([[2, 3, 6], [1, 5, 9], [4, 7, 8]], dtype=float)
    assert_array_equal(got, expected)
    assert_array_equal(filter_transform(GRID3, cyclic_group(8), "nearest")[1], expected)
    # the eight rotations form a cyclic permutation group
    g = GRID3.copy()
    for _ in range(8):
        g = _rotate(g, 1, 8, "nearest")
    assert_array_equal(g, GRID3)


@pytest.mark.parametrize("n", (4, 8, 12))
def test_periodicity_bit_exact(n):
    rng = np.random.default_rng(5)
    f = rng.uniform(-1.0, 1.0, (5, 5))
    for mode in ("bilinear", "nearest"):
        stack = filter_transform(f, cyclic_group(n), mode)
        for i in range(n):
            a = _rotate(f, i, n, mode)
            assert a.tobytes() == _rotate(f, i - n, n, mode).tobytes()
            assert a.tobytes() == _rotate(f, 2 * i + 4 * n, 2 * n, mode).tobytes()
            if i:
                assert a.tobytes() == stack[i].tobytes()


def test_quarter_turns_are_permutations():
    rng = np.random.default_rng(6)
    f = rng.uniform(-1.0, 1.0, (9, 9))
    for g in filter_transform(f, cyclic_group(4), "bilinear"):
        # fsum is exactly rounded, so it is blind to the summation order
        assert math.fsum(g.ravel()) == math.fsum(f.ravel())
        assert g.min() == f.min()
        assert g.max() == f.max()
        assert sorted(g.ravel()) == sorted(f.ravel())


def test_bilinear_linearity():
    rng = np.random.default_rng(7)
    f = rng.uniform(-1.0, 1.0, (7, 7))
    h = rng.uniform(-1.0, 1.0, (7, 7))
    a, b = 1.7, -0.3
    rotation = _rotation_map(math.cos(0.37), math.sin(0.37))
    combined = sample_plane(a * f + b * h, rotation, "bilinear")
    separate = a * sample_plane(f, rotation, "bilinear") + b * sample_plane(h, rotation, "bilinear")
    assert_allclose(combined, separate, atol=1e-12)


def test_out_of_grid_reads_zero():
    # rotating an all-ones patch by 45 deg attenuates the corner to 2 - sqrt(2)
    ones = np.ones((3, 3))
    got = _rotate(ones, 1, 8, "bilinear")
    assert got[1, 1] == 1.0
    assert_allclose(got[0, 0], 2.0 - math.sqrt(2.0), atol=1e-12)


def test_nearest_rounding_commutes_with_negation_at_ties():
    for side in range(1, 12):
        # ties sit half-way between pixel positions: at half-integers on an
        # odd side, at integers (the centre among them) on an even one
        centre = (side - 1) / 2.0
        offset = 0.5 if side % 2 else 0.0
        ties = np.array([k + offset for k in range(-side, side + 1)] + [-0.0] * (side % 2 == 0))
        got = _round_centred(ties, centre) - centre
        assert_array_equal(_round_centred(-ties, centre) - centre, -got, err_msg=str(side))
        # half away from zero: |t| + 1/2, the pixel farther from the centre
        assert_array_equal(np.abs(got), np.abs(ties) + 0.5, err_msg=str(side))
        assert_array_equal(np.signbit(got), np.signbit(ties), err_msg=str(side))
        # off the ties: the nearest pixel position
        t = np.linspace(-side, side, 8 * side + 3)
        pixel = 0.5 - offset
        t = t[np.abs(t - pixel - np.round(t - pixel)) != 0.5]
        assert_array_equal(_round_centred(t, centre) - centre, np.round(t - pixel) + pixel, err_msg=str(side))
    # so nearest resampling commutes with the half turn of any grid, even
    # where scaling maps put every other pixel on a tie
    rng = np.random.default_rng(16)
    for h in range(1, 12):
        for w in range(1, 12):
            f = rng.uniform(-1.0, 1.0, (h, w))
            for scale in (0.5, 1.5, 2.0, 3.0):
                turned = sample_plane(f[::-1, ::-1], scale * np.eye(2), "nearest")
                assert turned.tobytes() == sample_plane(f, scale * np.eye(2), "nearest")[::-1, ::-1].tobytes()


def test_nearest_ties_on_even_sides_go_to_the_farther_pixel():
    # a 1 x 4 row scaled by 2: x = -1.5, -0.5, 0.5, 1.5 reads -3, -1, 1, 3,
    # ties between pixel positions; -1 and 1 round outward to pixels 0 and 3
    row = np.array([[1.0, 2.0, 3.0, 4.0]])
    assert_array_equal(sample_plane(row, 2.0 * np.eye(2), "nearest"), [[0.0, 1.0, 4.0, 0.0]])
    # the centre of an even side is a tie too: +0.0 reads the larger index,
    # -0.0 the smaller
    assert _round_centred(np.array([0.0, -0.0]), 1.5).tolist() == [2, 1]
    # an odd side rounds ties at half-integers outward: 1.5 x reads -1.5 and 1.5
    assert_array_equal(sample_plane(GRID3, 1.5 * np.eye(2), "nearest"), [[0, 0, 0], [0, 5, 0], [0, 0, 0]])


def test_mirror_and_quarter_turns_are_exact_swaps_and_signs():
    for n in range(1, 129):
        for m in range(n):
            c, s = rotation_cos_sin(m, n)
            assert rotation_cos_sin(n - m, n) == (c, -s), (m, n)
            if n % 4 == 0:
                assert rotation_cos_sin(m + n // 4, n) == (-s, c), (m, n)
        if n % 8 == 0:
            c, s = rotation_cos_sin(n // 8, n)
            assert c == s == math.cos(math.tau / 8), n


def _reflect(values, n=4, mode="bilinear"):
    """The reflection about the x-axis: entry N of the D_N filter transform."""
    return filter_transform(values, dihedral_group(n), mode)[n]


def test_reflect_examples():
    for n in (1, 3, 4):
        for mode in ("bilinear", "nearest"):
            assert_array_equal(_reflect(GRID3, n, mode), [[7, 8, 9], [4, 5, 6], [1, 2, 3]])
    sym = np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=float)
    assert_array_equal(_reflect(sym), sym)
    rng = np.random.default_rng(8)
    f = rng.uniform(-1.0, 1.0, (9, 9))
    assert_array_equal(_reflect(_reflect(f, 5), 7), f)


def test_rotation_stack():
    # the rotated copies: the cyclic filter transform
    base = GRID3
    stack = filter_transform(base, cyclic_group(1), "bilinear")
    assert stack.shape == (1, 3, 3)
    assert_array_equal(stack[0], base)

    stack4 = filter_transform(base, cyclic_group(4), "bilinear")
    for n in range(4):
        assert_array_equal(stack4[n], np.rot90(base, n))

    stack8 = filter_transform(base, cyclic_group(8), "nearest")
    g = base.copy()
    for n in range(8):
        assert_array_equal(stack8[n], g)
        g = _rotate(g, 1, 8, "nearest")


def test_reflected_rotation_stack():
    # the lower half of the dihedral filter transform
    sym = np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=float)
    assert_array_equal(filter_transform(sym, dihedral_group(1), "bilinear")[1], sym)

    base = GRID3
    d4 = filter_transform(base, dihedral_group(4), "bilinear")
    assert d4.shape == (8, 3, 3)
    assert_array_equal(d4[:4], filter_transform(base, cyclic_group(4), "bilinear"))
    assert_array_equal(d4[4], base[::-1])
    # D_2 entry 3: reflect then rotate half a turn = column reversal
    assert_array_equal(filter_transform(base, dihedral_group(2), "bilinear")[3], base[:, ::-1])


def test_transform_filter_examples():
    c4 = cyclic_group(4)
    assert_array_equal(sample_plane(GRID3, coordinate_table(c4)[c4.identity().index], "bilinear"), GRID3)
    d4 = dihedral_group(4)
    assert_array_equal(sample_plane(GRID3, coordinate_table(d4)[d4.element(1, 0).index], "bilinear"), GRID3[::-1])
    stack = filter_transform(GRID3, c4, "bilinear")
    assert_array_equal(sample_plane(stack[0], coordinate_table(c4)[c4.element(0, 1).index], "bilinear"), stack[3])
    # the filter transform's copy for element g is f(g^-1 x)
    rng = np.random.default_rng(10)
    f = rng.uniform(-1.0, 1.0, (5, 5))
    for g, entry in zip(d4.elements(), filter_transform(f, d4, "bilinear"), strict=True):
        assert_array_equal(entry, sample_plane(f, coordinate_table(g.spec)[g.inverse().index], "bilinear"))


def test_filter_transform_entry_equals_the_inverse_elements_resampling():
    # every element, reflections and both modes alike, gives the same bits
    rng = np.random.default_rng(15)
    for n in range(1, 17):
        for spec in (cyclic_group(n), dihedral_group(n)):
            for size in (1, 3, 5, 9):
                f = rng.uniform(-1.0, 1.0, (size, size))
                for mode in ("bilinear", "nearest"):
                    stack = filter_transform(f, spec, mode)
                    for g in spec.elements():
                        want = sample_plane(f, coordinate_table(g.spec)[g.index], mode)
                        assert stack[g.inverse().index].tobytes() == want.tobytes(), (spec.name, size, mode, g)


def test_filter_transform_steers_bit_for_bit_at_every_exact_element():
    # copy h moved by an exact g is copy g^-1 * h: the copies are the table's
    # own action, so they compose wherever the table permutes the grid
    rng = np.random.default_rng(17)
    cases = 0
    for n in range(1, 25):
        for spec in (cyclic_group(n), dihedral_group(n)):
            elements = spec.elements()
            for size, mode in itertools.product((1, 3, 5, 9, 15), ("bilinear", "nearest")):
                stack = filter_transform(rng.uniform(-1.0, 1.0, (size, size)), spec, mode)
                for g in sorted(exact_indices(spec, size, mode)):
                    moved = sample_plane(stack, coordinate_table(spec)[g], mode)
                    want = stack[product_indices(spec, elements[g].inverse().index, np.arange(spec.order))]
                    assert moved.tobytes() == want.tobytes(), (spec.name, size, mode, elements[g])
                    cases += 1
    assert cases == 2976


def test_transform_filter_action_property():
    # evaluating at transformed coordinates composes contravariantly:
    # transform(transform(f, h), g) equals transform(f, h * g)
    rng = np.random.default_rng(9)
    f = rng.uniform(-1.0, 1.0, (5, 5))
    d4 = dihedral_group(4)
    for g in d4.elements():
        for h in d4.elements():
            moved_h = sample_plane(f, coordinate_table(h.spec)[h.index], "bilinear")
            lhs = sample_plane(moved_h, coordinate_table(g.spec)[g.index], "bilinear")
            rhs = sample_plane(f, coordinate_table(h.spec)[h.compose(g).index], "bilinear")
            assert_array_equal(lhs, rhs)


def _reference_round(t, centre):
    """The nearest pixel index: |t| rounded half away from zero onto the
    side's pixel positions (integers, or half-integers on an even side)."""
    half = centre % 1.0
    return int(centre + math.copysign(math.floor(abs(t) + (0.5 - half)) + half, t))


def _reference_sample_plane(values, matrix, mode):
    """Pixel-by-pixel resampling with the same float operations, in the same
    order, as the documented map: centred coordinates, the linear map, then
    rounding half away from zero about the centre (nearest) or four bilinear
    taps accumulated from zero."""
    values = np.asarray(values, dtype=float)
    h, w = values.shape[-2:]
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    out = np.zeros_like(values)
    for r in range(h):
        for c in range(w):
            x, y = c - cc, cr - r
            sx = float(matrix[0, 0]) * x + float(matrix[0, 1]) * y
            sy = float(matrix[1, 0]) * x + float(matrix[1, 1]) * y
            fr, fc = cr - sy, sx + cc
            if mode == "nearest":
                ri, ci = _reference_round(-sy, cr), _reference_round(sx, cc)
                if 0 <= ri < h and 0 <= ci < w:
                    out[..., r, c] = values[..., ri, ci]
                continue
            r0, c0 = math.floor(fr), math.floor(fc)
            dr, dc = fr - r0, fc - c0
            acc = np.zeros(values.shape[:-2])
            for rr, wr in ((r0, 1.0 - dr), (r0 + 1, dr)):
                for ci, wc in ((c0, 1.0 - dc), (c0 + 1, dc)):
                    tap = values[..., rr, ci] if 0 <= rr < h and 0 <= ci < w else np.zeros(values.shape[:-2])
                    acc = acc + wr * wc * tap
            out[..., r, c] = acc
    return out


def _sample_cases():
    d6 = dihedral_group(6)
    matrices = [coordinate_table(g.spec)[g.index] for g in d6.elements()]
    matrices += [coordinate_table(g.spec)[g.index] for g in dihedral_group(8).elements() if g.i1 % 2]
    c, s = math.cos(0.37), math.sin(0.37)
    matrices += [np.array([[c, s], [-s, c]]), np.array([[0.9, 0.3], [-0.2, 1.1]])]
    shapes = [(1, 1), (3, 3), (5, 5), (9, 9), (5, 7), (7, 3), (2, 3, 5, 5), (4, 1, 3, 7)]
    return [(shape, m) for shape in shapes for m in matrices]


@pytest.mark.parametrize("mode", ("bilinear", "nearest"))
def test_sample_plane_matches_per_pixel_reference(mode):
    rng = np.random.default_rng(12)
    for shape, matrix in _sample_cases():
        values = rng.uniform(-1.0, 1.0, shape)
        values.flat[0] = -0.0
        got = sample_plane(values, matrix, mode)
        want = _reference_sample_plane(values, matrix, mode)
        assert got.shape == values.shape
        assert got.tobytes() == want.tobytes(), (shape, matrix, mode)


def _key(matrix):
    return tuple(np.asarray(matrix, dtype=float).ravel().tolist())


def test_sample_plane_taps_are_cached_read_only_and_bounded():
    rng = np.random.default_rng(14)
    values = rng.uniform(-1.0, 1.0, (3, 7, 7))
    d8 = dihedral_group(8)
    matrix = coordinate_table(d8)[d8.element(1, 3).index]
    stack = np.array([coordinate_table(g.spec)[g.index] for g in d8.elements()]).reshape(4, 4, 2, 2)
    for mode in ("bilinear", "nearest"):
        for maps in (matrix, stack):
            _build_taps.cache_clear()
            first = sample_plane(values, maps, mode)
            assert _build_taps.cache_info().currsize == 1
            again = sample_plane(values, maps, mode)
            assert _build_taps.cache_info().hits == 1 and _build_taps.cache_info().misses == 1
            assert again.tobytes() == first.tobytes()
            for t in _build_taps(7, 7, _key(maps), mode):
                assert not t.flags.writeable
                with pytest.raises(ValueError):
                    t[..., 0] = 0
    info = _build_taps.cache_info()
    assert info.maxsize is not None
    for side in range(1, 41):
        for width in range(1, 41):
            sample_plane(np.ones((side, width)), stack[:, :1], "nearest")
    assert side * width > info.maxsize
    assert _build_taps.cache_info().currsize == info.maxsize


def test_tap_cache_bounds_bytes_and_keeps_no_oversized_stack():
    quarter = coordinate_table(cyclic_group(4))[1]
    eighth = coordinate_table(cyclic_group(8))[1]
    side = math.isqrt(TAP_CACHE_PIXELS // 8)
    assert 8 * side * side <= TAP_CACHE_PIXELS < 9 * side * side
    values = np.ones((side, side))
    _build_taps.cache_clear()
    # the largest stack kept: four bilinear planes of index and weight, 64 B
    # a pixel, so the full cache holds at most 32 MiB
    sample_plane(values, [eighth] * 8, "bilinear")
    taps = _build_taps(side, side, _key([eighth] * 8), "bilinear")
    assert _build_taps.cache_info().currsize == 1
    assert sum(t.nbytes for t in taps) == 64 * 8 * side * side
    assert _build_taps.cache_info().maxsize * TAP_CACHE_PIXELS * 64 <= 32 << 20
    # one more map and the stack is built on every call, never kept
    for _ in range(2):
        out = sample_plane(values, [quarter] * 9, "bilinear")
        assert _build_taps.cache_info().currsize == 1 and _build_taps.cache_info().misses == 1
    assert out.tobytes() == np.ones((9, side, side)).tobytes()


def test_exact_indices_keeps_no_taps():
    # the derived set is cached on its own; the whole table's taps are not read again
    for spec, size, mode in ((cyclic_group(8), 15, "bilinear"), (dihedral_group(8), 3, "nearest")):
        exact_indices.cache_clear()
        _build_taps.cache_clear()
        exact = exact_indices(spec, size, mode)
        assert _build_taps.cache_info().currsize == 0
        assert exact_indices.__wrapped__(spec, size, mode) == exact


def test_exact_indices_rejects_non_integer_and_non_positive_sizes():
    c8 = cyclic_group(8)
    # a float or bool size must miss the cache, cold and then warm, and be rejected
    exact_indices.cache_clear()
    for _ in ("cold", "warm"):
        for size in (5.0, True, np.float64(5.0)):
            with pytest.raises(ValueError, match="^" + re.escape(f"size must be an integer, got {size!r}") + "$"):
                exact_indices(c8, size, "bilinear")
        exact_indices(c8, 5, "bilinear")
    for size in (0, -3):
        with pytest.raises(ValueError, match=f"^size must be >= 1, got {size}$"):
            exact_indices(c8, size, "nearest")
    # feature maps may have an even side, and numpy integers are sizes
    assert exact_indices(c8, 4, "bilinear") == {0, 2, 4, 6}
    assert exact_indices(c8, np.int64(5), "bilinear") == exact_indices(c8, 5, "bilinear")


def _stack_matrices(rng, n):
    """n maps: group elements of D_8 and D_6 (exact and not), plus random ones."""
    pool = [coordinate_table(g.spec)[g.index] for spec in (dihedral_group(8), dihedral_group(6)) for g in spec.elements()]
    out = []
    for _ in range(n):
        if rng.uniform() < 0.6:
            out.append(pool[rng.integers(len(pool))])
        else:
            out.append(rng.uniform(-1.3, 1.3, (2, 2)))
    return np.array(out).reshape(n, 2, 2)


@settings(max_examples=60, deadline=None)
@given(
    lead=st.sampled_from([(), (1,), (3,), (2, 2)]),
    stack=st.sampled_from([(0,), (1,), (3,), (2, 3), (7,)]),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    mode=st.sampled_from(["bilinear", "nearest"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_sample_plane_equals_per_matrix_calls(lead, stack, h, w, mode, seed):
    if h == w:
        w += 1  # H != W
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, lead + (h, w))
    values.flat[rng.integers(values.size)] = -0.0
    maps = _stack_matrices(rng, int(np.prod(stack))).reshape(stack + (2, 2))
    got = sample_plane(values, maps, mode)
    assert got.shape == lead + stack + (h, w)
    for i in np.ndindex(*stack):
        want = sample_plane(values, maps[i], mode)
        assert got[(Ellipsis,) + i + (slice(None), slice(None))].tobytes() == want.tobytes(), (i, maps[i])
        if h * w <= 20:
            assert want.tobytes() == _reference_sample_plane(values, maps[i], mode).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    lead=st.sampled_from([(), (1,), (3,), (2, 5), (16,)]),
    stack=st.sampled_from([(0,), (1,), (3,), (2, 3), (11,)]),
    h=st.integers(1, 11),
    w=st.integers(1, 11),
    mode=st.sampled_from(["bilinear", "nearest"]),
    tile=st.sampled_from([1, 7, 64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_plane_is_the_same_across_tiles(lead, stack, h, w, mode, tile, seed):
    # tiny tiles cut the output pixels into many tiles, the last one short;
    # rotations and the random maps send corner taps off the grid
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, lead + (h, w))
    values.flat[rng.integers(values.size, size=3)] = -0.0
    maps = _stack_matrices(rng, int(np.prod(stack))).reshape(stack + (2, 2))
    with mock.patch.object(filters, "TAP_TILE", tile):
        got = sample_plane(values, maps, mode)
    with mock.patch.object(filters, "TAP_TILE", 1 << 40):
        one_tile = sample_plane(values, maps, mode)
    assert got.shape == lead + stack + (h, w)
    assert got.flags.c_contiguous
    assert got.tobytes() == one_tile.tobytes()
    if h * w <= 20:
        for i in np.ndindex(*stack):
            want = _reference_sample_plane(values, maps[i], mode)
            assert got[(Ellipsis,) + i + (slice(None), slice(None))].tobytes() == want.tobytes(), (i, maps[i])


def test_sample_plane_rejects_non_square_maps():
    with pytest.raises(ValueError, match="2, 2"):
        sample_plane(GRID3, np.eye(3), "bilinear")
    with pytest.raises(ValueError, match="2, 2"):
        sample_plane(GRID3, np.ones(4), "bilinear")


@pytest.mark.parametrize("mode", ("bilinear", "nearest"))
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_sample_plane_rejects_non_finite_maps(mode, bad):
    quarter = coordinate_table(cyclic_group(4))[1]
    # one map, a cached stack with one bad map, and a stack too large to cache
    single = [[bad, 0.0], [0.0, 1.0]]
    for maps in (single, [quarter, np.diag([1.0, bad])], [quarter] * 300 + [np.full((2, 2), bad)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(ValueError, match="coordinate maps must be finite"):
                    sample_plane(np.ones((3, 3)), maps, mode)


def _check_filter_transform_against_reference(base, spec, mode):
    """Every entry of the filter transform, bit for bit: entry g is the
    per-pixel reference resampling of the base through the map of g^-1."""
    entries = filter_transform(base, spec, mode)
    assert entries.shape == (spec.order,) + base.shape
    for g in spec.elements():
        want = _reference_sample_plane(base, _coordinate_formula(g.inverse()), mode)
        assert entries[g.index].tobytes() == want.tobytes(), (spec.name, g)


@pytest.mark.parametrize("mode", ("bilinear", "nearest"))
@pytest.mark.parametrize("size", (1, 3, 5, 9))
def test_filter_transform_matches_per_element_reference(mode, size):
    base = np.random.default_rng(size).uniform(-1.0, 1.0, (size, size))
    base[0, 0] = -0.0
    for n in (1, 2, 3, 4, 6, 8, 12, 16, 24):
        for spec in (cyclic_group(n), dihedral_group(n)):
            _check_filter_transform_against_reference(base, spec, mode)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 32),
    size=st.sampled_from([1, 3, 5, 7, 9, 11]),
    dihedral=st.booleans(),
    mode=st.sampled_from(["bilinear", "nearest"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_filter_transform_matches_per_element_reference_for_any_n_and_size(n, size, dihedral, mode, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (size, size))
    base.flat[rng.integers(base.size)] = -0.0
    spec = dihedral_group(n) if dihedral else cyclic_group(n)
    _check_filter_transform_against_reference(base, spec, mode)


def test_grid_exact_bilinear_maps_keep_one_tap_plane():
    # every element of D_4 sends the integer centred coordinates of an odd
    # grid to integer ones, on or off the grid
    exact = [coordinate_table(g.spec)[g.index] for g in dihedral_group(4).elements()]
    for h, w in ((5, 5), (9, 9), (1, 1), (3, 7)):
        for matrix in exact:
            index, weight = _build_taps(h, w, _key(matrix), "bilinear")
            assert index.shape == weight.shape == (1, h * w)
        # a stack of such maps is one gather too
        assert _build_taps(h, w, _key(exact), "bilinear")[0].shape == (1, 8 * h * w)
    # on a square grid they are permutations: one plane of weight 1
    index, weight = _build_taps(7, 7, _key(exact), "bilinear")
    assert index.shape == (1, 8 * 49) and np.all(weight == 1.0)
    eighth = coordinate_table(dihedral_group(8))[1]
    assert _build_taps(7, 7, _key(eighth), "bilinear")[0].shape == (4, 49)
    # a map that sends every pixel off the grid keeps one all-zero plane (an
    # even grid has no pixel at the origin, which every linear map fixes)
    index, weight = _build_taps(4, 2, _key(50.0 * np.eye(2)), "bilinear")
    assert index.shape == (1, 8) and not weight.any()
    assert sample_plane(np.ones((4, 2)), 50.0 * np.eye(2), "bilinear").tobytes() == np.zeros((4, 2)).tobytes()


def _coordinate_formula(g):
    """The coordinate map of g from its rotation's cosine and sine, after the
    reflection y -> -y when g reflects."""
    c, s = rotation_cos_sin(g.i1, g.spec.rotation_order)
    rot = np.array([[c, -s], [s, c]])
    if g.i0:
        rot = rot @ np.diag([1.0, -1.0])
    return rot


def test_coordinate_table_rows_equal_the_formula():
    for n in range(1, 33):
        for spec in (cyclic_group(n), dihedral_group(n)):
            table = coordinate_table(spec)
            assert table.shape == (spec.order, 2, 2)
            for g in spec.elements():
                want = _coordinate_formula(g).tobytes()
                assert coordinate_table(g.spec)[g.index].tobytes() == want, g
                assert table[g.index].tobytes() == want, g


def test_coordinate_table_is_read_only_and_built_once():
    coordinate_table.cache_clear()
    d8 = dihedral_group(8)
    table = coordinate_table(d8)
    assert not table.flags.writeable
    for g in d8.elements():
        with pytest.raises(ValueError, match="read-only"):
            coordinate_table(g.spec)[g.index][0, 0] = 2.0
    assert coordinate_table(dihedral_group(8)) is table
    assert coordinate_table.cache_info().misses == 1
