import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtra import features, filters, harness
from filtra.features import FeatureMap, act_on_feature_stack, conv2d, feature_map
from filtra.filters import coordinate_table, exact_indices, sample_plane
from filtra.groups import cyclic_group, dihedral_group, product_indices
from filtra.harness import (
    FEATURE_SIDE,
    KERNEL_TOL,
    check_family,
    check_feature_equivariance,
    check_kernel_elements,
    check_kernel_equivariance,
    is_exact_element,
    kernel_families,
    reports_to_csv,
    run_suite,
    verify_construction_identities,
)
from filtra.kernels import SteerableKernel, regular_to_regular_dihedral, steerable_kernel
from filtra.representations import irrep, regular_rep, trivial_rep

RNG = np.random.default_rng(11)


def test_kernel_check_identity_element():
    kernel = steerable_kernel(trivial_rep(cyclic_group(4)), [RNG.uniform(-1, 1, (3, 3))])
    assert check_kernel_equivariance(kernel, cyclic_group(4).identity()) == (0.0, 0.0)


def test_kernel_check_exact_rotation_is_bit_zero():
    kernel = steerable_kernel(trivial_rep(cyclic_group(4)), [RNG.uniform(-1, 1, (3, 3))])
    assert check_kernel_equivariance(kernel, cyclic_group(4).element(0, 1)) == (0.0, 0.0)


def test_kernel_check_reports_interpolation_error():
    # an eighth turn resampled bilinearly on a 9x9 grid is not exact;
    # the residual is reported, not asserted against a bound
    kernel = steerable_kernel(irrep(dihedral_group(8), 0, 1), [RNG.uniform(-1, 1, (9, 9))], "bilinear")
    abs_res, rel_res = check_kernel_equivariance(kernel, dihedral_group(8).element(0, 1))
    assert abs_res > 1e-6
    assert np.isfinite(abs_res) and np.isfinite(rel_res)


def test_overflowing_feature_check_fails_the_report():
    # 2.0 * 1e308 overflows in conv2d on both sides, so their difference is
    # nan; the report must not read that as a zero residual
    c4 = cyclic_group(4)
    kernel = SteerableKernel(trivial_rep(c4), trivial_rep(c4), np.full((1, 1, 3, 3), 2.0), "bilinear")
    f = feature_map(c4, trivial_rep(c4), np.full((1, 15, 15), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        assert check_feature_equivariance(kernel, f, [c4.element(0, 1)]) == [(math.inf, math.inf)]
        report = check_family("overflow", kernel, f)
    assert report.exact_subgroup_max == 0.0
    assert report.feature_exact_max == math.inf
    assert not report.passed()


def test_overflowing_kernel_check_fails_the_report():
    # an eighth turn is exact on a 3x3 nearest grid; its irrep entries
    # overflow the conjugated kernel to inf, and inf * 0 to nan
    c8 = cyclic_group(8)
    psi = irrep(c8, 0, 1)
    kernel = SteerableKernel(psi, psi, np.full((2, 2, 3, 3), 1.7e308), "nearest")
    g = c8.element(0, 1)
    assert is_exact_element(g, 3, "nearest")
    with np.errstate(over="ignore", invalid="ignore"):
        assert check_kernel_equivariance(kernel, g) == (math.inf, math.inf)
        report = check_family("overflow", kernel, feature_map(c8, psi, np.zeros((2, 15, 15))))
    assert report.exact_subgroup_max == math.inf
    assert not report.passed()


def test_feature_check_examples():
    c4 = cyclic_group(4)
    kernel = steerable_kernel(trivial_rep(cyclic_group(4)), [RNG.uniform(-1, 1, (3, 3))])
    f = feature_map(c4, kernel.rep_in, RNG.uniform(-1, 1, (1, 15, 15)))
    assert check_feature_equivariance(kernel, f, [c4.identity()]) == [(0.0, 0.0)]
    [(abs_res, _)] = check_feature_equivariance(kernel, f, [c4.element(0, 2)])
    assert abs_res <= 1e-10

    d4 = dihedral_group(4)
    kernel = regular_to_regular_dihedral([RNG.uniform(-1, 1, (3, 3)) for _ in range(6)], 4)
    f = feature_map(d4, kernel.rep_in, RNG.uniform(-1, 1, (8, 15, 15)))
    [(abs_res, _)] = check_feature_equivariance(kernel, f, [d4.element(1, 1)])
    assert abs_res <= 1e-10


@pytest.mark.parametrize("tile", [features.COLUMN_TILE, 6000], ids=["default-tile", "small-tile"])
@pytest.mark.parametrize("group", [cyclic_group(8), dihedral_group(4)], ids=lambda g: g.name)
def test_batched_feature_check_equals_one_element_calls(group, tile):
    rng = np.random.default_rng(17)
    # the small tile cuts the 15 rows of regular-rep columns into bands of
    # two and irrep columns into bands of nine, each ending short; the identity
    # sits inside the batch, between non-trivial elements
    elements = group.elements()[1:3] + [group.identity()] + group.elements()[3:]
    with mock.patch.object(features, "COLUMN_TILE", tile):
        for label, kernel in kernel_families(group, 5, "bilinear", rng):
            f = feature_map(group, kernel.rep_in, rng.uniform(-1, 1, (2 * kernel.rep_in.dim, 15, 13)))
            batched = check_feature_equivariance(kernel, f, elements)
            single = [check_feature_equivariance(kernel, f, [g])[0] for g in elements]
            assert len(batched) == len(elements)
            assert np.array(batched).tobytes() == np.array(single).tobytes(), label
            assert batched[2] == (0.0, 0.0), label
    assert check_feature_equivariance(kernel, f, []) == []


def _feature_check_on_full_maps(kernel, f, elements):
    """The feature check computed on full maps: "same" convolutions of the
    acted copies and of f, the action on the full convolved map, then the
    interior crop of both sides."""
    n, (c, h, w) = len(elements), f.data.shape
    acted = act_on_feature_stack(elements, f, kernel.mode)
    first = conv2d(kernel, FeatureMap(f.rep, acted.reshape(n * c, h, w))).data
    last = act_on_feature_stack(elements, conv2d(kernel, f), kernel.mode)
    m = kernel.size // 2
    crop = (slice(None), slice(m, h - m), slice(m, w - m))
    results = []
    for a, b in zip(first.reshape(last.shape), last):
        diff = float(np.abs(a[crop] - b[crop]).max())
        results.append((diff, diff / float(np.abs(b[crop]).max())))
    return results


@pytest.mark.parametrize("mode", ["bilinear", "nearest"])
@pytest.mark.parametrize("size", [3, 5, 9])
@pytest.mark.parametrize("group", [cyclic_group(8), dihedral_group(8)], ids=lambda g: g.name)
def test_feature_check_on_the_crop_matches_the_full_map_computation(group, size, mode):
    rng = np.random.default_rng(size)
    elements = [g for g in group.elements() if is_exact_element(g, FEATURE_SIDE, mode)]
    for label, kernel in kernel_families(group, size, mode, rng):
        f = feature_map(group, kernel.rep_in, rng.uniform(-1, 1, (kernel.rep_in.dim, FEATURE_SIDE, FEATURE_SIDE)))
        got = check_feature_equivariance(kernel, f, elements)
        want = _feature_check_on_full_maps(kernel, f, elements)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13, err_msg=label)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(["bilinear", "nearest"]))
@pytest.mark.parametrize("size", [3, 5, 9, 13, 15])
@pytest.mark.parametrize("rep_in", ["trivial", "regular"])
@pytest.mark.parametrize("group", [cyclic_group(4), dihedral_group(4)], ids=lambda g: g.name)
def test_feature_check_fails_a_kernel_that_does_not_steer(group, rep_in, size, seed, mode):
    # random grids: the valid crop, down to one pixel at S = 15, must still
    # show the kernel failing at every element other than the identity
    rng = np.random.default_rng(seed)
    rin = trivial_rep(group) if rep_in == "trivial" else regular_rep(group)
    grids = rng.uniform(-1, 1, (group.order, rin.dim, size, size))
    kernel = SteerableKernel(rin, regular_rep(group), grids, mode)
    f = feature_map(group, rin, rng.uniform(-1, 1, (rin.dim, FEATURE_SIDE, FEATURE_SIDE)))
    elements = group.elements()
    results = check_feature_equivariance(kernel, f, elements)
    assert results[0] == (0.0, 0.0)
    for g, (abs_res, _) in zip(elements[1:], results[1:]):
        assert abs_res > 1e-3, (g.i0, g.i1)
    assert check_family("random", kernel, f).feature_exact_max > 1e-3


def test_check_family_rejects_a_non_square_feature_map():
    # the exact set of the feature check is derived for a square grid: on a
    # 15 x 17 map a quarter turn does not map the valid crop onto itself
    c4 = cyclic_group(4)
    kernel = steerable_kernel(trivial_rep(c4), [RNG.uniform(-1, 1, (3, 3))])
    wide = feature_map(c4, trivial_rep(c4), RNG.uniform(-1, 1, (1, 15, 17)))
    with pytest.raises(ValueError, match="15x17"):
        check_family("triv2reg", kernel, wide)
    square = feature_map(c4, trivial_rep(c4), RNG.uniform(-1, 1, (1, 15, 15)))
    assert check_family("triv2reg", kernel, square).passed()


@pytest.mark.parametrize("side", [3, 4])
def test_feature_check_rejects_a_map_smaller_than_the_kernel(side):
    # the valid crop would be empty: a message naming the sizes, not a
    # division by a zero-width band
    c4 = cyclic_group(4)
    kernel = steerable_kernel(trivial_rep(c4), [RNG.uniform(-1, 1, (5, 5))])
    f = feature_map(c4, trivial_rep(c4), np.zeros((1, side, side)))
    with pytest.raises(ValueError, match=f"spatial size {side}x{side} smaller than the kernel size 5"):
        check_feature_equivariance(kernel, f, c4.elements())


def test_is_exact_element():
    c8, c12 = cyclic_group(8), cyclic_group(12)
    assert is_exact_element(c8.element(0, 2), 5, "bilinear")  # quarter turn
    assert not is_exact_element(c8.element(0, 1), 5, "bilinear")
    assert is_exact_element(c8.element(0, 1), 3, "nearest")  # eighth turn, 3x3
    assert not is_exact_element(c8.element(0, 1), 5, "nearest")
    assert is_exact_element(c12.element(0, 1), 1, "bilinear")  # 1x1 always exact
    assert not is_exact_element(c12.element(0, 1), 3, "bilinear")
    d8 = dihedral_group(8)
    assert is_exact_element(d8.element(1, 2), 7, "bilinear")
    assert is_exact_element(d8.element(1, 1), 3, "nearest")
    assert not is_exact_element(d8.element(1, 1), 3, "bilinear")
    # an eighth turn of C16 permutes the 3x3 grid but does not compose with
    # the 22.5-degree turns
    assert not is_exact_element(cyclic_group(16).element(0, 2), 3, "nearest")


def _quarter_turn_indices(spec):
    n = spec.rotation_order
    return {g.index for g in spec.elements() if (4 * g.i1) % n == 0}


def test_every_c8_d8_element_is_exact_on_3x3_nearest():
    for spec in (cyclic_group(8), dihedral_group(8)):
        assert exact_indices(spec, 3, "nearest") == frozenset(range(spec.order))


def test_only_quarter_turns_are_exact_on_3x3_nearest_in_c16_d16_c32_d32():
    for n in (16, 32):
        for spec in (cyclic_group(n), dihedral_group(n)):
            assert exact_indices(spec, 3, "nearest") == _quarter_turn_indices(spec)


def _hand_rule(g, size, mode):
    """The exactness rule that the derived sets replaced: 1x1 grids, quarter
    turns (any reflection), and eighth turns on 3x3 grids under nearest."""
    if size == 1:
        return True
    c, s = coordinate_table(g.spec)[g.index][:, 0].tolist()
    if c == round(c) and s == round(s):
        return True
    h = math.sqrt(0.5)
    return mode == "nearest" and size == 3 and abs(abs(c) - h) < 1e-9 and abs(abs(s) - h) < 1e-9


def test_derived_exactness_equals_the_hand_rule_outside_eighth_turns_of_c16_c32():
    cells = 0
    for n in range(1, 33):
        for spec in (cyclic_group(n), dihedral_group(n)):
            for size in range(1, 16, 2):
                for mode in ("bilinear", "nearest"):
                    cells += 1
                    if n in (16, 32) and (size, mode) == (3, "nearest"):
                        continue
                    want = {g.index for g in spec.elements() if _hand_rule(g, size, mode)}
                    assert exact_indices(spec, size, mode) == want, (spec.name, size, mode)
    assert cells == 1024


def test_signed_permutation_maps_are_always_in_the_derived_exact_set():
    # a lower bound that does not come from the derivation: a map with entries
    # in {-1, 0, 1} (a quarter turn, an axis reflection) permutes every odd grid
    cases = 0
    for n in range(1, 25):
        for spec in (cyclic_group(n), dihedral_group(n)):
            table = coordinate_table(spec)
            signed = set(np.flatnonzero(np.isin(table, (-1.0, 0.0, 1.0)).all(axis=(1, 2))).tolist())
            for size in (1, 3, 5, 9, 15):
                for mode in ("bilinear", "nearest"):
                    assert signed <= exact_indices(spec, size, mode), (spec.name, size, mode)
                    cases += 1
    assert cases == 480


def test_exact_indices_is_cached_and_frozen():
    got = exact_indices(dihedral_group(8), 5, "bilinear")
    assert isinstance(got, frozenset)
    assert exact_indices(dihedral_group(8), 5, "bilinear") is got
    with pytest.raises(ValueError, match="interpolation mode"):
        exact_indices(dihedral_group(8), 5, "bicubic")


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 24),
    dihedral=st.booleans(),
    size=st.sampled_from(range(1, 16, 2)),
    mode=st.sampled_from(["bilinear", "nearest"]),
)
def test_derived_exact_sets_are_subgroups(n, dihedral, size, mode):
    spec = dihedral_group(n) if dihedral else cyclic_group(n)
    exact = np.array(sorted(exact_indices(spec, size, mode)))
    assert 0 in exact
    # inverses follow: in a finite group, closure under products makes a subgroup
    assert set(product_indices(spec, exact[:, None], exact).ravel().tolist()) <= set(exact.tolist())


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 32),
    dihedral=st.booleans(),
    size=st.sampled_from([1, 3, 5, 7, 9, 11]),
    mode=st.sampled_from(["bilinear", "nearest"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_family_steers_on_the_derived_exact_elements(n, dihedral, size, mode, seed):
    spec = dihedral_group(n) if dihedral else cyclic_group(n)
    exact = exact_indices(spec, size, mode)
    assert 0 in exact
    if n % 4 == 0:
        assert _quarter_turn_indices(spec) <= exact
    elements = [g for g in spec.elements() if g.index in exact]
    for label, kernel in kernel_families(spec, size, mode, np.random.default_rng(seed)):
        for abs_res, _ in check_kernel_elements(kernel, elements):
            assert abs_res <= KERNEL_TOL, (label, spec.name, size, mode)


@pytest.mark.parametrize("n", [1, 4, 5])
def test_construction_identities(n):
    results = verify_construction_identities(n)
    assert set(results) == {
        "cyclic-trivial",
        "cyclic-irrep",
        "cyclic-regular",
        "dihedral-trivial",
        "dihedral-irrep",
        "dihedral-regular",
    }
    for label, residual in results.items():
        assert residual <= KERNEL_TOL, (label, residual)


@pytest.mark.parametrize("n", [1, 4, 5])
def test_construction_identities_are_not_vacuous(n, monkeypatch):
    """A sign error in the reflected half of the assembly must show, and no
    placeholder kernel may be zero: a zero kernel steers trivially."""
    assemble = harness.assemble_grids
    assembled = []

    def recording(rep_in, stacks):
        assembled.append(assemble(rep_in, stacks))
        return assembled[-1]

    monkeypatch.setattr(harness, "assemble_grids", recording)
    verify_construction_identities(n)
    assert len(assembled) > 0
    assert all(np.abs(grids).max() > 0.0 for grids in assembled)

    def flipped(rep_in, stacks):
        # negating the reflected half of every stack flips the sign (-1)**j
        # that the assembly gives it; cyclic stacks have no reflected half
        return assemble(rep_in, [np.concatenate([s[:n], -s[n:]]) for s in stacks])

    monkeypatch.setattr(harness, "assemble_grids", flipped)
    results = verify_construction_identities(n)
    for label in ("dihedral-trivial", "dihedral-irrep", "dihedral-regular"):
        assert results[label] >= 0.1, (label, results[label])
    for label in ("cyclic-trivial", "cyclic-irrep", "cyclic-regular"):
        assert results[label] <= KERNEL_TOL, (label, results[label])


def test_run_suite_trivial_group():
    reports = run_suite([cyclic_group(1)], [3], ["bilinear"], 42)
    assert all(r.full_group_max == 0.0 for r in reports)
    assert all(r.passed() for r in reports)


def test_run_suite_exactness():
    reports = run_suite([cyclic_group(4), dihedral_group(4)], [3, 5, 7], ["bilinear"], 42)
    assert all(r.passed() for r in reports)
    for r in reports:
        assert r.exact_subgroup_max <= 1e-10
        assert r.exact_subgroup_max <= r.full_group_max + 1e-15
        assert len(r.per_element) == r.group.order
        # a report keeps its exact set and reads both maxima from its rows
        assert r.exact == exact_indices(r.group, r.size, r.mode)
        assert r.full_group_max == max(a for _, a, _ in r.per_element)
        assert r.exact_subgroup_max == max(a for g, a, _ in r.per_element if g.index in r.exact)


def test_run_suite_filter_transform_families_are_exact_zero():
    # triv2reg, the j0 k0 irrep and orn kernels are the filter transform's own
    # copies, which compose bit for bit at every exact element
    groups = [dihedral_group(3), dihedral_group(5), dihedral_group(6), cyclic_group(6), dihedral_group(12)]
    reports = run_suite(groups, [3, 5], ["bilinear", "nearest"], 1)
    assert len(reports) == 376
    checked = 0
    for r in reports:
        if r.kernel_kind.removeprefix("rev:") in ("triv2reg", "irrep2reg:j0:k0", "orn"):
            assert r.exact_subgroup_max == 0.0, (r.kernel_kind, r.group.name, r.size, r.mode)
            checked += 1
    assert checked == 88


def test_run_suite_nearest_eighth_turns():
    reports = run_suite([cyclic_group(8)], [3], ["nearest"], 42)
    for r in reports:
        assert r.full_group_max <= 1e-10


def test_run_suite_deterministic():
    a = reports_to_csv(run_suite([dihedral_group(2)], [3], ["bilinear"], 5))
    b = reports_to_csv(run_suite([dihedral_group(2)], [3], ["bilinear"], 5))
    assert a == b


def test_reports_csv_shape():
    reports = run_suite([cyclic_group(2)], [3], ["bilinear"], 42)
    lines = reports_to_csv(reports).strip().splitlines()
    assert lines[0] == "kind,group,S,mode,i0,i1,abs_residual,rel_residual"
    assert len(lines) == 1 + sum(len(r.per_element) for r in reports)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 8
        assert np.isfinite(float(fields[6])) and np.isfinite(float(fields[7]))


def test_kernel_families_cover_constructions():
    labels = [label for label, _ in kernel_families(cyclic_group(4), 3, "bilinear", RNG)]
    assert "triv2reg" in labels and "reg2reg" in labels and "orn" in labels
    assert "irrep2reg:j0:k2" in labels
    assert "rev:triv2reg" in labels
    d_labels = [label for label, _ in kernel_families(dihedral_group(4), 3, "bilinear", RNG)]
    assert "irrep2reg:j1:k1" in d_labels
    assert "orn" not in d_labels


def _einsum_kernel_residuals(kernel, g):
    """The steer check written as one three-operand contraction."""
    lhs = sample_plane(kernel.grids, coordinate_table(g.spec)[g.index], kernel.mode)
    rhs = np.einsum("ab,bchw,cd->adhw", kernel.rep_out.matrix(g), kernel.grids, kernel.rep_in.matrix(g).T)
    abs_res = float(np.abs(lhs - rhs).max())
    scale = float(np.abs(rhs).max())
    return abs_res, (abs_res / scale if abs_res else 0.0), scale


@pytest.mark.parametrize("group", [cyclic_group(5), dihedral_group(4), dihedral_group(6)], ids=lambda g: g.name)
@pytest.mark.parametrize("mode", ["bilinear", "nearest"])
def test_kernel_check_matches_einsum_formula(group, mode):
    rng = np.random.default_rng(13)
    for label, kernel in kernel_families(group, 3, mode, rng):
        for g in group.elements():
            abs_res, rel_res = check_kernel_equivariance(kernel, g)
            ref_abs, ref_rel, scale = _einsum_kernel_residuals(kernel, g)
            if (g.i0, g.i1) == (0, 0):
                assert (abs_res, rel_res) == (0.0, 0.0), label
            assert abs(abs_res - ref_abs) <= 1e-14 * scale, (label, g)
            assert abs(rel_res - ref_rel) <= 1e-14 * max(1.0, ref_rel), (label, g)


def test_kernel_check_memory_stays_within_three_grids():
    # the left side, the mixed grids and the right side are three grid-sized
    # arrays; the resampling may add one tile of taps, not a tap plane per
    # corner (an untiled gather holds four grids of taps at once)
    spec = dihedral_group(12)
    kernel = dict(kernel_families(spec, 9, "bilinear", np.random.default_rng(0)))["rev:reg2reg"]
    g = spec.element(0, 1)
    check_kernel_equivariance(kernel, g)  # builds and caches the taps
    tracemalloc.start()
    try:
        check_kernel_equivariance(kernel, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.grids.shape == (24, 24, 9, 9)
    assert peak <= 3 * kernel.grids.nbytes + filters.TAP_TILE * 8


def test_family_check_memory_stays_within_three_grids():
    # a kernel this large is checked one element per chunk, as the one-element
    # check does; holding the chunks' arrays past their chunk would show here
    spec = dihedral_group(12)
    kernel = dict(kernel_families(spec, 9, "bilinear", np.random.default_rng(0)))["rev:reg2reg"]
    elements = spec.elements()
    check_kernel_elements(kernel, elements)  # builds and caches the taps
    tracemalloc.start()
    try:
        check_kernel_elements(kernel, elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(elements) == 24
    assert peak <= 3 * kernel.grids.nbytes + filters.TAP_TILE * 8


def test_family_check_memory_stays_within_three_chunks():
    # every element of a small kernel fits one chunk: its left side, mixed
    # grids and right side are three chunk-sized arrays
    spec = cyclic_group(8)
    kernel = dict(kernel_families(spec, 3, "bilinear", np.random.default_rng(0)))["triv2reg"]
    elements = spec.elements()
    per_element = kernel.grids.size + kernel.rep_out.dim**2 + kernel.rep_in.dim**2
    assert harness.CHECK_TILE // per_element >= len(elements)
    check_kernel_elements(kernel, elements)
    tracemalloc.start()
    try:
        check_kernel_elements(kernel, elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(elements) * kernel.grids.nbytes + filters.TAP_TILE * 8


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(1, 32),
    dihedral=st.booleans(),
    size=st.sampled_from([1, 3, 5, 7, 9, 11]),
    mode=st.sampled_from(["bilinear", "nearest"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_kernel_check_equals_one_element_calls(n, dihedral, size, mode, seed):
    spec = dihedral_group(n) if dihedral else cyclic_group(n)
    elements = spec.elements()
    for label, kernel in kernel_families(spec, size, mode, np.random.default_rng(seed)):
        single = [check_kernel_equivariance(kernel, g) for g in elements]
        per_element = kernel.grids.size + kernel.rep_out.dim**2 + kernel.rep_in.dim**2
        chunks = set()
        # small tiles split the group into chunks of one or a few elements,
        # the last one short; a tile that gives the chunks of a smaller one
        # is not run again
        for tile in (1, 7, 64, 1000, harness.CHECK_TILE):
            if max(1, tile // per_element) in chunks:
                continue
            chunks.add(max(1, tile // per_element))
            with mock.patch.object(harness, "CHECK_TILE", tile):
                stacked = check_kernel_elements(kernel, elements)
            assert np.array(stacked).tobytes() == np.array(single).tobytes(), (label, tile)
