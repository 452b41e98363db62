import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filtra import features, filters, harness
from filtra.features import FeatureMap, act_on_feature_stack, conv2d, feature_map
from filtra.filters import coordinate_matrix, sample_plane
from filtra.groups import cyclic_group, dihedral_group
from filtra.harness import (
    FEATURE_SIDE,
    IDENTITY_TOL,
    SuiteConfig,
    check_family,
    check_feature_equivariance,
    check_kernel_elements,
    check_kernel_equivariance,
    is_exact_element,
    kernel_families,
    reports_to_csv,
    run_suite,
    suite_passes,
    verify_construction_identities,
)
from filtra.kernels import (
    SteerableKernel,
    irrep_to_regular_dihedral,
    regular_to_regular_dihedral,
    trivial_to_regular_cyclic,
)
from filtra.representations import irrep, regular_rep, trivial_rep

RNG = np.random.default_rng(11)


def test_kernel_check_identity_element():
    kernel = trivial_to_regular_cyclic(RNG.uniform(-1, 1, (3, 3)), 4)
    assert check_kernel_equivariance(kernel, cyclic_group(4).identity()) == (0.0, 0.0)


def test_kernel_check_exact_rotation_is_bit_zero():
    kernel = trivial_to_regular_cyclic(RNG.uniform(-1, 1, (3, 3)), 4)
    assert check_kernel_equivariance(kernel, cyclic_group(4).element(0, 1)) == (0.0, 0.0)


def test_kernel_check_reports_interpolation_error():
    # an eighth turn resampled bilinearly on a 9x9 grid is not exact;
    # the residual is reported, not asserted against a bound
    kernel = irrep_to_regular_dihedral(RNG.uniform(-1, 1, (9, 9)), 8, 0, 1, "bilinear")
    abs_res, rel_res = check_kernel_equivariance(kernel, dihedral_group(8).element(0, 1))
    assert abs_res > 1e-6
    assert np.isfinite(abs_res) and np.isfinite(rel_res)


def test_overflowing_feature_check_fails_the_report():
    # 2.0 * 1e308 overflows in conv2d on both sides, so their difference is
    # nan; the report must not read that as a zero residual
    c4 = cyclic_group(4)
    kernel = SteerableKernel(c4, trivial_rep(c4), trivial_rep(c4), np.full((1, 1, 3, 3), 2.0), "bilinear")
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
    kernel = SteerableKernel(c8, psi, psi, np.full((2, 2, 3, 3), 1.7e308), "nearest")
    g = c8.element(0, 1)
    assert is_exact_element(g, 3, "nearest")
    with np.errstate(over="ignore", invalid="ignore"):
        assert check_kernel_equivariance(kernel, g) == (math.inf, math.inf)
        report = check_family("overflow", kernel, feature_map(c8, psi, np.zeros((2, 15, 15))))
    assert report.exact_subgroup_max == math.inf
    assert not report.passed()


def test_feature_check_examples():
    c4 = cyclic_group(4)
    kernel = trivial_to_regular_cyclic(RNG.uniform(-1, 1, (3, 3)), 4)
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
    first = conv2d(kernel, FeatureMap(f.group, f.rep, acted.reshape(n * c, h, w))).data
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
    kernel = SteerableKernel(group, rin, regular_rep(group), grids, mode)
    f = feature_map(group, rin, rng.uniform(-1, 1, (rin.dim, FEATURE_SIDE, FEATURE_SIDE)))
    elements = group.elements()
    results = check_feature_equivariance(kernel, f, elements)
    assert results[0] == (0.0, 0.0)
    for g, (abs_res, _) in zip(elements[1:], results[1:]):
        assert abs_res > 1e-3, (g.i0, g.i1)
    assert check_family("random", kernel, f).feature_exact_max > 1e-3


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
        assert residual <= IDENTITY_TOL, (label, residual)


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
        assert results[label] <= IDENTITY_TOL, (label, results[label])


def test_run_suite_trivial_group():
    reports = run_suite(SuiteConfig(groups=(cyclic_group(1),), sizes=(3,)))
    assert all(r.full_group_max == 0.0 for r in reports)
    assert suite_passes(reports)


def test_run_suite_exactness():
    config = SuiteConfig(groups=(cyclic_group(4), dihedral_group(4)), sizes=(3, 5, 7))
    reports = run_suite(config)
    assert suite_passes(reports)
    for r in reports:
        assert r.exact_subgroup_max <= 1e-10
        assert r.exact_subgroup_max <= r.full_group_max + 1e-15
        assert len(r.per_element) == r.group.order


def test_run_suite_nearest_eighth_turns():
    reports = run_suite(SuiteConfig(groups=(cyclic_group(8),), sizes=(3,), modes=("nearest",)))
    for r in reports:
        assert r.full_group_max <= 1e-10


def test_run_suite_deterministic():
    config = SuiteConfig(groups=(dihedral_group(2),), sizes=(3,), seed=5)
    a = reports_to_csv(run_suite(config))
    b = reports_to_csv(run_suite(config))
    assert a == b


def test_reports_csv_shape():
    config = SuiteConfig(groups=(cyclic_group(2),), sizes=(3,))
    reports = run_suite(config)
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
    lhs = sample_plane(kernel.grids, coordinate_matrix(g), kernel.mode)
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
