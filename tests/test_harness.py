import math
from unittest import mock

import numpy as np
import pytest

from filtra import features
from filtra.features import feature_map
from filtra.filters import coordinate_matrix, sample_plane
from filtra.groups import cyclic_group, dihedral_group
from filtra.harness import (
    IDENTITY_TOL,
    SuiteConfig,
    check_family,
    check_feature_equivariance,
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
from filtra.representations import irrep, trivial_rep

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
        "cyclic-irrep-rotation",
        "cyclic-irrep-rotation-reflected-stack",
        "reflected-exchange",
        "reflected-exchange-conjugate",
        "dihedral-irrep-stack",
        "cyclic-regular-chain",
        "dihedral-regular-chain",
    }
    for label, residual in results.items():
        assert residual <= IDENTITY_TOL, (label, residual)


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
