import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from filtra.filters import TAU
from filtra.groups import cyclic_group, dihedral_group
from filtra.harness import check_kernel_equivariance
from filtra.kernels import (
    SteerableKernel,
    capacity_report,
    circulant_kernel,
    regular_to_regular_dihedral,
    reverse_kernel,
    steerable_kernel,
    trivial_to_regular_dihedral,
)
from filtra.representations import irrep, regular_rep, trivial_rep

BASE = np.arange(1.0, 10.0).reshape(3, 3)


def test_trivial_to_regular_cyclic():
    k = steerable_kernel(trivial_rep(cyclic_group(4)), [np.array([[2.5]])])
    assert k.grids.shape == (4, 1, 1, 1)
    assert_array_equal(k.grids[:, 0, 0, 0], [2.5] * 4)

    k = steerable_kernel(trivial_rep(cyclic_group(4)), [BASE])
    for n in range(4):
        assert_array_equal(k.grids[n, 0], np.rot90(BASE, n))
    assert k.rep_in.kind == "trivial" and k.rep_out.kind == "regular"

    abs_res, rel_res = check_kernel_equivariance(k, cyclic_group(4).element(0, 1))
    assert abs_res == 0.0 and rel_res == 0.0


def test_trivial_to_regular_dihedral():
    base = np.array([[1.0]])
    k = trivial_to_regular_dihedral(base, 1)
    assert k.grids.shape == (2, 1, 1, 1)
    assert_array_equal(k.grids[0, 0], base)
    assert_array_equal(k.grids[1, 0], base[::-1])

    sym = np.array([[1, 2, 3], [4, 5, 6], [1, 2, 3]], dtype=float)
    k = trivial_to_regular_dihedral(sym, 4)
    assert_array_equal(k.grids[0, 0], k.grids[4, 0])

    k = trivial_to_regular_dihedral(BASE, 4)
    abs_res, _ = check_kernel_equivariance(k, dihedral_group(4).element(1, 1))
    assert abs_res == 0.0


def test_irrep_to_regular_cyclic():
    k0 = steerable_kernel(irrep(cyclic_group(4), 0, 0), [BASE])
    triv = steerable_kernel(trivial_rep(cyclic_group(4)), [BASE])
    assert_array_equal(k0.grids, triv.grids)

    w = 0.75
    k1 = steerable_kernel(irrep(cyclic_group(4), 0, 1), [np.array([[w]])])
    assert k1.grids.shape == (4, 2, 1, 1)
    angles = TAU * np.arange(4) / 4
    assert_allclose(k1.grids[:, 0, 0, 0], w * np.cos(angles), atol=1e-15)
    assert_allclose(k1.grids[:, 1, 0, 0], w * np.sin(angles), atol=1e-15)

    abs_res, _ = check_kernel_equivariance(k1, cyclic_group(4).element(0, 1))
    assert abs_res <= 1e-12
    with pytest.raises(ValueError):
        steerable_kernel(irrep(cyclic_group(4), 0, 3), [BASE])


def test_irrep_to_regular_dihedral():
    k = steerable_kernel(irrep(dihedral_group(4), 0, 0), [BASE])
    assert_array_equal(k.grids, trivial_to_regular_dihedral(BASE, 4).grids)

    base = np.array([[1.5]])
    k = steerable_kernel(irrep(dihedral_group(1), 1, 0), [base])
    assert_array_equal(k.grids[0, 0], base)
    assert_array_equal(k.grids[1, 0], -base[::-1])

    k = steerable_kernel(irrep(dihedral_group(4), 1, 1), [BASE])
    abs_res, _ = check_kernel_equivariance(k, dihedral_group(4).element(1, 0))
    assert abs_res <= 1e-12
    with pytest.raises(ValueError):
        steerable_kernel(irrep(dihedral_group(4), 2, 1), [BASE])


def test_regular_to_regular_cyclic():
    k = steerable_kernel(regular_rep(cyclic_group(1)), [BASE])
    assert_array_equal(k.grids[0, 0], BASE)

    a, b = 2.0, 5.0
    k = steerable_kernel(regular_rep(cyclic_group(2)), [np.array([[a]]), np.array([[b]])])
    got = k.grids[:, :, 0, 0]
    expected = 0.5 * np.array([[a + b, a - b], [a - b, a + b]])
    assert_allclose(got, expected, atol=1e-14)

    rng = np.random.default_rng(2)
    bases = [rng.uniform(-1, 1, (3, 3)) for _ in range(3)]
    k = steerable_kernel(regular_rep(cyclic_group(4)), bases)
    for g in cyclic_group(4).elements():
        abs_res, _ = check_kernel_equivariance(k, g)
        assert abs_res <= 1e-12
    with pytest.raises(ValueError):
        steerable_kernel(regular_rep(cyclic_group(4)), bases[:2])


def test_regular_to_regular_cyclic_is_linear_in_each_base():
    rng = np.random.default_rng(3)
    bases_a = [rng.uniform(-1, 1, (3, 3)) for _ in range(3)]
    bases_b = [rng.uniform(-1, 1, (3, 3)) for _ in range(3)]
    alpha, beta = 0.6, -1.1
    mixed = steerable_kernel(
        regular_rep(cyclic_group(4)), [alpha * a + beta * b for a, b in zip(bases_a, bases_b)]
    )
    ka = steerable_kernel(regular_rep(cyclic_group(4)), bases_a)
    kb = steerable_kernel(regular_rep(cyclic_group(4)), bases_b)
    assert_allclose(mixed.grids, alpha * ka.grids + beta * kb.grids, atol=1e-12)


def test_regular_to_regular_dihedral():
    b0, b1 = 2.0, 3.0
    k = regular_to_regular_dihedral([np.array([[b0]]), np.array([[b1]])], 1)
    got = k.grids[:, :, 0, 0]
    expected = 0.5 * np.array([[b0 + b1, b0 - b1], [b0 - b1, b0 + b1]])
    assert_allclose(got, expected, atol=1e-14)

    rng = np.random.default_rng(4)
    k = regular_to_regular_dihedral([rng.uniform(-1, 1, (3, 3)) for _ in range(4)], 2)
    assert k.grids.shape == (4, 4, 3, 3)

    k = regular_to_regular_dihedral([rng.uniform(-1, 1, (3, 3)) for _ in range(6)], 4)
    for g in dihedral_group(4).elements():
        abs_res, _ = check_kernel_equivariance(k, g)
        assert abs_res <= 1e-12
    with pytest.raises(ValueError):
        regular_to_regular_dihedral([BASE], 4)


def test_reverse_kernel():
    k = steerable_kernel(trivial_rep(cyclic_group(4)), [BASE])
    rev = reverse_kernel(k)
    assert rev.grids.shape == (1, 4, 3, 3)
    assert rev.rep_in.kind == "regular" and rev.rep_out.kind == "trivial"
    assert_array_equal(reverse_kernel(rev).grids, k.grids)

    g = cyclic_group(4).element(0, 1)
    k_irrep = steerable_kernel(irrep(cyclic_group(4), 0, 1), [BASE])
    forward, _ = check_kernel_equivariance(k_irrep, g)
    reversed_, _ = check_kernel_equivariance(reverse_kernel(k_irrep), g)
    assert forward <= 1e-12 and reversed_ <= 1e-12

    # duality: the reversed residual matrix is the transpose of the forward
    # one, so the max-abs values coincide even at interpolated angles
    k_big = steerable_kernel(irrep(cyclic_group(8), 0, 1), [np.arange(1.0, 82.0).reshape(9, 9)])
    for g in cyclic_group(8).elements():
        forward, _ = check_kernel_equivariance(k_big, g)
        reversed_, _ = check_kernel_equivariance(reverse_kernel(k_big), g)
        assert forward == reversed_


def test_circulant_kernel():
    k = circulant_kernel(BASE, 1)
    assert_array_equal(k.grids[0, 0], BASE)

    n = 4
    k = circulant_kernel(BASE, n)
    stack = [np.rot90(BASE, m) for m in range(n)]
    for i in range(n):
        for j in range(n):
            assert_array_equal(k.grids[i, j], stack[(2 * i - j) % n])
    for g in cyclic_group(n).elements():
        abs_res, _ = check_kernel_equivariance(k, g)
        assert abs_res == 0.0


def test_capacity_report():
    for kind in ("reg2reg", "orn"):
        rep = capacity_report(1, 3, kind)
        assert rep.independent_weights == 9
        assert rep.stored_filter_scalars == 9
    filtra_rep = capacity_report(8, 5, "reg2reg")
    assert filtra_rep.independent_weights == (8 // 2 + 1) * 25 == 125
    assert filtra_rep.stored_filter_scalars == 8 * 8 * 25
    orn_rep = capacity_report(8, 5, "orn")
    assert orn_rep.independent_weights == 25
    assert orn_rep.stored_filter_scalars == 1600
    with pytest.raises(ValueError):
        capacity_report(8, 5, "other")


@pytest.mark.parametrize(
    "n, size, kind, name",
    [(-4, 3, "reg2reg", "n"), (0, 3, "orn", "n"), (4, 4, "orn", "size"), (8, -5, "orn", "size"), (8, 0, "reg2reg", "size"),
     (8.0, 3, "reg2reg", "n"), (True, 3, "orn", "n"), (8, 3.0, "reg2reg", "size")],
)
def test_capacity_report_rejects_kernels_that_cannot_exist(n, size, kind, name):
    # no kernel has a group of order below 1 or an even or non-positive side,
    # and a float or a bool is no count
    with pytest.raises(ValueError, match=f"^{name} must be"):
        capacity_report(n, size, kind)


def test_steerable_kernel_validation():
    c4, d4 = cyclic_group(4), dihedral_group(4)
    # either side on another group, with grid shapes that fit the dims
    for rep_in, rep_out in ((trivial_rep(d4), regular_rep(c4)), (trivial_rep(c4), regular_rep(d4))):
        with pytest.raises(ValueError, match="^kernel representations must live on one group$"):
            SteerableKernel(rep_in, rep_out, np.zeros((rep_out.dim, 1, 3, 3)), "bilinear")
    with pytest.raises(ValueError, match="^grid matrix is 4x2, expected 4x1$"):
        SteerableKernel(trivial_rep(c4), regular_rep(c4), np.zeros((4, 2, 3, 3)), "bilinear")
    for shape in ((4, 1, 4, 4), (4, 1, 3, 5)):
        with pytest.raises(ValueError, match="^filter grids must be square with odd side, got"):
            SteerableKernel(trivial_rep(c4), regular_rep(c4), np.zeros(shape), "bilinear")
    with pytest.raises(ValueError, match=r"^base filters must share one size, got sides \[3, 5\]$"):
        steerable_kernel(regular_rep(c4), [BASE, np.zeros((5, 5)), BASE], "bilinear")
