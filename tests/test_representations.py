import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from filtra.filters import coordinate_table, rotation_cos_sin
from filtra.groups import cyclic_group, dihedral_group
from filtra.representations import (
    RepSpec,
    decompose_regular,
    group_dct_basis,
    intertwiner_residual,
    irrep,
    irrep_table,
    regular_rep,
    regular_rep_matrix,
    trivial_rep,
)


def all_reps(spec):
    reps = [trivial_rep(spec), regular_rep(spec)]
    js = (0,) if spec.reflection_order == 1 else (0, 1)
    for j in js:
        for k in range(spec.rotation_order // 2 + 1):
            reps.append(irrep(spec, j, k))
    return reps


def test_rotation_permutation_examples():
    # the C_N regular matrix, and the diagonal blocks of the D_N one
    c3, c4, d3 = cyclic_group(3), cyclic_group(4), dihedral_group(3)
    assert_array_equal(regular_rep_matrix(c3.element(0, 0)), np.eye(3))
    assert_array_equal(regular_rep_matrix(c3.element(0, 1)), [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert_array_equal(regular_rep_matrix(c4.element(0, 1)) @ regular_rep_matrix(c4.element(0, 3)), np.eye(4))
    rho = regular_rep_matrix(d3.element(0, 1))
    for block in (rho[:3, :3], rho[3:, 3:]):
        assert_array_equal(block, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert_array_equal(rho[:3, 3:], np.zeros((3, 3)))


def test_reflection_permutation_examples():
    # the off-diagonal blocks of the D_N regular matrix of a reflection
    def blocks(n):
        rho = regular_rep_matrix(dihedral_group(n).element(1, 0))
        assert_array_equal(rho[:n, :n], np.zeros((n, n)))
        assert_array_equal(rho[n:, :n], rho[:n, n:])
        return rho[:n, n:]

    assert_array_equal(blocks(1), [[1.0]])
    assert_array_equal(blocks(2), np.eye(2))
    # fixes indices 0 and 2, swaps 1 and 3
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[2, 2] = expected[1, 3] = expected[3, 1] = 1
    assert_array_equal(blocks(4), expected)


def test_trivial_rep():
    assert_array_equal(trivial_rep(cyclic_group(8)).matrix(cyclic_group(8).element(0, 3)), [[1.0]])
    assert_array_equal(trivial_rep(dihedral_group(4)).matrix(dihedral_group(4).element(1, 2)), [[1.0]])


def test_regular_rep_examples():
    assert_array_equal(regular_rep_matrix(cyclic_group(4).identity()), np.eye(4))
    assert_array_equal(regular_rep_matrix(dihedral_group(1).element(1, 0)), [[0, 1], [1, 0]])
    c4 = cyclic_group(4)
    g = c4.element(0, 1)
    assert_array_equal(
        regular_rep_matrix(g) @ regular_rep_matrix(g), regular_rep_matrix(c4.element(0, 2))
    )


def test_regular_rep_matrix_is_cached_and_read_only():
    for spec in (cyclic_group(4), dihedral_group(1), dihedral_group(3)):
        for g in spec.elements():
            rho = regular_rep_matrix(g)
            assert not rho.flags.writeable
            assert regular_rep_matrix(spec.element(g.i0, g.i1)) is rho
            with pytest.raises(ValueError):
                rho[0, 0] = 2.0
    assert_array_equal(regular_rep_matrix(cyclic_group(4).identity()), np.eye(4))
    assert_array_equal(regular_rep_matrix(dihedral_group(1).element(1, 0)), [[0, 1], [1, 0]])
    d3 = dihedral_group(3)
    expected = np.zeros((6, 6))
    expected[:3, 3:] = expected[3:, :3] = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]  # r + c == 2 (mod 3)
    assert_array_equal(regular_rep_matrix(d3.element(1, 2)), expected)
    expected = np.zeros((6, 6))
    expected[:3, :3] = expected[3:, 3:] = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert_array_equal(regular_rep_matrix(d3.element(0, 1)), expected)


@pytest.mark.parametrize("n", range(1, 13))
def test_regular_rep_columns_are_one_hot_at_the_composed_index(n):
    for spec in (cyclic_group(n), dihedral_group(n)):
        elements = spec.elements()
        for g in elements:
            rho = regular_rep_matrix(g)
            assert rho.flags.c_contiguous and rho.flags.owndata and not rho.flags.writeable
            expected = np.zeros((spec.order, spec.order))
            for h in elements:
                expected[(g * h).index, h.index] = 1.0
            assert_array_equal(rho, expected)


def test_irrep_examples():
    assert_array_equal(irrep(cyclic_group(8), 0, 1).matrix(cyclic_group(8).identity()), np.eye(2))
    got = irrep(cyclic_group(4), 0, 1).matrix(cyclic_group(4).element(0, 1))
    assert_allclose(got, [[0, -1], [1, 0]], atol=1e-15)
    got = irrep(dihedral_group(4), 1, 1).matrix(dihedral_group(4).element(1, 0))
    assert_allclose(got, [[-1, 0], [0, 1]], atol=1e-15)


def test_irrep_frequency_semantics():
    # frequency k rotates by exactly k * (2*pi/N) per rotation step
    for n in (4, 8, 12):
        g = cyclic_group(n).element(0, 1)
        for k in range(1, (n - 1) // 2 + 1):
            a = 2 * np.pi * k / n
            expected = [[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]
            assert_allclose(irrep(g.spec, 0, k).matrix(g), expected, atol=1e-12)


def test_irrep_validation():
    with pytest.raises(ValueError):
        irrep(cyclic_group(4), 1, 1).matrix(cyclic_group(4).element(0, 1))  # j=1 needs reflections
    with pytest.raises(ValueError):
        irrep(cyclic_group(4), 0, 3).matrix(cyclic_group(4).element(0, 1))  # k out of range
    with pytest.raises(ValueError):
        irrep(cyclic_group(4), 0, 5)


def test_rep_dims():
    d4 = dihedral_group(4)
    assert trivial_rep(d4).dim == 1
    assert regular_rep(d4).dim == 8
    assert irrep(d4, 0, 0).dim == 1
    assert irrep(d4, 1, 2).dim == 1
    assert irrep(d4, 0, 1).dim == 2
    assert irrep(cyclic_group(5), 0, 2).dim == 2


def test_homomorphism_exhaustive_d8():
    d8 = dihedral_group(8)
    elements = d8.elements()
    for rep in all_reps(d8):
        for g in elements:
            for h in elements:
                assert_allclose(
                    rep.matrix(g.compose(h)), rep.matrix(g) @ rep.matrix(h), atol=1e-12
                )


def test_orthogonality_c8_d8():
    for spec in (cyclic_group(8), dihedral_group(8)):
        for rep in all_reps(spec):
            for g in spec.elements():
                m = rep.matrix(g)
                assert_allclose(m @ m.T, np.eye(rep.dim), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 64),
    dihedral=st.booleans(),
    kind=st.sampled_from(["trivial", "irrep", "regular"]),
    data=st.data(),
)
def test_homomorphism_and_orthogonality_property(n, dihedral, kind, data):
    spec = dihedral_group(n) if dihedral else cyclic_group(n)
    if kind == "irrep":
        j = data.draw(st.integers(0, spec.reflection_order - 1), label="j")
        rep = irrep(spec, j, data.draw(st.integers(0, n // 2), label="k"))
    else:
        rep = RepSpec(kind, spec)
    element = st.builds(spec.element, st.integers(0, spec.reflection_order - 1), st.integers(0, n - 1))
    g, h = data.draw(element, label="g"), data.draw(element, label="h")
    rho_g, rho_h = rep.matrix(g), rep.matrix(h)
    assert rho_g.shape == (rep.dim, rep.dim)
    assert_allclose(rep.matrix(g.compose(h)), rho_g @ rho_h, rtol=0, atol=1e-12)
    assert_allclose(rep.matrix(spec.identity()), np.eye(rep.dim), rtol=0, atol=0)
    assert_allclose(rho_g @ rho_g.T, np.eye(rep.dim), rtol=0, atol=1e-12)
    assert_allclose(rep.matrix(g.inverse()), rho_g.T, rtol=0, atol=1e-12)


def _first_columns(n, k):
    return irrep_table(cyclic_group(n), 0, k)[:, :, 0]


def test_cyclic_irrep_first_columns_examples():
    assert_array_equal(_first_columns(4, 0), np.ones((4, 1)))
    assert_allclose(_first_columns(4, 2)[:, 0], [1, -1, 1, -1], atol=1e-15)
    assert_allclose(
        _first_columns(4, 1), [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15
    )
    with pytest.raises(ValueError):
        _first_columns(4, 3)
    # the columns take the exact-turn cos/sin of the coordinate maps, bit for bit
    for n in range(1, 33):
        for k in range(n // 2 + 1):
            want = [rotation_cos_sin(k * i, n)[: 1 if 2 * k in (0, n) else 2] for i in range(n)]
            assert _first_columns(n, k).tobytes() == np.array(want).tobytes(), (n, k)


@pytest.mark.parametrize("n", range(1, 33))
@pytest.mark.parametrize("group", [cyclic_group, dihedral_group])
def test_dct_basis_blocks_are_the_irrep_first_columns(group, n):
    spec = group(n)
    basis = group_dct_basis(spec)
    assert [(j, k) for j, k, _ in basis.blocks] == [
        (j, k) for j in range(spec.reflection_order) for k in range(n // 2 + 1)
    ]
    stop = 0
    for j, k, cols in basis.blocks:
        assert cols.start == stop
        stop = cols.stop
        assert basis.matrix[:, cols].tobytes() == irrep_table(spec, j, k)[:, :, 0].tobytes(), (j, k)
    assert basis.matrix.shape == (spec.order, stop)


def test_cyclic_basis_examples():
    assert_array_equal(group_dct_basis(cyclic_group(1)).matrix, [[1.0]])
    assert_allclose(group_dct_basis(cyclic_group(2)).matrix, [[1, 1], [1, -1]], atol=1e-15)
    expected = np.array([[1, 1, 0, 1], [1, 0, 1, -1], [1, -1, 0, 1], [1, 0, -1, -1]], dtype=float)
    assert_allclose(group_dct_basis(cyclic_group(4)).matrix, expected, atol=1e-15)


def test_dihedral_basis_examples():
    assert_allclose(group_dct_basis(dihedral_group(1)).matrix, [[1, 1], [1, -1]], atol=1e-15)
    v2 = group_dct_basis(cyclic_group(2)).matrix
    w2 = group_dct_basis(dihedral_group(2)).matrix
    assert w2.shape == (4, 4)
    assert_allclose(w2[:2, :2], v2, atol=1e-15)
    assert_allclose(w2[2:, 2:], -v2, atol=1e-15)


@pytest.mark.parametrize("n", range(1, 13))
def test_gram_matrices_diagonal(n):
    v = group_dct_basis(cyclic_group(n)).matrix
    gram = v.T @ v
    assert_allclose(gram, np.diag(np.diag(gram)), atol=1e-10)
    for d in np.diag(gram):
        assert min(abs(d - n), abs(d - n / 2)) <= 1e-10
    w = group_dct_basis(dihedral_group(n)).matrix
    gram_w = w.T @ w
    assert_allclose(gram_w, np.diag(np.diag(gram_w)), atol=1e-10)
    for d in np.diag(gram_w):
        assert min(abs(d - 2 * n), abs(d - n)) <= 1e-10


def test_basis_inverse_is_exact():
    for n in (1, 2, 3, 4, 7, 8):
        basis = group_dct_basis(cyclic_group(n))
        assert_allclose(basis.matrix @ basis.inverse(), np.eye(n), atol=1e-12)
        dbasis = group_dct_basis(dihedral_group(n))
        assert_allclose(dbasis.matrix @ dbasis.inverse(), np.eye(2 * n), atol=1e-12)


def test_group_dct_basis_is_cached_and_read_only():
    for group in (cyclic_group, dihedral_group):
        basis = group_dct_basis(group(6))
        assert group_dct_basis(group(6)) is basis
        assert not basis.matrix.flags.writeable
        with pytest.raises(ValueError):
            basis.matrix[0, 0] = 2.0
        # a build past the cache gives a new basis with the same bits
        fresh = group_dct_basis.__wrapped__(group(6))
        assert fresh is not basis
        assert basis.matrix.tobytes() == fresh.matrix.tobytes() and basis.blocks == fresh.blocks


def test_decompose_regular_examples():
    _, d = decompose_regular(cyclic_group(4).identity())
    assert_allclose(d, np.eye(4), atol=1e-15)
    _, d = decompose_regular(cyclic_group(4).element(0, 1))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    expected[1:3, 1:3] = [[0, -1], [1, 0]]
    expected[3, 3] = -1
    assert_allclose(d, expected, atol=1e-15)
    g = dihedral_group(2).element(1, 0)
    basis, d = decompose_regular(g)
    assert_allclose(basis.matrix @ d @ basis.inverse(), regular_rep_matrix(g), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_decomposition_reconstruction(n):
    for spec in (cyclic_group(n), dihedral_group(n)):
        for g in spec.elements():
            basis, d = decompose_regular(g)
            rec = basis.matrix @ d @ basis.inverse()
            assert np.abs(rec - regular_rep_matrix(g)).max() <= 1e-15


def test_intertwiner_examples():
    assert intertwiner_residual(0, cyclic_group(8).element(0, 3)) == 0.0
    # quarter turns and reflections are exact sign and swap steps of rotation_cos_sin
    assert intertwiner_residual(1, cyclic_group(4).element(0, 1)) == 0.0
    assert intertwiner_residual(1, dihedral_group(4).element(1, 0)) == 0.0


def test_irreps_and_intertwiners_are_exact_at_quarter_turns():
    # a quarter-turn multiple k*i1/N is an exact swap and sign step at every k
    for n in range(4, 33, 4):
        spec = dihedral_group(n)
        for g in spec.elements():
            if g.i1 % (n // 4) == 0:
                for k in range(n // 2 + 1):
                    for j in (0, 1):
                        assert set(np.abs(irrep(g.spec, j, k).matrix(g)).ravel()) <= {0.0, 1.0}, (g, j, k)
                    assert intertwiner_residual(k, g) == 0.0, (g, k)


@pytest.mark.parametrize("n", range(1, 13))
def test_intertwiner_exhaustive(n):
    # both groups of order n per case: on C_N the rule reads the whole regular matrix, on D_N g's column block
    for spec in (cyclic_group(n), dihedral_group(n)):
        for g in spec.elements():
            for k in range(n // 2 + 1):
                assert intertwiner_residual(k, g) <= 1e-15, (spec.name, g, k)


def test_rep_spec_validation():
    with pytest.raises(ValueError):
        RepSpec("weird", cyclic_group(4))
    with pytest.raises(ValueError):
        irrep(cyclic_group(4), 1, 1)
    rep = regular_rep(cyclic_group(4))
    with pytest.raises(ValueError):
        rep.matrix(dihedral_group(4).identity())
    # only an irrep takes frequencies: the trivial rep is the (0, 0) irrep, and
    # a tagged (1, 0) trivial rep would build a kernel on the sign block
    d4 = dihedral_group(4)
    for kind, j, k in (("trivial", 1, 0), ("trivial", 0, 7), ("regular", 1, 2)):
        with pytest.raises(ValueError, match=f"a {kind} representation has no frequencies: got j={j}, k={k}"):
            RepSpec(kind, d4, j, k)
    # frequencies are integers: a float or a bool would index the tables or label the irrep
    c8, d8 = cyclic_group(8), dihedral_group(8)
    for make, field in (
        (lambda: irrep(c8, 0, 2.0), "k"),
        (lambda: irrep(d8, True, 0), "j"),
        (lambda: irrep(d8, 1, False), "k"),
        (lambda: RepSpec("trivial", c8, 0.0, 0), "j"),
        (lambda: irrep_table(c8, 0, 1.0), "k"),
        (lambda: intertwiner_residual(1.0, c8.identity()), "k"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            make()
    assert irrep(d8, np.int64(1), np.int32(2)).label() == "irrep:1:2"


def _irrep_formula(g, j, k):
    """The (j, k) irrep at g: (-1)**i1 or 1 for the one-dimensional irreps,
    else the rotation by the exact turn k*i1/N, after diag(1, -1) when g
    reflects; either way scaled by (-1)**(j * i0)."""
    sign = (-1.0) ** (j * g.i0)
    n = g.spec.rotation_order
    if k == 0 or (n % 2 == 0 and k == n // 2):
        rot = (-1.0) ** g.i1 if k != 0 else 1.0
        return np.array([[rot * sign]])
    c, s = rotation_cos_sin(k * g.i1, n)
    rot = np.array([[c, -s], [s, c]])
    if g.i0:
        rot = rot @ np.diag([1.0, -1.0])
    return rot * sign


def test_irrep_table_rows_equal_the_formula():
    for n in range(1, 33):
        for spec in (cyclic_group(n), dihedral_group(n)):
            for j in range(spec.reflection_order):
                for k in range(n // 2 + 1):
                    table = irrep_table(spec, j, k)
                    assert table.shape[0] == spec.order
                    for g in spec.elements():
                        want = _irrep_formula(g, j, k).tobytes()
                        assert irrep(g.spec, j, k).matrix(g).tobytes() == want, (g, j, k)
                        assert table[g.index].tobytes() == want, (g, j, k)


def test_irrep_tables_are_read_only_and_built_once_per_group():
    irrep_table.cache_clear()
    d6 = dihedral_group(6)
    irreps = [(j, k) for j in (0, 1) for k in range(4)]
    for j, k in irreps:
        for g in d6.elements():
            matrix = irrep(g.spec, j, k).matrix(g)
            with pytest.raises(ValueError, match="read-only"):
                matrix[0, 0] = 2.0
        assert not irrep_table(d6, j, k).flags.writeable
        assert irrep_table(dihedral_group(6), j, k) is irrep_table(d6, j, k)
    assert irrep_table.cache_info().misses == len(irreps)


def test_element_tables_of_a_large_group_stay_small():
    # a dense (|G|, |G|, |G|) regular stack of D_128 would take 134 MB
    coordinate_table.cache_clear()
    irrep_table.cache_clear()
    d128 = dihedral_group(128)
    tracemalloc.start()
    try:
        tables = [coordinate_table(d128)]
        tables += [irrep_table(d128, j, k) for j in (0, 1) for k in range(65)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tables) == 131
    assert peak < 2 << 20


def test_first_regular_matrix_of_a_large_group_peaks_at_its_own_size():
    # the one-hot matrix needs only g's row of the group law, not a (|G|, |G|) table
    g = cyclic_group(1500).element(0, 7)
    regular_rep_matrix.cache_clear()
    tracemalloc.start()
    try:
        rho = regular_rep_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        regular_rep_matrix.cache_clear()
    assert rho[7, 0] == 1.0 and rho.sum() == 1500
    assert peak <= 1.5 * rho.nbytes
