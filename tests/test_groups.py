import numpy as np
import pytest

from filtra.groups import GroupSpec, cyclic_group, dihedral_group, inverse_indices, parse_group, product_indices


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(3, 4)
    with pytest.raises(ValueError):
        GroupSpec(1, 0)
    for reflection_order, rotation_order, field in ((1, True, "rotation_order"), (1.0, 4, "reflection_order"), (2, 8.0, "rotation_order")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            GroupSpec(reflection_order, rotation_order)
    assert GroupSpec(np.int64(2), np.int32(3)) == dihedral_group(3)
    assert cyclic_group(8).order == 8
    assert dihedral_group(8).order == 16


def test_parse_group():
    assert parse_group("c8") == cyclic_group(8)
    assert parse_group("d4") == dihedral_group(4)
    assert parse_group("D1") == dihedral_group(1)
    # Unicode decimal digits that `int` would read: c3, d8 and, from a typo, c80
    for bad in ("e4", "c", "c0", "4", "cd4", "c\u0663", "d\uff18", "c8\u0660"):
        with pytest.raises(ValueError):
            parse_group(bad)


def test_element_validation():
    c8 = cyclic_group(8)
    with pytest.raises(ValueError):
        c8.element(1, 0)  # no reflections in a cyclic group
    with pytest.raises(ValueError):
        c8.element(0, 8)
    # an index is an integer: 1.0 would hash equal to 1 in the caches and fail as a numpy index
    for i0, i1, field in ((0, 1.0, "i1"), (0.0, 1, "i0"), (False, 1, "i0"), (0, True, "i1"), (0, np.float64(2), "i1")):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            c8.element(i0, i1)
    assert c8.element(np.int64(0), np.int32(3)) == c8.element(0, 3)


def test_enumerate_order():
    assert [(g.i0, g.i1) for g in cyclic_group(2).elements()] == [(0, 0), (0, 1)]
    assert [(g.i0, g.i1) for g in dihedral_group(1).elements()] == [(0, 0), (1, 0)]
    assert [(g.i0, g.i1) for g in dihedral_group(2).elements()] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_compose_examples():
    c8 = cyclic_group(8)
    assert c8.identity().compose(c8.element(0, 3)) == c8.element(0, 3)
    d4 = dihedral_group(4)
    # reflections are involutions
    assert d4.element(1, 1).compose(d4.element(1, 1)) == d4.identity()
    assert d4.element(0, 1).compose(d4.element(1, 0)) == d4.element(1, 1)


def test_compose_spec_mismatch():
    with pytest.raises(ValueError):
        cyclic_group(4).identity().compose(cyclic_group(8).identity())


def test_inverse_examples():
    c8 = cyclic_group(8)
    assert c8.identity().inverse() == c8.identity()
    assert c8.element(0, 3).inverse() == c8.element(0, 5)
    d8 = dihedral_group(8)
    assert d8.element(1, 2).inverse() == d8.element(1, 2)
    assert d8.element(1, 2).compose(d8.element(1, 2)) == d8.identity()


def test_group_laws_exhaustive_d8():
    d8 = dihedral_group(8)
    elements = d8.elements()
    identity = d8.identity()
    for g in elements:
        assert g.compose(identity) == g
        assert identity.compose(g) == g
        assert g.compose(g.inverse()) == identity
        assert g.inverse().compose(g) == identity
    for a in elements:
        for b in elements:
            for c in elements:
                assert a.compose(b).compose(c) == a.compose(b.compose(c))


@pytest.mark.parametrize("n", range(1, 33))
def test_element_index_is_position_in_elements(n):
    for spec in (cyclic_group(n), dihedral_group(n)):
        elements = spec.elements()
        assert [g.index for g in elements] == list(range(spec.order))
        assert all(g.index == elements.index(g) for g in elements)


@pytest.mark.parametrize("n", range(1, 17))
def test_product_table_is_the_scalar_compose(n):
    for spec in (cyclic_group(n), dihedral_group(n)):
        elements = spec.elements()
        expected = np.array([[(h * g).index for g in elements] for h in elements])
        every = np.arange(spec.order)
        table = product_indices(spec, every[:, None], every)
        assert table.dtype == np.intp and table.shape == (spec.order, spec.order)
        assert np.array_equal(table, expected)
        inverses = inverse_indices(spec, every)
        assert np.array_equal(product_indices(spec, every, inverses), np.zeros_like(every))  # the identity
        assert np.array_equal(product_indices(spec, inverses, every), np.zeros_like(every))
        for g in elements:
            assert product_indices(spec, g.index, g.inverse().index) == 0  # the identity
            assert np.array_equal(product_indices(spec, g.index, every), expected[g.index])
            assert np.array_equal(product_indices(spec, every, g.index), expected[:, g.index])
