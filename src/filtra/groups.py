"""Elements of the reflection, cyclic and dihedral groups and their group law.

An element is a pair (i0, i1): i0 indexes the reflection component, i1 the
rotation component; its `index` i0*N + i1 is its row in the per-group
element tables.  Its action on the plane is its row of `table =
filters.coordinate_table(spec)`, and `table[(h * g).index]` equals
`table[h.index] @ table[g.index]` up to rounding.

`product_indices` and `inverse_indices` evaluate the group law and the
inverse on arrays of element indices, computing only the entries a caller
reads; `GroupElement.compose` stays the scalar rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_GROUP_NAME = re.compile(r"^([cd])([0-9]+)$")


def check_integers(**fields: object) -> None:
    """Reject a bool or non-integral field value, naming it; numpy integer scalars pass."""
    for field, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{field} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GroupSpec:
    """A cyclic group C_N (reflection_order 1) or dihedral group D_N (2)."""

    reflection_order: int
    rotation_order: int

    def __post_init__(self) -> None:
        check_integers(reflection_order=self.reflection_order, rotation_order=self.rotation_order)
        if self.reflection_order not in (1, 2):
            raise ValueError(f"reflection_order must be 1 or 2, got {self.reflection_order}")
        if self.rotation_order < 1:
            raise ValueError(f"rotation_order must be >= 1, got {self.rotation_order}")

    @property
    def order(self) -> int:
        return self.reflection_order * self.rotation_order

    @property
    def name(self) -> str:
        prefix = "c" if self.reflection_order == 1 else "d"
        return f"{prefix}{self.rotation_order}"

    def element(self, i0: int, i1: int) -> GroupElement:
        return GroupElement(i0, i1, self)

    def identity(self) -> GroupElement:
        return GroupElement(0, 0, self)

    def elements(self) -> list[GroupElement]:
        """All elements, i0-major then i1 ascending (regular-rep axis order)."""
        return [
            GroupElement(i0, i1, self)
            for i0 in range(self.reflection_order)
            for i1 in range(self.rotation_order)
        ]


def cyclic_group(n: int) -> GroupSpec:
    return GroupSpec(1, n)


def dihedral_group(n: int) -> GroupSpec:
    return GroupSpec(2, n)


def parse_group(name: str) -> GroupSpec:
    """Parse a group name like 'c8' or 'd4'."""
    m = _GROUP_NAME.match(name.strip().lower())
    if m is None:
        raise ValueError(f"bad group name {name!r}: expected c<N> or d<N>")
    kind, n = m.group(1), int(m.group(2))
    if n < 1:
        raise ValueError(f"bad group name {name!r}: N must be >= 1")
    return cyclic_group(n) if kind == "c" else dihedral_group(n)


@dataclass(frozen=True)
class GroupElement:
    """Element (i0, i1) of the group described by `spec`."""

    i0: int
    i1: int
    spec: GroupSpec

    def __post_init__(self) -> None:
        check_integers(i0=self.i0, i1=self.i1)
        if not 0 <= self.i0 < self.spec.reflection_order:
            raise ValueError(f"reflection index {self.i0} out of range for {self.spec.name}")
        if not 0 <= self.i1 < self.spec.rotation_order:
            raise ValueError(f"rotation index {self.i1} out of range for {self.spec.name}")

    @property
    def index(self) -> int:
        """Position i0*N + i1 in `spec.elements()`, on the regular-rep axis and
        in the per-group element tables."""
        return self.i0 * self.spec.rotation_order + self.i1

    def compose(self, other: GroupElement) -> GroupElement:
        """Group product self * other, `other` acting first on the plane."""
        if other.spec != self.spec:
            raise ValueError(f"cannot compose elements of {self.spec.name} and {other.spec.name}")
        n = self.spec.rotation_order
        i0 = (self.i0 + other.i0) % 2
        sign = -1 if self.i0 else 1
        i1 = (self.i1 + sign * other.i1) % n
        return GroupElement(i0, i1, self.spec)

    def __mul__(self, other: GroupElement) -> GroupElement:
        return self.compose(other)

    def inverse(self) -> GroupElement:
        return self.spec.element(*divmod(int(inverse_indices(self.spec, self.index)), self.spec.rotation_order))

    def __repr__(self) -> str:
        return f"({self.i0},{self.i1})@{self.spec.name}"


def product_indices(spec: GroupSpec, left: int | np.ndarray, right: int | np.ndarray) -> np.ndarray:
    """The indices (h * g).index for element indices h = `left` and
    g = `right`, broadcast against each other; a row for one h costs O(|G|)."""
    n = spec.rotation_order
    h0, h1 = np.divmod(np.asarray(left, dtype=np.intp), n)
    g0, g1 = np.divmod(np.asarray(right, dtype=np.intp), n)
    return (h0 ^ g0) * n + (h1 + np.where(h0, -g1, g1)) % n


def inverse_indices(spec: GroupSpec, indices: int | np.ndarray) -> np.ndarray:
    """The indices g^-1.index for element indices g = `indices`: a reflection
    is its own inverse, and rotation i1 inverts to -i1 mod N."""
    n, indices = spec.rotation_order, np.asarray(indices, dtype=np.intp)
    return np.where(indices < n, -indices % n, indices)
