"""Trivial, regular and irreducible representations, tagged by `RepSpec`
and evaluated at an element by `RepSpec.matrix`, and the DCT basis that
decomposes a group's regular representation into irreps: one per group,
`group_dct_basis(spec)`, built once and read-only.

All representations used here are real and orthogonal.  The regular
representation of g is the 0/1 permutation matrix of the group law on
coordinates indexed by group elements: column h is the unit vector at g * h,
computed for g's row alone by `groups.product_indices`.

Each irrep is one read-only (|G|, d, d) table, d <= 2, built once per group
by `irrep_table` from `filters.coordinate_table`, and the DCT basis is those
tables' first columns, so the irreps, the DCT columns and the resampling share
one set of exact turns; an irrep at g is its table's row `g.index`, and for
N >= 3 the (0, 1) table is `coordinate_table`.
The trivial representation is the (0, 0) irrep, whose rows are exactly 1.
Regular matrices are |G| x |G| each, so they are built and cached per element
instead: a table of them would hold |G|**3 values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .filters import coordinate_table
from .groups import GroupElement, GroupSpec, check_integers, product_indices


@functools.lru_cache(maxsize=128)
def regular_rep_matrix(g: GroupElement) -> np.ndarray:
    """Permutation matrix of g acting on coordinates indexed by group elements,
    column h one-hot at `product_indices(g.spec, g.index, h)`, the index of g * h.

    Built once per element and kept in a cache of the last 128 elements used,
    so the array is read-only.
    """
    order = g.spec.order
    out = np.zeros((order, order))
    columns = np.arange(order)
    out[product_indices(g.spec, g.index, columns), columns] = 1.0
    out.setflags(write=False)
    return out


def irrep_dim(spec: GroupSpec, k: int) -> int:
    return 1 if k == 0 or 2 * k == spec.rotation_order else 2


def _check_frequencies(spec: GroupSpec, j: int, k: int) -> None:
    check_integers(j=j, k=k)
    if j not in (0, 1):
        raise ValueError(f"reflection frequency j must be 0 or 1, got {j}")
    if spec.reflection_order == 1 and j != 0:
        raise ValueError(f"{spec.name} has no reflections: j must be 0")
    if not 0 <= k <= spec.rotation_order // 2:
        raise ValueError(f"rotation frequency k={k} out of range 0..{spec.rotation_order // 2}")


# a D_N has at most N + 2 irreps (j in {0, 1}, k in 0..N/2): room for every irrep of
# a D_128 and then some, each table |G| matrices of at most 2 x 2
@functools.lru_cache(maxsize=256, typed=True)  # typed: a float or bool j, k misses and is rejected
def irrep_table(spec: GroupSpec, j: int, k: int) -> np.ndarray:
    """The (|G|, d, d) matrices of the (j, k) irrep at every element, row
    `g.index` for g, read-only: row i0*N + (k*i1 mod N) of `coordinate_table`,
    scaled by (-1)**(j*i0) and cut to d x d, so 1-dim irreps are exactly 1 or (-1)**i1."""
    _check_frequencies(spec, j, k)
    n = spec.rotation_order
    i0, i1 = np.divmod(np.arange(spec.order), n)
    d = irrep_dim(spec, k)
    table = coordinate_table(spec)[i0 * n + k * i1 % n, :d, :d] * (-1.0) ** (j * i0)[:, None, None]
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class RepSpec:
    """Tag for a trivial, irreducible or regular representation of a group;
    only an irrep takes frequencies (j, k), and trivial reads those of (0, 0)."""

    kind: str  # "trivial" | "irrep" | "regular"
    spec: GroupSpec
    j: int = 0
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("trivial", "irrep", "regular"):
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if self.kind != "irrep" and (self.j, self.k) != (0, 0):
            raise ValueError(f"a {self.kind} representation has no frequencies: got j={self.j}, k={self.k}")
        _check_frequencies(self.spec, self.j, self.k)

    @property
    def dim(self) -> int:
        return self.spec.order if self.kind == "regular" else irrep_dim(self.spec, self.k)

    def matrix(self, g: GroupElement) -> np.ndarray:
        if g.spec != self.spec:
            raise ValueError(f"element of {g.spec.name} fed to a {self.spec.name} representation")
        if self.kind == "regular":
            return regular_rep_matrix(g)
        return irrep_table(g.spec, self.j, self.k)[g.index]

    def label(self) -> str:
        if self.kind == "irrep":
            return f"irrep:{self.j}:{self.k}"
        return self.kind


def trivial_rep(spec: GroupSpec) -> RepSpec:
    return RepSpec("trivial", spec)


def irrep(spec: GroupSpec, j: int, k: int) -> RepSpec:
    return RepSpec("irrep", spec, j, k)


def regular_rep(spec: GroupSpec) -> RepSpec:
    return RepSpec("regular", spec)


@dataclass(frozen=True)
class DctBasis:
    """Column-block basis relating a regular representation to irreps.

    `blocks` lists (j, k, column slice) per irrep block, whose row h is the
    first column of the (j, k) irrep at h.  Columns are orthogonal but
    unnormalized: the Gram matrix is diagonal, so the inverse is the transpose
    scaled by the inverse column norms.
    """

    matrix: np.ndarray
    blocks: tuple[tuple[int, int, slice], ...]

    def inverse(self) -> np.ndarray:
        norms = np.sum(self.matrix * self.matrix, axis=0)
        return self.matrix.T / norms[:, None]


@functools.lru_cache(maxsize=64)
def group_dct_basis(spec: GroupSpec) -> DctBasis:
    """The DCT basis of the group, built once per group; its matrix is read-only.

    Column block (j, k) is `irrep_table(spec, j, k)[:, :, 0]`, the (j, k)
    irrep's first columns over the group, blocks j-major and k ascending: all
    ones at k = 0, alternating signs at k = N/2, and otherwise [cos, sin] of
    the turns k*i1/N, negated on reflections when j = 1."""
    keys = [(j, k) for j in range(spec.reflection_order) for k in range(spec.rotation_order // 2 + 1)]
    columns = [irrep_table(spec, j, k)[:, :, 0] for j, k in keys]
    stops = np.cumsum([c.shape[1] for c in columns]).tolist()
    matrix = np.hstack(columns)
    matrix.setflags(write=False)
    blocks = ((j, k, slice(stop - c.shape[1], stop)) for (j, k), c, stop in zip(keys, columns, stops))
    return DctBasis(matrix, tuple(blocks))


def decompose_regular(g: GroupElement) -> tuple[DctBasis, np.ndarray]:
    """Basis and block-diagonal irrep direct sum D with
    regular_rep_matrix(g) == basis @ D @ basis.inverse(): the (j, k) irrep at g
    fills D at the rows and columns of the basis block holding its first columns."""
    basis = group_dct_basis(g.spec)
    d = np.zeros(basis.matrix.shape)
    for j, k, cols in basis.blocks:
        d[cols, cols] = irrep_table(g.spec, j, k)[g.index]
    return basis, d


def intertwiner_residual(k: int, g: GroupElement) -> float:
    """Largest deviation from irrep(j, k)(g) @ B.T == B.T @ regular_rep_matrix(g)
    over each j of g's group, B the (j, k) block of its DCT basis: one rule for
    rotations and reflections, as column h of B.T is irrep(j, k)(h)'s first."""
    _check_frequencies(g.spec, 0, k)
    basis = group_dct_basis(g.spec)
    return float(max(
        np.abs(irrep_table(g.spec, j, k)[g.index] @ b.T - b.T @ regular_rep_matrix(g)).max()
        for j, block_k, cols in basis.blocks if block_k == k
        for b in [basis.matrix[:, cols]]
    ))
