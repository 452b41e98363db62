"""Steerable kernels built by filter transform: (dim_out, dim_in, S, S) grid
matrices tagged with their input and output representations, on one group.

Every filter-transform kernel comes from `steerable_kernel`, keyed on the
input representation and always mapping to the regular one:
`filters.filter_transform` stacks each base filter's |G| copies, and one
assembly weights each stack by its irrep block's columns of the group's DCT
basis (`group_dct_basis`, built once per group and shared) and, for a
regular input, mixes the blocks by the inverse basis.  The irrep blocks, and
their order, are read from that basis.  Two dihedral constructors remain
here, not exported from `filtra`, as calls into it for the benchmark's
forward stack.  Also here: reversed kernels, the circulant baseline and
weight-capacity accounting.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .filters import check_filter_grid, filter_transform
from .groups import GroupSpec, check_integers, cyclic_group, dihedral_group
from .representations import RepSpec, group_dct_basis, irrep, regular_rep, trivial_rep


@dataclass(frozen=True)
class SteerableKernel:
    rep_in: RepSpec
    rep_out: RepSpec
    grids: np.ndarray  # (dim_out, dim_in, S, S)
    mode: str

    def __post_init__(self) -> None:
        if self.rep_out.spec != self.rep_in.spec:
            raise ValueError("kernel representations must live on one group")
        do, di, s1, s2 = self.grids.shape
        if (do, di) != (self.rep_out.dim, self.rep_in.dim):
            raise ValueError(
                f"grid matrix is {do}x{di}, expected {self.rep_out.dim}x{self.rep_in.dim}"
            )
        if s1 != s2 or s1 % 2 == 0:
            raise ValueError(f"filter grids must be square with odd side, got {s1}x{s2}")
        self.grids.setflags(write=False)

    @property
    def size(self) -> int:
        return self.grids.shape[-1]


def input_blocks(rep_in: RepSpec) -> list[tuple[int, int, slice]]:
    """The (j, k, column slice) irrep blocks of rep_in, in `group_dct_basis`
    order.  A kernel from rep_in takes one base filter per block."""
    blocks = group_dct_basis(rep_in.spec).blocks
    if rep_in.kind == "regular":
        return list(blocks)
    # the trivial rep is the (0, 0) irrep
    return [block for block in blocks if block[:2] == (rep_in.j, rep_in.k)]


def input_reps(spec: GroupSpec) -> list[RepSpec]:
    """Trivial, then the irreps in `group_dct_basis` block order, then regular."""
    irreps = (irrep(spec, j, k) for j, k, _ in group_dct_basis(spec).blocks)
    return [trivial_rep(spec), *irreps, regular_rep(spec)]


def assemble_grids(rep_in: RepSpec, stacks: Iterable[np.ndarray]) -> np.ndarray:
    """(|G|, dim_in, S, S) grids of the kernel from rep_in to the regular rep,
    from one (|G|, S, S) stack per irrep block of rep_in: each stack is
    scaled by its block's columns of the group's DCT basis, and the blocks of
    a regular input are then mixed by the inverse basis."""
    basis = group_dct_basis(rep_in.spec)
    blocks = [
        stack[:, None] * basis.matrix[:, cols, None, None]
        for (_, _, cols), stack in zip(input_blocks(rep_in), stacks, strict=True)
    ]
    if rep_in.kind != "regular":
        return blocks[0]
    # right-multiply the filter-valued matrix: scalar combinations of grids
    return np.einsum("oihw,ij->ojhw", np.concatenate(blocks, axis=1), basis.inverse())


def steerable_kernel(
    rep_in: RepSpec, bases: list[np.ndarray], mode: str = "bilinear"
) -> SteerableKernel:
    """The filter-transform kernel from rep_in to the regular representation,
    from one base filter per irrep block of rep_in, all of one size."""
    spec = rep_in.spec
    count = len(input_blocks(rep_in))
    if len(bases) != count:
        plural = "" if count == 1 else "s"
        raise ValueError(f"expected {count} base filter{plural} for {spec.name}, got {len(bases)}")
    sizes = {check_filter_grid(b).shape[0] for b in bases}
    if len(sizes) != 1:
        raise ValueError(f"base filters must share one size, got sides {sorted(sizes)}")
    # a generator: each stack is freed once its block is scaled
    grids = assemble_grids(rep_in, (filter_transform(b, spec, mode) for b in bases))
    return SteerableKernel(rep_in, regular_rep(spec), grids, mode)


def trivial_to_regular_dihedral(base: np.ndarray, n: int, mode: str = "bilinear") -> SteerableKernel:
    """2N x 1 kernel whose rows are the D_N filter transform of the base filter.
    Not exported from `filtra`; kept for the benchmark's forward stack until it builds with `steerable_kernel`."""
    return steerable_kernel(trivial_rep(dihedral_group(n)), [base], mode)


def regular_to_regular_dihedral(
    bases: list[np.ndarray], n: int, mode: str = "bilinear"
) -> SteerableKernel:
    """2N x 2N kernel from one base filter per (j, k), j-major, k ascending.
    Not exported from `filtra`; kept for the benchmark's forward stack until it builds with `steerable_kernel`."""
    return steerable_kernel(regular_rep(dihedral_group(n)), bases, mode)


def reverse_kernel(kernel: SteerableKernel) -> SteerableKernel:
    """Transpose the filter-valued matrix and swap the representation tags.

    Valid because all representations here are orthogonal, so the transposed
    kernel steers the reversed direction.
    """
    grids = np.ascontiguousarray(np.transpose(kernel.grids, (1, 0, 2, 3)))
    return SteerableKernel(kernel.rep_out, kernel.rep_in, grids, kernel.mode)


def circulant_kernel(base: np.ndarray, n: int, mode: str = "bilinear") -> SteerableKernel:
    """Single-filter circulant baseline: entry (i, j) is the rotated copy at
    stack index (2*i - j) mod N.

    The circulant channel offset (i - j) is materialized in the frame of
    output orientation i, which shifts the index by a further i; this is the
    layout under which the kernel steers regular to regular.
    """
    spec = cyclic_group(n)
    stack = filter_transform(base, spec, mode)
    idx = (2 * np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return SteerableKernel(regular_rep(spec), regular_rep(spec), stack[idx], mode)


CAPACITY_KINDS = ("reg2reg", "orn")


@dataclass(frozen=True)
class CapacityReport:
    kernel_kind: str
    independent_weights: int
    stored_filter_scalars: int


def capacity_report(n: int, size: int, kind: str) -> CapacityReport:
    """Free-weight versus stored-scalar counts for an N x N regular-to-regular
    kernel of the given construction."""
    if kind not in CAPACITY_KINDS:
        raise ValueError(f"unknown capacity kind {kind!r}: expected one of {CAPACITY_KINDS}")
    check_integers(n=n, size=size)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if size < 1 or size % 2 == 0:
        raise ValueError(f"size must be a positive odd integer, got {size}")
    stored = n * n * size * size
    independent = (n // 2 + 1) * size * size if kind == "reg2reg" else size * size
    return CapacityReport(kind, independent, stored)
