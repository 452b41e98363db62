"""Steerable kernel constructors built by filter transform.

A steerable kernel is a dim_out x dim_in matrix of filter grids, stored as a
(dim_out, dim_in, S, S) array together with its input and output
representation tags.  Constructors cover trivial-to-regular,
irrep-to-regular and regular-to-regular kernels for cyclic and dihedral
groups, reversed (transposed) kernels, and the single-filter circulant
baseline, plus weight-capacity accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import (
    FilterStack,
    check_filter_grid,
    check_mode,
    reflected_rotation_stack,
    rotation_stack,
)
from .groups import GroupSpec
from .representations import (
    RepSpec,
    dct_basis_cyclic,
    dct_basis_dihedral,
    frequency_columns,
    irrep,
    regular_rep,
    trivial_rep,
)


def _check_same_size(bases: list[np.ndarray]) -> None:
    sizes = {check_filter_grid(b).shape[0] for b in bases}
    if len(sizes) != 1:
        raise ValueError(f"base filters must share one size, got sides {sorted(sizes)}")


@dataclass(frozen=True)
class SteerableKernel:
    group: GroupSpec
    rep_in: RepSpec
    rep_out: RepSpec
    grids: np.ndarray  # (dim_out, dim_in, S, S)
    mode: str

    def __post_init__(self) -> None:
        if self.rep_in.spec != self.group or self.rep_out.spec != self.group:
            raise ValueError("kernel representations must live on the kernel's group")
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


def trivial_to_regular_cyclic(base: np.ndarray, n: int, mode: str = "bilinear") -> SteerableKernel:
    """N x 1 kernel whose rows are the rotation stack of the base filter."""
    stack = rotation_stack(base, n, mode)
    grids = stack.entries[:, None]
    spec = GroupSpec(1, n)
    return SteerableKernel(spec, trivial_rep(spec), regular_rep(spec), grids, mode)


def trivial_to_regular_dihedral(base: np.ndarray, n: int, mode: str = "bilinear") -> SteerableKernel:
    """2N x 1 kernel: the rotation stack above the reflected rotation stack."""
    stack = rotation_stack(base, n, mode)
    rstack = reflected_rotation_stack(base, n, mode)
    grids = np.concatenate([stack.entries, rstack.entries])[:, None]
    spec = GroupSpec(2, n)
    return SteerableKernel(spec, trivial_rep(spec), regular_rep(spec), grids, mode)


def _scaled_stack(stack: FilterStack, n: int, k: int) -> np.ndarray:
    # (N, d(k), S, S): row m holds stack entry m scaled by each frequency column
    cols = frequency_columns(n, k)
    return stack.entries[:, None] * cols[:, :, None, None]


def irrep_to_regular_cyclic(
    base: np.ndarray, n: int, k: int, mode: str = "bilinear", reflected: bool = False
) -> SteerableKernel:
    """N x dim(k) kernel: row m is the m-th rotated filter scaled by the
    frequency-k cosine/sine values at angle index m.

    With `reflected` the rotation stack of the reflected base is used instead.
    """
    stack = (reflected_rotation_stack if reflected else rotation_stack)(base, n, mode)
    spec = GroupSpec(1, n)
    grids = _scaled_stack(stack, n, k)
    return SteerableKernel(spec, irrep(spec, 0, k), regular_rep(spec), grids, mode)


def irrep_to_regular_dihedral(
    base: np.ndarray, n: int, j: int, k: int, mode: str = "bilinear"
) -> SteerableKernel:
    """2N x dim(k) kernel: the cyclic irrep kernel stacked above (-1)**j times
    its reflected-stack counterpart."""
    if j not in (0, 1):
        raise ValueError(f"reflection frequency j must be 0 or 1, got {j}")
    top = irrep_to_regular_cyclic(base, n, k, mode, reflected=False)
    bottom = irrep_to_regular_cyclic(base, n, k, mode, reflected=True)
    grids = np.concatenate([top.grids, (-1.0) ** j * bottom.grids])
    spec = GroupSpec(2, n)
    return SteerableKernel(spec, irrep(spec, j, k), regular_rep(spec), grids, mode)


def _mix_columns(grids: np.ndarray, mix: np.ndarray) -> np.ndarray:
    # right-multiply the filter-valued matrix: scalar linear combinations of grids
    return np.einsum("oihw,ij->ojhw", grids, mix)


def regular_to_regular_cyclic(
    bases: list[np.ndarray], n: int, mode: str = "bilinear"
) -> SteerableKernel:
    """N x N kernel from one base filter per rotation frequency.

    The irrep kernels are concatenated column-wise and mixed by the inverse
    of the cyclic DCT basis.
    """
    expected = n // 2 + 1
    if len(bases) != expected:
        raise ValueError(f"expected {expected} base filters for n={n}, got {len(bases)}")
    _check_same_size(bases)
    check_mode(mode)
    blocks = [irrep_to_regular_cyclic(b, n, k, mode).grids for k, b in enumerate(bases)]
    grids = _mix_columns(np.concatenate(blocks, axis=1), dct_basis_cyclic(n).inverse())
    spec = GroupSpec(1, n)
    return SteerableKernel(spec, regular_rep(spec), regular_rep(spec), grids, mode)


def regular_to_regular_dihedral(
    bases: list[np.ndarray], n: int, mode: str = "bilinear"
) -> SteerableKernel:
    """2N x 2N kernel from one base filter per (reflection, rotation) frequency,
    ordered j-major with k ascending."""
    per_j = n // 2 + 1
    if len(bases) != 2 * per_j:
        raise ValueError(f"expected {2 * per_j} base filters for n={n}, got {len(bases)}")
    _check_same_size(bases)
    check_mode(mode)
    blocks = []
    for idx, b in enumerate(bases):
        j, k = divmod(idx, per_j)
        blocks.append(irrep_to_regular_dihedral(b, n, j, k, mode).grids)
    grids = _mix_columns(np.concatenate(blocks, axis=1), dct_basis_dihedral(n).inverse())
    spec = GroupSpec(2, n)
    return SteerableKernel(spec, regular_rep(spec), regular_rep(spec), grids, mode)


def reverse_kernel(kernel: SteerableKernel) -> SteerableKernel:
    """Transpose the filter-valued matrix and swap the representation tags.

    Valid because all representations here are orthogonal, so the transposed
    kernel steers the reversed direction.
    """
    grids = np.ascontiguousarray(np.transpose(kernel.grids, (1, 0, 2, 3)))
    return SteerableKernel(kernel.group, kernel.rep_out, kernel.rep_in, grids, kernel.mode)


def circulant_kernel(base: np.ndarray, n: int, mode: str = "bilinear") -> SteerableKernel:
    """Single-filter circulant baseline: entry (i, j) is the rotated copy at
    stack index (2*i - j) mod N.

    The circulant channel offset (i - j) is materialized in the frame of
    output orientation i, which shifts the index by a further i; this is the
    layout under which the kernel steers regular to regular.
    """
    stack = rotation_stack(base, n, mode)
    idx = (2 * np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    grids = stack.entries[idx]
    spec = GroupSpec(1, n)
    return SteerableKernel(spec, regular_rep(spec), regular_rep(spec), grids, mode)


CAPACITY_KINDS = ("reg2reg", "orn")


@dataclass(frozen=True)
class CapacityReport:
    kernel_kind: str
    independent_weights: int
    stored_filter_scalars: int

    def __post_init__(self) -> None:
        if self.independent_weights > self.stored_filter_scalars:
            raise ValueError("independent weights cannot exceed stored scalars")


def capacity_report(n: int, size: int, kind: str) -> CapacityReport:
    """Free-weight versus stored-scalar counts for an N x N regular-to-regular
    kernel of the given construction."""
    if kind not in CAPACITY_KINDS:
        raise ValueError(f"unknown capacity kind {kind!r}: expected one of {CAPACITY_KINDS}")
    stored = n * n * size * size
    independent = (n // 2 + 1) * size * size if kind == "reg2reg" else size * size
    return CapacityReport(kind, independent, stored)
