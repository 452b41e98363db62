"""Executable verification of the steerability constraint, on built kernels
and on the kernel assembly itself, with machine-readable reports.

The kernel-level check compares the filter-transformed kernel against the
representation-conjugated kernel; the feature-level check compares
convolve-then-act against act-then-convolve on the valid crop, the interior
(H - S + 1) x (W - S + 1) pixels whose windows stay inside the map: both
sides are correlated without padding and nothing outside the crop is
computed.  The construction identities run the kernel assembly over free
placeholder stacks, which isolates the representation algebra from any
resampling error.

A family is checked at all of its group's elements in chunks
(`check_kernel_elements`): each chunk resamples every grid through the
chunk's coordinate maps in one `sample_plane` call and conjugates by the
chunk's stacked representation matrices in two batched products, bounded
by CHECK_TILE doubles.  `check_kernel_equivariance` is the same body on a
chunk of one element, and every residual pair is bit-identical either way.
A family's `EquivarianceReport` keeps its per-element rows and its exact set;
the exact-subgroup and full-group maxima are read from those rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .features import FeatureMap, _correlate, act_on_feature_stack
from .filters import coordinate_table, exact_indices, sample_plane
from .groups import GroupElement, GroupSpec, cyclic_group, dihedral_group
from .kernels import (
    SteerableKernel,
    assemble_grids,
    circulant_kernel,
    input_blocks,
    input_reps,
    reverse_kernel,
    steerable_kernel,
)
from .representations import regular_rep_matrix

KERNEL_TOL = 1e-12
FEATURE_TOL = 1e-10
FEATURE_SIDE = 15


# doubles in one chunk of the stacked steer check (128 KiB): a chunk holds as
# many elements as fit, each counting the kernel's grids and its two
# representation matrices there, and never fewer than one.  The chunk's left
# side, mixed grids and right side are each at most that size, and a regular
# representation's matrices, |G| x |G| per element, cannot grow past it.
CHECK_TILE = 1 << 14


def check_kernel_equivariance(kernel: SteerableKernel, g: GroupElement) -> tuple[float, float]:
    """Max-abs and relative residual of the steerability constraint at g.

    The left side applies the coordinate transform to every grid; the right
    side conjugates the grid matrix by the output/input representations.
    """
    # a chunk of one, from views of g's matrices: stacking them with np.array
    # would add about a sixth to a small kernel's check (c16, S = 5)
    rho_out, rho_in = kernel.rep_out.matrix(g), kernel.rep_in.matrix(g)
    maps = coordinate_table(g.spec)[g.index : g.index + 1]
    [residuals] = _steer_residuals(kernel, maps, rho_out[None], rho_in[None])
    return residuals


def check_kernel_elements(
    kernel: SteerableKernel, elements: Sequence[GroupElement]
) -> list[tuple[float, float]]:
    """`check_kernel_equivariance` at each element in order, checked in
    chunks of as many elements as fit in CHECK_TILE doubles.  Every pair
    equals a one-element call bit for bit."""
    do, di = kernel.rep_out.dim, kernel.rep_in.dim
    chunk = max(1, CHECK_TILE // (kernel.grids.size + do * do + di * di))
    results = []
    for start in range(0, len(elements), chunk):
        part = elements[start : start + chunk]
        rho_out = np.array([kernel.rep_out.matrix(g) for g in part])
        rho_in = np.array([kernel.rep_in.matrix(g) for g in part])
        maps = coordinate_table(kernel.group)[[g.index for g in part]]
        results += _steer_residuals(kernel, maps, rho_out, rho_in)
    return results


def _steer_residuals(
    kernel: SteerableKernel, maps: np.ndarray, rho_out: np.ndarray, rho_in: np.ndarray
) -> list[tuple[float, float]]:
    """The steer check at a chunk of n elements, given their stacked
    coordinate maps (n, 2, 2) and representation matrices: one resampling of
    every grid through the n maps and one batched conjugation.  Every product
    and reduction works on one element's values alone, so each residual pair
    is the same whatever the chunk."""
    grids = kernel.grids
    do, di, s, _ = grids.shape
    n = len(maps)
    # (do * di, n, S * S): every grid resampled through each element's map
    lhs = sample_plane(grids, maps, kernel.mode).reshape(do * di, n, s * s)
    # rho_out @ grid matrix @ rho_in^-1 as two matrix products per element;
    # the inverse is the transpose because the representations are orthogonal
    mixed = (rho_out @ grids.reshape(do, di * s * s)).reshape(n, do, di, s * s)
    rhs = (rho_in[:, None] @ mixed).reshape(n, do * di * s * s)
    highs, lows = rhs.max(axis=1).tolist(), rhs.min(axis=1).tolist()
    # in place: lhs is a fresh array, and two more grid-sized temporaries
    # would raise the peak memory of a large kernel's check
    lhs -= rhs.reshape(n, do * di, s * s).transpose(1, 0, 2)
    abs_res = np.abs(lhs, out=lhs).max(axis=(0, 2)).tolist()
    return [_residuals(a, max(hi, -lo)) for a, hi, lo in zip(abs_res, highs, lows)]


def _residuals(abs_res: float, scale: float) -> tuple[float, float]:
    """The max-abs residual and its ratio to `scale`.  A non-finite residual,
    from an overflow or a nan in either side, is reported as (inf, inf): a
    nan would compare false against every tolerance and vanish from a
    running max, so the gate would pass vacuously."""
    if not math.isfinite(abs_res):
        return math.inf, math.inf
    rel_res = 0.0 if abs_res == 0.0 else abs_res / scale if scale > 0.0 else 0.0
    return abs_res, rel_res


def check_feature_equivariance(
    kernel: SteerableKernel, f: FeatureMap, elements: Sequence[GroupElement]
) -> list[tuple[float, float]]:
    """Max-abs and relative residual between conv-then-act and act-then-conv,
    on the valid crop, for each element in order.

    Boundary pixels mix with zero padding under a "same" convolution, so
    both sides keep only the interior (H - S + 1) x (W - S + 1) crop, whose
    windows stay inside the map, and are computed there alone: the acted
    copies of `f` come from one stacked action and are valid-correlated in
    one call; `f` is valid-correlated once and its crop acted on by a second
    stacked action.  An element exact on the grid maps the centred odd crop
    onto itself, so acting on the crop equals cropping the full action; at
    an element that is not exact, the action reads zero outside the crop.
    Both sides correlate with the same band widths, and the action and the
    correlation compute each copy independently of the others, so every
    pair equals a one-element call bit for bit and the identity's is 0.
    """
    if not elements:
        return []
    mode = kernel.mode
    n, (c, h, w) = len(elements), f.data.shape
    acted = act_on_feature_stack(elements, f, mode)
    # two calls: one over f and its copies would first concatenate them
    acted_first = _correlate(kernel, FeatureMap(f.group, f.rep, acted.reshape(n * c, h, w))).data
    acted_last = act_on_feature_stack(elements, _correlate(kernel, f), mode)
    diff = np.abs(acted_first.reshape(acted_last.shape) - acted_last).reshape(n, -1).max(axis=1)
    scale = np.abs(acted_last).reshape(n, -1).max(axis=1)
    return [_residuals(a, s) for a, s in zip(diff.tolist(), scale.tolist())]


def is_exact_element(g: GroupElement, size: int, mode: str) -> bool:
    """Whether g acts on a size x size grid as an exact, composing pixel
    permutation in this mode: whether its index is in `exact_indices`."""
    return g.index in exact_indices(g.spec, size, mode)


def _moved_stack(g: GroupElement, stack: np.ndarray) -> np.ndarray:
    """The (|G|, ...) stack of the base filter transformed by g: a rotation
    rolls both halves by i1; a reflection swaps the halves and reindexes
    entry m by (i1 - m) mod N."""
    n = g.spec.rotation_order
    halves = stack.reshape(g.spec.reflection_order, n, *stack.shape[1:])
    m = np.arange(n)
    moved = halves[::-1, (g.i1 - m) % n] if g.i0 else halves[:, (m - g.i1) % n]
    return moved.reshape(stack.shape)


def verify_construction_identities(n: int) -> dict[str, float]:
    """The kernel assembly checked as pure matrix algebra, on free random
    placeholder stacks of 1x1 grids drawn at the fixed seed 7: the max over g of
    |assemble(g . stacks) - rho_reg(g) @ assemble(stacks) @ rho_in(g).T|, per group
    and input kind, e.g. "dihedral-irrep".  All should sit at machine precision."""
    rng = np.random.default_rng(7)
    results: dict[str, float] = {}
    for spec in (cyclic_group(n), dihedral_group(n)):
        family = "cyclic" if spec.reflection_order == 1 else "dihedral"
        for rep in input_reps(spec):
            stacks = [rng.uniform(-1.0, 1.0, (spec.order, 1, 1)) for _ in input_blocks(rep)]
            grids = assemble_grids(rep, stacks)[:, :, 0, 0]
            label = f"{family}-{rep.kind}"
            for g in spec.elements():
                moved = assemble_grids(rep, [_moved_stack(g, s) for s in stacks])[:, :, 0, 0]
                conjugated = regular_rep_matrix(g) @ grids @ rep.matrix(g).T
                residual = float(np.abs(moved - conjugated).max())
                results[label] = max(results.get(label, 0.0), residual)
    return results


def kernel_families(
    group: GroupSpec, size: int, mode: str, rng: np.random.Generator
) -> list[tuple[str, SteerableKernel]]:
    """One seeded kernel per construction available on the group, and its reverse."""

    def draw() -> np.ndarray:
        return rng.uniform(-1.0, 1.0, (size, size))

    families = []
    for rep in input_reps(group):
        label = {"trivial": "triv2reg", "regular": "reg2reg"}.get(rep.kind)
        bases = [draw() for _ in input_blocks(rep)]
        kernel = steerable_kernel(rep, bases, mode)
        families.append((label or f"irrep2reg:j{rep.j}:k{rep.k}", kernel))
    if group.reflection_order == 1:
        families.append(("orn", circulant_kernel(draw(), group.rotation_order, mode)))
    return families + [(f"rev:{label}", reverse_kernel(kern)) for label, kern in families]


@dataclass(frozen=True)
class EquivarianceReport:
    """Per-kernel equivariance residuals over every group element, with the
    indices `exact` of the elements exact on the kernel's grid; both kernel
    maxima are read from those rows, 0.0 over no rows."""

    kernel_kind: str
    group: GroupSpec
    size: int
    mode: str
    per_element: tuple[tuple[GroupElement, float, float], ...]
    exact: frozenset[int]
    feature_exact_max: float

    @property
    def exact_subgroup_max(self) -> float:
        return max((a for g, a, _ in self.per_element if g.index in self.exact), default=0.0)

    @property
    def full_group_max(self) -> float:
        return max((a for _, a, _ in self.per_element), default=0.0)

    def passed(self) -> bool:
        return self.exact_subgroup_max <= KERNEL_TOL and self.feature_exact_max <= FEATURE_TOL


def check_family(label: str, kernel: SteerableKernel, f: FeatureMap) -> EquivarianceReport:
    """Check one kernel at every group element, and on the valid crop of the
    square feature map `f` at the elements exact on both the kernel's grid
    and f's grid."""
    if f.height != f.width:
        raise ValueError(f"feature map must be square, got spatial shape {f.height}x{f.width}")
    group, size, mode = kernel.group, kernel.size, kernel.mode
    elements = group.elements()
    exact = exact_indices(group, size, mode)
    per_element = tuple((g, *res) for g, res in zip(elements, check_kernel_elements(kernel, elements)))
    # the feature grid, and so its centred valid crop where the feature check
    # compares the two sides, must map onto itself too: a 3x3 kernel grid
    # can have exact elements that the larger grid has not
    feature_exact = exact & exact_indices(group, f.height, mode)
    feature_elements = [g for g in elements if g.index in feature_exact]
    feature_max = max((a for a, _ in check_feature_equivariance(kernel, f, feature_elements)), default=0.0)
    return EquivarianceReport(label, group, size, mode, per_element, exact, feature_max)


def run_suite(
    groups: Sequence[GroupSpec], sizes: Sequence[int], modes: Sequence[str], seed: int
) -> list[EquivarianceReport]:
    """Check every kernel family built from seeded random base filters, for
    each group, filter size and mode in turn.

    Kernel-level residuals are evaluated at every group element; the
    feature-level check runs on one random feature map at the exact elements.
    Deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for group in groups:
        for size in sizes:
            for mode in modes:
                for label, kernel in kernel_families(group, size, mode, rng):
                    shape = (kernel.rep_in.dim, FEATURE_SIDE, FEATURE_SIDE)
                    fdata = rng.uniform(-1.0, 1.0, shape)
                    reports.append(check_family(label, kernel, FeatureMap(group, kernel.rep_in, fdata)))
    return reports


def reports_to_csv(reports: list[EquivarianceReport]) -> str:
    lines = ["kind,group,S,mode,i0,i1,abs_residual,rel_residual"]
    for r in reports:
        for g, abs_res, rel_res in r.per_element:
            lines.append(
                f"{r.kernel_kind},{r.group.name},{r.size},{r.mode},{g.i0},{g.i1},"
                f"{abs_res:.17g},{rel_res:.17g}"
            )
    return "\n".join(lines) + "\n"
