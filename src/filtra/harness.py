"""Executable verification of the steerability constraint and of the identity
chains behind every kernel construction, with machine-readable reports.

The kernel-level check compares the filter-transformed kernel against the
representation-conjugated kernel; the feature-level check compares
convolve-then-act against act-then-convolve on an interior crop.  The
identity chains are run over free placeholder vectors, which isolates the
representation algebra from any resampling error.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .features import FeatureMap, act_on_feature_stack, conv2d
from .filters import coordinate_matrix, rotation_cos_sin, sample_plane
from .groups import GroupElement, GroupSpec, cyclic_group, dihedral_group
from .kernels import (
    SteerableKernel,
    circulant_kernel,
    irrep_to_regular_cyclic,
    irrep_to_regular_dihedral,
    regular_to_regular_cyclic,
    regular_to_regular_dihedral,
    reverse_kernel,
    trivial_to_regular_cyclic,
    trivial_to_regular_dihedral,
)
from .representations import (
    dct_basis_cyclic,
    dct_basis_dihedral,
    frequency_columns,
    irrep_matrix,
    reflection_permutation,
    regular_rep_matrix,
    rotation_permutation,
)

KERNEL_TOL = 1e-12
FEATURE_TOL = 1e-10
IDENTITY_TOL = 1e-12


def check_kernel_equivariance(kernel: SteerableKernel, g: GroupElement) -> tuple[float, float]:
    """Max-abs and relative residual of the steerability constraint at g.

    The left side applies the coordinate transform to every grid; the right
    side conjugates the grid matrix by the output/input representations.
    """
    grids = kernel.grids
    do, di, s, _ = grids.shape
    lhs = sample_plane(grids, coordinate_matrix(g), kernel.mode)
    # rho_out @ grid matrix @ rho_in^-1 as two matrix products; the inverse
    # is the transpose because the representations are orthogonal
    mixed = (kernel.rep_out.matrix(g) @ grids.reshape(do, di * s * s)).reshape(do, di, s * s)
    rhs = (kernel.rep_in.matrix(g) @ mixed).reshape(grids.shape)
    # in place: lhs is a fresh array, and two more grid-sized temporaries
    # would raise the peak memory of a large kernel's check
    lhs -= rhs
    abs_res = float(np.abs(lhs, out=lhs).max())
    scale = float(max(rhs.max(), -rhs.min()))
    rel_res = 0.0 if abs_res == 0.0 else abs_res / scale if scale > 0.0 else 0.0
    return abs_res, rel_res


def check_feature_equivariance(
    kernel: SteerableKernel, f: FeatureMap, elements: Sequence[GroupElement]
) -> list[tuple[float, float]]:
    """Max-abs and relative residual between conv-then-act and act-then-conv,
    on the interior crop, for each element in order.

    `f` is convolved once.  The acted copies of `f` come from one stacked
    action, are stacked along the multiplicity axis and convolved in one
    call; the acted copies of the convolved map come from a second stacked
    action.  Both the action and conv2d compute each copy independently of
    the others, so every pair equals a one-element call bit for bit.
    Boundary pixels mix with zero padding under the action, so a margin of
    half the kernel size is excluded on each side.
    """
    if not elements:
        return []
    mode = kernel.mode
    n, (c, h, w) = len(elements), f.data.shape
    acted = act_on_feature_stack(elements, f, mode)
    acted_first = conv2d(kernel, FeatureMap(f.group, f.rep, acted.reshape(n * c, h, w))).data
    acted_last = act_on_feature_stack(elements, conv2d(kernel, f), mode)
    m = kernel.size // 2
    sl = (slice(None), slice(m, h - m), slice(m, w - m))
    results = []
    for first, last in zip(acted_first.reshape(acted_last.shape), acted_last):
        first, last = first[sl], last[sl]
        abs_res = float(np.abs(first - last).max())
        scale = float(np.abs(last).max())
        rel_res = 0.0 if abs_res == 0.0 else abs_res / scale if scale > 0.0 else 0.0
        results.append((abs_res, rel_res))
    return results


def is_exact_element(g: GroupElement, size: int, mode: str) -> bool:
    """Whether the planar action of g maps the pixel grid onto itself, so the
    resampled kernel is an exact permutation.

    True for 1x1 grids always, for quarter-turn rotation parts (any
    reflection), and for eighth-turn parts on 3x3 grids under nearest
    interpolation.
    """
    if size == 1:
        return True
    c, s = rotation_cos_sin(g.i1, g.spec.rotation_order)
    if c == round(c) and s == round(s):
        return True
    if mode == "nearest" and size == 3:
        h = math.sqrt(0.5)
        return abs(abs(c) - h) < 1e-9 and abs(abs(s) - h) < 1e-9
    return False


def _chain_residual(*steps: np.ndarray) -> float:
    worst = 0.0
    for a, b in zip(steps, steps[1:]):
        worst = max(worst, float(np.abs(a - b).max()))
    return worst


def verify_construction_identities(n: int, seed: int = 7) -> dict[str, float]:
    """Run every identity chain behind the kernel constructions for one N.

    Filter stacks are realized as free random placeholder vectors (rotating a
    1x1 grid is exact), so each chain is checked as pure matrix algebra.
    Returns the max residual per chain; all should sit at machine precision.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    cyc = cyclic_group(n)
    dih = dihedral_group(n)
    stack = rng.uniform(-1.0, 1.0, n)
    rstack = rng.uniform(-1.0, 1.0, n)
    freqs = range(n // 2 + 1)

    results = {
        "cyclic-irrep-rotation": 0.0,
        "cyclic-irrep-rotation-reflected-stack": 0.0,
        "reflected-exchange": 0.0,
        "reflected-exchange-conjugate": 0.0,
        "dihedral-irrep-stack": 0.0,
        "cyclic-regular-chain": 0.0,
        "dihedral-regular-chain": 0.0,
    }

    def bump(label: str, value: float) -> None:
        results[label] = max(results[label], value)

    for k in freqs:
        cols = frequency_columns(n, k)
        k_cols = np.diag(stack) @ cols
        r_cols = np.diag(rstack) @ cols
        for i1 in range(n):
            p = rotation_permutation(n, i1)
            psi_rot = irrep_matrix(cyc.element(0, i1), 0, k)
            bump(
                "cyclic-irrep-rotation",
                _chain_residual(
                    np.diag(p @ stack) @ cols,
                    p @ np.diag(stack) @ p.T @ cols,
                    p @ k_cols @ psi_rot.T,
                ),
            )
            bump(
                "cyclic-irrep-rotation-reflected-stack",
                _chain_residual(np.diag(p @ rstack) @ cols, p @ r_cols @ psi_rot.T),
            )

            b = reflection_permutation(n, i1)
            h = dih.element(1, i1)
            psi0 = irrep_matrix(h, 0, k)
            psi1 = irrep_matrix(h, 1, k)
            bump(
                "reflected-exchange",
                _chain_residual(
                    np.diag(b @ rstack) @ cols,
                    b @ np.diag(rstack) @ b.T @ cols,
                    b @ r_cols @ psi0.T,
                    -b @ r_cols @ psi1.T,
                ),
            )
            bump(
                "reflected-exchange-conjugate",
                _chain_residual(
                    np.diag(b @ stack) @ cols,
                    b @ k_cols @ psi0.T,
                    -b @ k_cols @ psi1.T,
                ),
            )

            rho_rot = regular_rep_matrix(dih.element(0, i1))
            rho_ref = regular_rep_matrix(h)
            for j in (0, 1):
                sign = (-1.0) ** j
                stacked = np.vstack([k_cols, sign * r_cols])
                psi_jr = irrep_matrix(dih.element(0, i1), j, k)
                bump(
                    "dihedral-irrep-stack",
                    _chain_residual(
                        np.vstack([np.diag(p @ stack) @ cols, sign * np.diag(p @ rstack) @ cols]),
                        rho_rot @ stacked @ psi_jr.T,
                    ),
                )
                psi_jf = irrep_matrix(h, j, k)
                bump(
                    "dihedral-irrep-stack",
                    _chain_residual(
                        np.vstack([np.diag(b @ rstack) @ cols, sign * np.diag(b @ stack) @ cols]),
                        rho_ref @ stacked @ psi_jf.T,
                    ),
                )

    # regular-to-regular chains: one free placeholder pair per frequency block
    v = dct_basis_cyclic(n)
    v_inv = v.inverse()
    cyc_stacks = [rng.uniform(-1.0, 1.0, n) for _ in freqs]
    cyc_blocks = [np.diag(s) @ frequency_columns(n, k) for k, s in enumerate(cyc_stacks)]
    g_cyc = np.hstack(cyc_blocks) @ v_inv
    for i1 in range(n):
        p = rotation_permutation(n, i1)
        moved = np.hstack([np.diag(p @ s) @ frequency_columns(n, k) for k, s in enumerate(cyc_stacks)])
        conjugated = np.hstack(
            [
                p @ blk @ irrep_matrix(cyc.element(0, i1), 0, k).T
                for k, blk in enumerate(cyc_blocks)
            ]
        )
        bump(
            "cyclic-regular-chain",
            _chain_residual(moved @ v_inv, conjugated @ v_inv, p @ g_cyc @ p.T),
        )

    w = dct_basis_dihedral(n)
    w_inv = w.inverse()
    dih_stacks = {(j, k): (rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)) for j in (0, 1) for k in freqs}
    dih_blocks = {}
    for (j, k), (s_k, s_r) in dih_stacks.items():
        cols = frequency_columns(n, k)
        dih_blocks[(j, k)] = np.vstack([np.diag(s_k) @ cols, (-1.0) ** j * np.diag(s_r) @ cols])
    order = [(j, k) for j in (0, 1) for k in freqs]
    g_dih = np.hstack([dih_blocks[jk] for jk in order]) @ w_inv
    for i0 in range(2):
        for i1 in range(n):
            g = dih.element(i0, i1)
            rho = regular_rep_matrix(g)
            p = rotation_permutation(n, i1)
            b = reflection_permutation(n, i1)
            moved_blocks = []
            conj_blocks = []
            for (j, k) in order:
                s_k, s_r = dih_stacks[(j, k)]
                cols = frequency_columns(n, k)
                sign = (-1.0) ** j
                if i0 == 0:
                    moved = np.vstack([np.diag(p @ s_k) @ cols, sign * np.diag(p @ s_r) @ cols])
                else:
                    moved = np.vstack([np.diag(b @ s_r) @ cols, sign * np.diag(b @ s_k) @ cols])
                moved_blocks.append(moved)
                conj_blocks.append(rho @ dih_blocks[(j, k)] @ irrep_matrix(g, j, k).T)
            bump(
                "dihedral-regular-chain",
                _chain_residual(
                    np.hstack(moved_blocks) @ w_inv,
                    np.hstack(conj_blocks) @ w_inv,
                    rho @ g_dih @ rho.T,
                ),
            )

    return results


def kernel_families(
    group: GroupSpec, size: int, mode: str, rng: np.random.Generator, include_reversed: bool = True
) -> list[tuple[str, SteerableKernel]]:
    """Build one seeded kernel per construction available on the group."""
    n = group.rotation_order

    def draw() -> np.ndarray:
        return rng.uniform(-1.0, 1.0, (size, size))

    families: list[tuple[str, SteerableKernel]] = []
    if group.reflection_order == 1:
        families.append(("triv2reg", trivial_to_regular_cyclic(draw(), n, mode)))
        for k in range(n // 2 + 1):
            families.append((f"irrep2reg:j0:k{k}", irrep_to_regular_cyclic(draw(), n, k, mode)))
        families.append(
            ("reg2reg", regular_to_regular_cyclic([draw() for _ in range(n // 2 + 1)], n, mode))
        )
        families.append(("orn", circulant_kernel(draw(), n, mode)))
    else:
        families.append(("triv2reg", trivial_to_regular_dihedral(draw(), n, mode)))
        for j in (0, 1):
            for k in range(n // 2 + 1):
                families.append(
                    (f"irrep2reg:j{j}:k{k}", irrep_to_regular_dihedral(draw(), n, j, k, mode))
                )
        families.append(
            (
                "reg2reg",
                regular_to_regular_dihedral([draw() for _ in range(2 * (n // 2 + 1))], n, mode),
            )
        )
    if include_reversed:
        families += [(f"rev:{label}", reverse_kernel(kern)) for label, kern in list(families)]
    return families


@dataclass(frozen=True)
class EquivarianceReport:
    """Per-kernel equivariance residuals over every group element."""

    kernel_kind: str
    group: GroupSpec
    size: int
    mode: str
    per_element: tuple[tuple[GroupElement, float, float], ...]
    exact_subgroup_max: float
    full_group_max: float
    feature_exact_max: float

    def __post_init__(self) -> None:
        elements = [g for g, _, _ in self.per_element]
        if sorted((g.i0, g.i1) for g in elements) != sorted(
            (g.i0, g.i1) for g in self.group.elements()
        ):
            raise ValueError("per-element residuals must cover every group element exactly once")
        if self.exact_subgroup_max > self.full_group_max + 1e-15:
            raise ValueError("exact-subgroup residual cannot exceed the full-group residual")

    def passed(self) -> bool:
        return self.exact_subgroup_max <= KERNEL_TOL and self.feature_exact_max <= FEATURE_TOL


@dataclass(frozen=True)
class SuiteConfig:
    groups: tuple[GroupSpec, ...]
    sizes: tuple[int, ...] = (3,)
    modes: tuple[str, ...] = ("bilinear",)
    seed: int = 42
    feature_size: int = 15


def run_suite(config: SuiteConfig) -> list[EquivarianceReport]:
    """Check every kernel family built from seeded random base filters.

    Kernel-level residuals are evaluated at every group element; the
    feature-level check runs on one random feature map at the exact elements.
    Deterministic given the seed.
    """
    rng = np.random.default_rng(config.seed)
    reports = []
    for group in config.groups:
        for size in config.sizes:
            for mode in config.modes:
                for label, kernel in kernel_families(group, size, mode, rng):
                    per_element = []
                    exact_max = 0.0
                    full_max = 0.0
                    feature_max = 0.0
                    fdata = rng.uniform(
                        -1.0, 1.0, (kernel.rep_in.dim, config.feature_size, config.feature_size)
                    )
                    feat = FeatureMap(group, kernel.rep_in, fdata)
                    feature_elements = []
                    for g in group.elements():
                        abs_res, rel_res = check_kernel_equivariance(kernel, g)
                        per_element.append((g, abs_res, rel_res))
                        full_max = max(full_max, abs_res)
                        if is_exact_element(g, size, mode):
                            exact_max = max(exact_max, abs_res)
                            # the feature grid must also map onto itself (the
                            # 3x3 eighth-turn exception does not extend to it)
                            if is_exact_element(g, config.feature_size, mode):
                                feature_elements.append(g)
                    for feat_res, _ in check_feature_equivariance(kernel, feat, feature_elements):
                        feature_max = max(feature_max, feat_res)
                    reports.append(
                        EquivarianceReport(
                            label, group, size, mode, tuple(per_element), exact_max, full_max, feature_max
                        )
                    )
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


def suite_passes(reports: list[EquivarianceReport]) -> bool:
    return all(r.passed() for r in reports)
