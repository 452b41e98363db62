"""Acceptance suite: one test per exit criterion, each at its pinned tolerance
and runtime budget, printing one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from filtra.features import act_on_feature, conv2d, feature_map, group_pool, pool_spatial, relu_channelwise
from filtra.groups import cyclic_group, dihedral_group
from filtra.harness import (
    check_feature_equivariance,
    check_kernel_equivariance,
    kernel_families,
    reports_to_csv,
    run_suite,
    verify_construction_identities,
)
from filtra.kernels import capacity_report, steerable_kernel
from filtra.representations import (
    decompose_regular,
    intertwiner_residual,
    irrep,
    regular_rep,
    regular_rep_matrix,
    trivial_rep,
)


def _finish(name: str, worst: float, tol: float, elapsed: float, budget: float) -> None:
    ok = worst <= tol and elapsed <= budget
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: residual {worst:.3e} (tol {tol:g}), "
          f"{elapsed:.2f}s (budget {budget:g}s)")
    assert worst <= tol, f"{name}: residual {worst} above tolerance {tol}"
    assert elapsed <= budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


def _all_reps(spec):
    reps = [trivial_rep(spec), regular_rep(spec)]
    js = (0,) if spec.reflection_order == 1 else (0, 1)
    for j in js:
        for k in range(spec.rotation_order // 2 + 1):
            reps.append(irrep(spec, j, k))
    return reps


def test_criterion_1_representation_algebra():
    start = time.time()
    worst = 0.0
    for n in range(1, 13):
        for spec in (cyclic_group(n), dihedral_group(n)):
            elements = spec.elements()
            for rep in _all_reps(spec):
                mats = {g: rep.matrix(g) for g in elements}
                eye = np.eye(rep.dim)
                for g in elements:
                    worst = max(worst, np.abs(mats[g] @ mats[g].T - eye).max())
                    for h in elements:
                        worst = max(
                            worst, np.abs(rep.matrix(g.compose(h)) - mats[g] @ mats[h]).max()
                        )
            for g in elements:
                basis, d = decompose_regular(g)
                rec = basis.matrix @ d @ basis.inverse()
                worst = max(worst, np.abs(rec - regular_rep_matrix(g)).max())
    _finish("criterion 1: representation algebra N=1..12", worst, 1e-10, time.time() - start, 5.0)


def test_criterion_2_frequency_column_identities():
    start = time.time()
    worst = 0.0
    for n in range(1, 13):
        for g in dihedral_group(n).elements():
            for k in range(n // 2 + 1):
                worst = max(worst, intertwiner_residual(k, g))
    _finish("criterion 2: frequency-column identities N<=12", worst, 1e-12, time.time() - start, 2.0)


def test_criterion_3_construction_identity_chains():
    start = time.time()
    worst = 0.0
    for n in range(1, 13):
        for label, residual in verify_construction_identities(n).items():
            worst = max(worst, residual)
    _finish("criterion 3: construction identity chains N=1..12", worst, 1e-12, time.time() - start, 5.0)


def test_criterion_4_kernel_equivariance_exact_subgroup():
    start = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = [(g, (3, 5, 9)) for g in (cyclic_group(4), dihedral_group(4))]
    cases += [
        (g, (3, 5, 9))
        for g in (cyclic_group(1), cyclic_group(2), dihedral_group(1), dihedral_group(2))
    ]
    for spec, sizes in cases:
        for size in sizes:
            for _, kernel in kernel_families(spec, size, "bilinear", rng):
                for g in spec.elements():
                    abs_res, _ = check_kernel_equivariance(kernel, g)
                    worst = max(worst, abs_res)
    _finish("criterion 4: kernel equivariance, exact subgroup (bilinear)", worst, 1e-12,
            time.time() - start, 30.0)


def test_criterion_5_eighth_turn_nearest_exactness():
    start = time.time()
    rng = np.random.default_rng(43)
    worst = 0.0
    for spec in (cyclic_group(8), dihedral_group(8)):
        for _, kernel in kernel_families(spec, 3, "nearest", rng):
            for g in spec.elements():
                abs_res, _ = check_kernel_equivariance(kernel, g)
                worst = max(worst, abs_res)
    _finish("criterion 5: eighth-turn nearest exactness, all C8/D8 elements", worst, 1e-12,
            time.time() - start, 10.0)


def test_criterion_6_feature_equivariance():
    start = time.time()
    rng = np.random.default_rng(44)
    worst = 0.0
    for spec in (cyclic_group(4), dihedral_group(4)):
        for _, kernel in kernel_families(spec, 3, "bilinear", rng):
            f = feature_map(spec, kernel.rep_in, rng.uniform(-1, 1, (kernel.rep_in.dim, 15, 15)))
            for abs_res, _ in check_feature_equivariance(kernel, f, spec.elements()):
                worst = max(worst, abs_res)

    # three-layer stack: conv -> relu -> conv -> spatial pool -> group pool
    for spec in (cyclic_group(4), dihedral_group(4)):
        n = spec.rotation_order
        cyclic = spec.reflection_order == 1
        first = steerable_kernel(trivial_rep(spec), [rng.uniform(-1, 1, (3, 3))])
        count = (n // 2 + 1) * (1 if cyclic else 2)
        second = steerable_kernel(regular_rep(spec), [rng.uniform(-1, 1, (3, 3)) for _ in range(count)])

        def chain(f):
            y = conv2d(first, f)
            y = relu_channelwise(y)
            y = conv2d(second, y)
            y = pool_spatial(y, 3, 1)
            return group_pool(y)

        f = feature_map(spec, trivial_rep(spec), rng.uniform(-1, 1, (1, 15, 15)))
        margin = 3  # one per convolution plus one for the pooling window
        inner = (slice(None), slice(margin, 15 - margin), slice(margin, 15 - margin))
        for g in spec.elements():
            acted_first = chain(act_on_feature(g, f))
            acted_last = act_on_feature(g, chain(f))
            worst = max(worst, np.abs(acted_first.data[inner] - acted_last.data[inner]).max())
    _finish("criterion 6: feature-level equivariance incl. 3-layer stack", worst, 1e-10,
            time.time() - start, 30.0)


def test_criterion_7_scalar_filter_total_algebra():
    start = time.time()
    rng = np.random.default_rng(45)
    worst = 0.0
    for n in range(1, 13):
        for spec in (cyclic_group(n), dihedral_group(n)):
            for _, kernel in kernel_families(spec, 1, "bilinear", rng):
                for g in spec.elements():
                    abs_res, _ = check_kernel_equivariance(kernel, g)
                    worst = max(worst, abs_res)
    _finish("criterion 7: 1x1-filter algebra, all families, all elements, N=1..12", worst, 1e-12,
            time.time() - start, 10.0)


def test_criterion_8_capacity_accounting():
    start = time.time()
    filtra_rep = capacity_report(8, 5, "reg2reg")
    orn_rep = capacity_report(8, 5, "orn")
    ok = (
        filtra_rep.independent_weights == 125
        and orn_rep.independent_weights == 25
        and filtra_rep.stored_filter_scalars == orn_rep.stored_filter_scalars == 1600
    )
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 8: capacity accounting "
          f"(reg2reg {filtra_rep.independent_weights} vs orn {orn_rep.independent_weights} "
          f"free weights, {time.time() - start:.2f}s)")
    assert filtra_rep.independent_weights == 125
    assert orn_rep.independent_weights == 25
    assert filtra_rep.stored_filter_scalars == 1600
    assert orn_rep.stored_filter_scalars == 1600


def test_criterion_9_interpolated_residual_report(tmp_path):
    start = time.time()
    reports = run_suite([cyclic_group(8)], [9], ["bilinear"], 42)
    csv_text = reports_to_csv(reports)
    out = tmp_path / "interpolated.csv"
    out.write_text(csv_text)
    lines = csv_text.strip().splitlines()
    values = [line.split(",")[6:8] for line in lines[1:]]
    finite = all(np.isfinite(float(a)) and np.isfinite(float(r)) for a, r in values)
    covered = len(lines) - 1 == sum(len(r.per_element) for r in reports)
    ok = finite and covered and out.is_file()
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 9: interpolated-angle residual report "
          f"({len(lines) - 1} rows, finite={finite}, {time.time() - start:.2f}s)")
    assert ok
    # the report must include non-exact angles with honestly nonzero residuals
    assert any(float(a) > 1e-6 for a, _ in values)
