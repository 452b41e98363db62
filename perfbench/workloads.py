"""The three benchmark workloads, each driven through filtra's public entry
points by one closed-loop caller.

A workload object is built in the pass's set-up (imports, inputs, kernels),
`run` is the timed section, and `check` validates the outputs afterwards.
`run` returns the latency of each operation in seconds when the benchmark
can time operations one by one from outside, or None when it cannot.
`check` returns the failed-operation count, the correctness errors, the
interpolation residual, the exact-element counts and a digest of every
output, so two passes (or a traced and an untraced pass) can be compared
bit for bit.

filtra's functions are always looked up on their module at call time, so
the outside-in tracer's replacements apply.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time

import numpy as np

import filtra
import filtra.cli

VERIFY_ARGS = ("--group", "c8,d8", "--size", "3,5,9", "--mode", "bilinear,nearest")
VERIFY_FAMILIES = 240

# forward-stack: 127 -> 63 -> 31 keeps the stride-2 pools symmetric, so a
# quarter turn of the input is an exact permutation all the way through
FORWARD_GROUP, FORWARD_SIZE, FORWARD_SIDE, FORWARD_CHANNELS = "d8", 5, 127, 3
FORWARD_IMAGES = 20
# reference forward pass by plain direct correlation: the library output must
# match it to this tolerance relative to the largest reference value
REFERENCE_RTOL = 1e-9
# The eighth-turn residual is read on the central 15x15 of the 31x31 output,
# where neither the rotated image corners nor the zero padding reach.  It is
# taken on a fixed probe stack: with only three kernels per run, a seeded
# stack's residual ranges over 0.4-1.0 from seed to seed, which would bury a
# change in interpolation accuracy under seed noise.
EIGHTH_CROP = slice(8, 23)
EIGHTH_PROBE_SEED = 0

SWEEP_GROUPS, SWEEP_SIZES, SWEEP_MODES = ("c16", "d12"), (5, 9), ("bilinear", "nearest")
SWEEP_FAMILIES = 224


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _exact(g, size: int, mode: str) -> bool:
    return bool(filtra.harness.is_exact_element(g, size, mode))


def _nonvacuous_errors(exact_seen: dict) -> list[str]:
    return [
        f"no non-identity exact element checked for {cell}" for cell, seen in exact_seen.items() if not seen
    ]


class VerifySuite:
    """`filtra verify` on c8,d8 x S in {3,5,9} x {bilinear, nearest}: 240 family reports."""

    ops = VERIFY_FAMILIES

    def __init__(self, seed: int, workdir: str) -> None:
        self.report = os.path.join(workdir, f"verify-report-{os.getpid()}.csv")
        self.argv = ["verify", *VERIFY_ARGS, "--seed", str(seed), "--report", self.report]

    def run(self, tracer) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.rc = filtra.cli.main(self.argv)
        self.stdout = buf.getvalue()
        return None

    def check(self, full: bool) -> dict:
        errors = []
        lines = self.stdout.splitlines()
        verdicts = [line.split(" ", 1)[0] for line in lines[:-1]]
        failed = verdicts.count("FAIL")
        final = lines[-1] if lines else ""
        if self.rc not in (0, 1):
            errors.append(f"filtra verify exited {self.rc}")
        elif self.rc == 0 and (final != "PASS" or failed):
            errors.append("exit code 0 without every family passing")
        elif self.rc == 1 and (final != "FAIL" or not failed):
            errors.append("exit code 1 without a failing family")
        if len(verdicts) != VERIFY_FAMILIES or set(verdicts) - {"pass", "FAIL"}:
            errors.append(f"expected {VERIFY_FAMILIES} report lines, got {len(verdicts)}")

        with open(self.report, "rb") as fh:
            raw = fh.read()
        os.remove(self.report)
        families, exact_seen = set(), {}
        rows = exact = 0
        worst = 0.0
        groups = {}
        for row in csv.DictReader(io.StringIO(raw.decode())):
            name, size, mode = row["group"], int(row["S"]), row["mode"]
            spec = groups.setdefault(name, filtra.parse_group(name))
            g = spec.element(int(row["i0"]), int(row["i1"]))
            families.add((row["kind"], name, size, mode))
            cell = (name, size, mode)
            exact_seen.setdefault(cell, False)
            rows += 1
            if _exact(g, size, mode):
                exact += 1
                exact_seen[cell] |= (g.i0, g.i1) != (0, 0)
            else:
                worst = max(worst, float(row["rel_residual"]))
        if len(families) != VERIFY_FAMILIES:
            errors.append(f"expected {VERIFY_FAMILIES} family reports, got {len(families)}")
        errors += _nonvacuous_errors(exact_seen)
        return {
            "failed": failed,
            "errors": errors,
            "interp_residual_max": worst,
            "exact_elements": exact,
            "elements_checked": rows,
            "digest": _digest(raw, self.stdout.encode()),
        }


def _he_uniform(rng: np.random.Generator, size: int, fan_in_dim: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (size * size * fan_in_dim))
    return rng.uniform(-bound, bound, (size, size))


def _reference_correlate(grids: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Zero-padded, same-size direct correlation of every multiplicity block."""
    do, di, s, _ = grids.shape
    c, h, w = data.shape
    r = s // 2
    x = np.pad(data.reshape(c // di, di, h, w), ((0, 0), (0, 0), (r, r), (r, r)))
    out = np.zeros((c // di, do, h, w))
    for u in range(s):
        for v in range(s):
            out += np.einsum("oi,mihw->mohw", grids[:, :, u, v], x[:, :, u : u + h, v : v + w])
    return out.reshape(-1, h, w)


def _reference_pool(data: np.ndarray) -> np.ndarray:
    # 3x3 window, stride 2: the sides used here need no edge padding
    windows = np.lib.stride_tricks.sliding_window_view(data, (3, 3), axis=(1, 2))
    return windows[:, ::2, ::2].max(axis=(-2, -1))


class ForwardStack:
    """D8, S=5 bilinear: conv(triv->reg), relu, pool, conv(reg->reg), relu,
    pool, conv(reg->reg), group pool, one image at a time."""

    ops = FORWARD_IMAGES

    def __init__(self, seed: int, workdir: str, images: int = FORWARD_IMAGES) -> None:
        rng = np.random.default_rng(seed)
        spec = filtra.parse_group(FORWARD_GROUP)
        n, s = spec.rotation_order, FORWARD_SIZE
        reg_bases = 2 * (n // 2 + 1)
        self.spec = spec
        self.layers = (
            filtra.kernels.trivial_to_regular_dihedral(_he_uniform(rng, s, 1), n, "bilinear"),
            filtra.kernels.regular_to_regular_dihedral(
                [_he_uniform(rng, s, spec.order) for _ in range(reg_bases)], n, "bilinear"
            ),
            filtra.kernels.regular_to_regular_dihedral(
                [_he_uniform(rng, s, spec.order) for _ in range(reg_bases)], n, "bilinear"
            ),
        )
        shape = (FORWARD_CHANNELS, FORWARD_SIDE, FORWARD_SIDE)
        self.images = [
            filtra.features.feature_map(spec, filtra.representations.trivial_rep(spec), rng.uniform(-1, 1, shape))
            for _ in range(images)
        ]

    def forward(self, f):
        features = filtra.features
        first, second, third = self.layers
        y = features.pool_spatial(features.relu_channelwise(features.conv2d(first, f)), 3, 2)
        y = features.pool_spatial(features.relu_channelwise(features.conv2d(second, y)), 3, 2)
        return features.group_pool(features.conv2d(third, y))

    def reference(self, f) -> np.ndarray:
        first, second, third = (k.grids for k in self.layers)
        y = _reference_pool(np.maximum(_reference_correlate(first, f.data), 0.0))
        y = _reference_pool(np.maximum(_reference_correlate(second, y), 0.0))
        y = _reference_correlate(third, y)
        return y.reshape(FORWARD_CHANNELS, self.spec.order, *y.shape[1:]).max(axis=1)

    def run(self, tracer) -> list[float]:
        latencies, self.outputs, self.exceptions = [], [], []
        for i, image in enumerate(self.images):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                out = self.forward(image)
            except Exception as exc:  # a raising operation counts as failed
                self.exceptions.append(repr(exc))
                out = None
            latencies.append(time.perf_counter() - t0)
            self.outputs.append(out)
        return latencies

    def check(self, full: bool) -> dict:
        errors = []
        done = [out for out in self.outputs if out is not None]
        result = {
            "failed": len(self.exceptions),
            "errors": errors,
            "interp_residual_max": None,
            "exact_elements": 0,
            "elements_checked": 0,
            "digest": _digest(*(out.data.tobytes() for out in done)),
        }
        if not full or not done:
            return result
        image, out = self.images[0], self.outputs[0]
        act = filtra.features.act_on_feature
        quarter = self.spec.element(0, self.spec.rotation_order // 4)
        turned = np.abs(self.forward(act(quarter, image)).data - act(quarter, out).data).max()
        if not turned <= filtra.harness.FEATURE_TOL:
            errors.append(f"quarter-turn equivariance residual {turned:.3e} above FEATURE_TOL")
        ref = self.reference(image)
        off = np.abs(out.data - ref).max()
        if not off <= REFERENCE_RTOL * np.abs(ref).max():
            errors.append(f"output differs from the direct-correlation reference by {off:.3e}")
        probe = ForwardStack(EIGHTH_PROBE_SEED, "", images=1)
        eighth = probe.spec.element(0, 1)
        image = probe.images[0]
        lhs = probe.forward(act(eighth, image)).data[:, EIGHTH_CROP, EIGHTH_CROP]
        rhs = act(eighth, probe.forward(image)).data[:, EIGHTH_CROP, EIGHTH_CROP]
        result["interp_residual_max"] = float(np.abs(lhs - rhs).max() / np.abs(rhs).max())
        return result


class KernelSweep:
    """kernel_families plus check_kernel_equivariance at every element, for
    {c16, d12} x S in {5, 9} x {bilinear, nearest}: 224 families."""

    ops = SWEEP_FAMILIES

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.cells = [
            (filtra.parse_group(name), size, mode)
            for name in SWEEP_GROUPS
            for size in SWEEP_SIZES
            for mode in SWEEP_MODES
        ]

    def run(self, tracer) -> list[float]:
        harness = filtra.harness
        rng = np.random.default_rng(self.seed)
        latencies, self.results, self.exceptions = [], [], []
        for spec, size, mode in self.cells:
            if tracer is not None:
                tracer.op = len(latencies)
            t0 = time.perf_counter()
            families = harness.kernel_families(spec, size, mode, rng)
            build_share = (time.perf_counter() - t0) / len(families)
            elements = spec.elements()
            for label, kernel in families:
                if tracer is not None:
                    tracer.op = len(latencies)
                t0 = time.perf_counter()
                try:
                    residuals = [harness.check_kernel_equivariance(kernel, g) for g in elements]
                except Exception as exc:  # a raising operation counts as failed
                    self.exceptions.append(repr(exc))
                    residuals = None
                latencies.append(build_share + time.perf_counter() - t0)
                self.results.append((spec, size, mode, label, elements, residuals))
        return latencies

    def check(self, full: bool) -> dict:
        errors = []
        if len(self.results) != SWEEP_FAMILIES:
            errors.append(f"expected {SWEEP_FAMILIES} families, got {len(self.results)}")
        failed = len(self.exceptions)
        exact_seen = {}
        rows = exact = 0
        worst = 0.0
        flat = []
        for spec, size, mode, label, elements, residuals in self.results:
            if residuals is None:
                continue
            cell = (spec.name, size, mode)
            exact_seen.setdefault(cell, False)
            exact_max = 0.0
            for g, (abs_res, rel_res) in zip(elements, residuals):
                rows += 1
                flat += (abs_res, rel_res)
                if (g.i0, g.i1) == (0, 0) and abs_res != 0.0:
                    errors.append(f"{label} {cell}: identity residual {abs_res!r} is not 0")
                if _exact(g, size, mode):
                    exact += 1
                    exact_seen[cell] |= (g.i0, g.i1) != (0, 0)
                    exact_max = max(exact_max, abs_res)
                else:
                    worst = max(worst, rel_res)
            failed += exact_max > filtra.harness.KERNEL_TOL
        errors += _nonvacuous_errors(exact_seen)
        return {
            "failed": int(failed),
            "errors": errors,
            "interp_residual_max": worst,
            "exact_elements": exact,
            "elements_checked": rows,
            "digest": _digest(np.array(flat).tobytes()),
        }


WORKLOADS = {"verify-suite": VerifySuite, "forward-stack": ForwardStack, "kernel-sweep": KernelSweep}
