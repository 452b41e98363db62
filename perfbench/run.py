"""filtra benchmark: closed-loop passes of one workload, each in a fresh
interpreter, with end-to-end metrics (`--trace 0`) or per-layer metrics
from the outside-in tracer (`--trace 1`).

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Run from the root of a filtra checkout.  One caller runs one pass at a time
and starts the next only after the previous one has exited, while the
measured time allows (at least MIN_PASSES passes).  Every pass starts in a
fresh interpreter, so no process-wide cache carries over from one pass to
the next.  The last stdout line is the result JSON; the line before it
holds sample counts, quartiles, the failed-operation share and the
environment stamp, which also go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
WORKLOADS = ("verify-suite", "forward-stack", "kernel-sweep")
MIN_PASSES = {0: 3, 1: 2}
# untraced runs time at least this many operations, so the tail percentile
# below has at least ten samples beyond it
MIN_TIMED_OPS = 50
RUN_LIMIT_S = 170.0
# one closed-loop caller; BLAS gets one thread, never more than nproc
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TAIL_PERCENTILE = 80

# (metric, unit, span, field): per-layer metrics read from the traced passes
SPAN_METRICS = (
    ("features.conv2d.calls", "count", "features.conv2d", "calls"),
    ("features.conv2d.self_s", "s", "features.conv2d", "self_s"),
    ("features.conv2d.total_s", "s", "features.conv2d", "total_s"),
    ("features.correlate2d.calls", "count", "features.correlate2d", "calls"),
    ("features.act_on_feature.calls", "count", "features.act_on_feature", "calls"),
    ("features.act_on_feature.self_s", "s", "features.act_on_feature", "self_s"),
    ("features.pool_spatial.self_s", "s", "features.pool_spatial", "self_s"),
    ("features.group_pool.self_s", "s", "features.group_pool", "self_s"),
    ("features.relu_channelwise.self_s", "s", "features.relu_channelwise", "self_s"),
    ("filters.sample_plane.calls", "count", "filters.sample_plane", "calls"),
    ("filters.sample_plane.self_s", "s", "filters.sample_plane", "self_s"),
    ("filters.rotation_cos_sin.calls", "count", "filters.rotation_cos_sin", "calls"),
    ("filters.rotation_cos_sin.self_s", "s", "filters.rotation_cos_sin", "self_s"),
    ("filters.rotation_stack.total_s", "s", "filters.rotation_stack", "total_s"),
    ("representations.regular_rep_matrix.calls", "count", "representations.regular_rep_matrix", "calls"),
    ("representations.regular_rep_matrix.self_s", "s", "representations.regular_rep_matrix", "self_s"),
    ("representations.rep_matrix.calls", "count", "representations.rep_matrix", "calls"),
    ("representations.rep_matrix.self_s", "s", "representations.rep_matrix", "self_s"),
    ("representations.irrep_matrix.self_s", "s", "representations.irrep_matrix", "self_s"),
    ("kernels.build.calls", "count", "kernels.build", "calls"),
    ("kernels.build.total_s", "s", "kernels.build", "total_s"),
    ("harness.check_kernel_equivariance.calls", "count", "harness.check_kernel_equivariance", "calls"),
    ("harness.check_kernel_equivariance.self_s", "s", "harness.check_kernel_equivariance", "self_s"),
    ("harness.check_feature_equivariance.calls", "count", "harness.check_feature_equivariance", "calls"),
    ("harness.check_feature_equivariance.self_s", "s", "harness.check_feature_equivariance", "self_s"),
    ("harness.kernel_families.total_s", "s", "harness.kernel_families", "total_s"),
    ("harness.run_suite.self_s", "s", "harness.run_suite", "self_s"),
    ("harness.reports_to_csv.self_s", "s", "harness.reports_to_csv", "self_s"),
    ("cli.verify.self_s", "s", "cli.verify", "self_s"),
    ("groups.self_s", "s", "groups", "self_s"),
    ("setup.kernels.build.total_s", "s", "kernels.build", "setup_total_s"),
    ("setup.filters.sample_plane.calls", "count", "filters.sample_plane", "setup_calls"),
)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def environment(seed: int, child_env: dict, versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    git = {"rev": None, "dirty": None}
    if os.path.isdir(".git"):  # never look above the checkout
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            status = subprocess.run(["git", "status", "--porcelain", "--", "src"], capture_output=True, text=True, timeout=30)
            git = {"rev": rev.stdout.strip() or None, "dirty": bool(status.stdout.strip())}
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join("src", "filtra"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        **versions,
        "blas_threads": {var: child_env[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git": git,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_pass(args, index: int, traced: bool, env: dict, deadline: float) -> dict:
    out = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-p{index}.json")
    cmd = [
        sys.executable,
        os.path.join(HERE, "onepass.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(int(traced)),
        "--out", out,
    ]
    if index == 0:
        cmd.append("--full-check")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(10.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"pass {index} did not finish within the run limit"]}
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"errors": [f"pass {index} exited {proc.returncode}: {' | '.join(tail)}"]}
    with open(out) as fh:
        result = json.load(fh)
    os.remove(out)
    result.update(wall_s=wall, traced=traced, spans=os.path.splitext(out)[0] + ".npz" if traced else None)
    return result


def end_to_end(passes: list[dict], ops: int, residual: float) -> tuple[dict, dict]:
    pass_s = [p["pass_s"] for p in passes]
    latencies = []
    for p in passes:
        # verify-suite exposes no per-family boundary to time from outside, so
        # each of its operations is given the pass's mean operation latency
        latencies += p["op_latencies"] or [p["pass_s"] / ops] * ops
    metrics = {
        "pass_s": (statistics.median(pass_s), "s"),
        "ops_per_s": (statistics.median(ops / s for s in pass_s), "1/s"),
        "op_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        f"op_p{TAIL_PERCENTILE}_ms": (1e3 * percentile(latencies, TAIL_PERCENTILE), "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "interp_residual_max": (residual, "1"),
    }
    detail = {
        "passes": len(passes),
        "pass_s_quartiles": quartiles(pass_s),
        "op_samples": len(latencies),
        "op_timed_from_outside": passes[0]["op_latencies"] is not None,
        "setup_s_quartiles": quartiles([p["setup_s"] for p in passes]),
    }
    return metrics, detail


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    from tracer import summarize

    summaries = []
    for p in traced:
        summaries.append(summarize(p["spans"], p["pass_s"]))

    def med(fn):
        return statistics.median(fn(s) for s in summaries)

    def span(s, name, field):
        return s["spans"].get(name, {}).get(field, 0)

    metrics = {m: (med(lambda s: span(s, name, field)), unit) for m, unit, name, field in SPAN_METRICS}

    def gflop_per_s(s):
        total = span(s, "features.conv2d", "total_s")
        return span(s, "features.conv2d", "work") / 1e9 / total if total else 0.0

    metrics["features.conv2d.gflop"] = (med(lambda s: span(s, "features.conv2d", "work") / 1e9), "GFLOP")
    metrics["features.conv2d.gflop_per_s"] = (med(gflop_per_s), "GFLOP/s")
    metrics["filters.sample_plane.pixels"] = (med(lambda s: span(s, "filters.sample_plane", "work")), "px")
    checked = statistics.median(p["elements_checked"] for p in traced)
    exact = statistics.median(p["exact_elements"] for p in traced)
    metrics["harness.exact_elements"] = (exact, "count")
    metrics["harness.exact_fraction"] = (exact / checked if checked else 0.0, "1")
    untraced_s = statistics.median(p["pass_s"] for p in plain)
    traced_s = statistics.median(p["pass_s"] for p in traced)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "1")
    metrics["trace.uncovered_s"] = (med(lambda s: s["uncovered_s"]), "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "filtra", "__init__.py")):
        print("perfbench: no filtra sources at ./src/filtra; run from the root of a filtra checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env.update({var: "1" for var in BLAS_THREAD_VARS})

    passes: list[dict] = []
    errors: list[str] = []
    deadline = started + RUN_LIMIT_S
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        result = run_pass(args, len(passes), traced, env, deadline)
        errors += result["errors"]
        if "pass_s" not in result:
            break
        passes.append(result)
        elapsed = time.monotonic() - started
        timed_ops = sum(p["ops"] for p in passes if not p["traced"])
        enough = len(passes) >= MIN_PASSES[args.trace] and (args.trace or timed_ops >= MIN_TIMED_OPS)
        # start another pass only if it is expected to end at most half a pass late
        if elapsed + 2 * result["wall_s"] > RUN_LIMIT_S or (enough and elapsed + result["wall_s"] / 2 > args.seconds):
            break

    if len({p["digest"] for p in passes}) > 1:
        errors.append("passes of one seed gave different outputs")
    residual = next((p["interp_residual_max"] for p in passes if p["interp_residual_max"] is not None), None)
    if passes and not (residual or 0.0) > 0.0:
        errors.append("interpolation residual is not positive: the non-exact elements were not exercised")
    if args.trace and not any(p["traced"] for p in passes):
        errors.append("no traced pass fitted in the run limit")
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    detail = {"workload": args.workload, "errors": errors, "fail_frac": failed / attempted if attempted else None}
    metrics = {}
    if passes and not errors:
        plain = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        detail["environment"] = environment(args.seed, env, passes[0]["versions"])
        if args.trace:
            metrics = per_layer(traced, plain)
            detail["absent"] = traced[0]["absent"]
            detail["traced_passes"] = len(traced)
        else:
            metrics, extra = end_to_end(plain, passes[0]["ops"], residual)
            detail.update(extra)
    detail["run_s"] = time.monotonic() - started
    result = {
        "correct": bool(passes) and not errors,
        "attempted": max(1, attempted),
        "failed": failed if passes else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        samples = {"pass_s": [p["pass_s"] for p in passes], "op_latencies": [p["op_latencies"] for p in passes]}
        json.dump({"detail": detail, "result": result, "samples": samples}, fh)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
