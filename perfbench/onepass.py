"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/onepass.py --workload NAME --seed N --trace 0|1 \
        --spawned T --out RESULT.json [--full-check]

`--spawned` is the CLOCK_MONOTONIC time at which the caller spawned this
process, so set-up time covers interpreter start, imports, input generation
and (forward-stack) kernel building.  The pass writes one JSON result, and
with `--trace 1` its spans next to it as RESULT.npz.  Run from the root of a
filtra checkout; filtra is imported from `src/`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--full-check", action="store_true")
    args = parser.parse_args()

    import numpy
    import scipy

    import filtra
    import filtra.cli  # noqa: F401  (loads the cli and fileio namespaces)
    from tracer import TIMED, Tracer
    from workloads import WORKLOADS

    src = os.path.realpath("src")
    if not os.path.realpath(filtra.__file__).startswith(src + os.sep):
        raise SystemExit(f"filtra was imported from {filtra.__file__}, not from {src}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    workload = WORKLOADS[args.workload](args.seed, os.path.dirname(args.out))
    ready = time.monotonic()

    if tracer is not None:
        tracer.phase = TIMED
    t0 = time.perf_counter()
    latencies = workload.run(tracer)
    pass_s = time.perf_counter() - t0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.active = False

    result = workload.check(args.full_check)
    if tracer is not None:
        tracer.dump(os.path.splitext(args.out)[0] + ".npz")
        result["absent"] = tracer.absent
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    result.update(
        ops=workload.ops,
        setup_s=ready - args.spawned,
        pass_s=pass_s,
        op_latencies=latencies,
        peak_rss_mb=peak_rss_kb / 1024.0,
        versions={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "filtra": filtra.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        },
    )
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
