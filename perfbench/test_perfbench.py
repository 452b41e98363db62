"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

Run from the root of a filtra checkout.  The pass tests spawn full passes
in fresh interpreters and take about a minute.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from tracer import TIMED, Tracer, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _one_pass(workload: str, trace: int, out_dir) -> dict:
    out = os.path.join(out_dir, f"{workload}-t{trace}.json")
    cmd = [
        sys.executable, os.path.join(HERE, "onepass.py"),
        "--workload", workload, "--seed", "3", "--trace", str(trace),
        "--spawned", repr(time.monotonic()), "--out", out, "--full-check",
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=300)
    with open(out) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["verify-suite", "forward-stack", "kernel-sweep"])
def test_traced_and_untraced_passes_agree_bit_for_bit(workload, tmp_path):
    plain = _one_pass(workload, 0, tmp_path)
    traced = _one_pass(workload, 1, tmp_path)
    assert plain["errors"] == [] and traced["errors"] == []
    assert traced["absent"] == []
    for key in ("digest", "interp_residual_max", "failed", "exact_elements", "elements_checked"):
        assert traced[key] == plain[key], key


def test_removed_names_are_reported_absent():
    tracer = Tracer(
        targets=(
            ("features.gone", "filtra.features", "no_such_function", None),
            ("gone.module", "filtra.no_such_module", "f", None),
            ("representations.gone", "filtra.representations", "RepSpec.no_such_method", None),
        )
    )
    tracer.install()
    assert tracer.absent == [
        "filtra.features.no_such_function",
        "filtra.no_such_module.f",
        "filtra.representations.RepSpec.no_such_method",
    ]
    assert tracer.names == []


def test_summarize_counts_outermost_calls_and_self_time(tmp_path):
    # build(0..10) holds sample(1..4) and a nested build(5..7)
    tracer = Tracer(targets=())
    tracer.names = ["kernels.build", "filters.sample_plane"]
    tracer.name = [0, 1, 0]
    tracer.parent = [-1, 0, 0]
    tracer.span_phase = [TIMED] * 3
    tracer.span_op = [0] * 3
    tracer.work = [0.0, 9.0, 0.0]
    tracer.start = [0.0, 1.0, 5.0]
    tracer.end = [10.0, 4.0, 7.0]
    path = str(tmp_path / "spans.npz")
    tracer.dump(path)
    summary = summarize(path, timed_s=12.0)
    build, sample = summary["spans"]["kernels.build"], summary["spans"]["filters.sample_plane"]
    assert (build["calls"], build["total_s"], build["self_s"]) == (1, 10.0, 7.0)
    assert (sample["calls"], sample["self_s"], sample["work"]) == (1, 3.0, 9.0)
    assert np.isclose(summary["uncovered_s"], 2.0)
