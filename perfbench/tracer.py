"""Outside-in span tracer for filtra.

The tracer replaces each layer function of filtra in every filtra namespace
that binds it (module globals, the `from .x import y` copies, and class
attributes such as `RepSpec.matrix`), so no file under `src/` changes.
Spans are kept in memory as parallel lists and written out once, at the end
of the pass, as an `.npz` file that `summarize` turns into per-layer metrics.

A target that no longer exists in filtra is reported as absent, not as an
error, so the benchmark keeps running across refactors.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

import numpy as np

SETUP, TIMED = 0, 1


def _pixels(values, *args, **kwargs):
    return float(np.size(values))


def _conv_flop(kernel, f, *args, **kwargs):
    # direct correlation: one multiply and one add per tap, output pixel and
    # (output, input) channel pair of every multiplicity block
    do, di, s, _ = kernel.grids.shape
    c, h, w = f.data.shape
    return 2.0 * (c // di) * do * di * h * w * s * s


# (span name, module, attribute path, work counter).  Several targets may share
# a span name; the kernel constructors all report as "kernels.build".
_KERNEL_BUILDERS = (
    "trivial_to_regular_cyclic",
    "trivial_to_regular_dihedral",
    "irrep_to_regular_cyclic",
    "irrep_to_regular_dihedral",
    "regular_to_regular_cyclic",
    "regular_to_regular_dihedral",
    "reverse_kernel",
    "circulant_kernel",
)
_GROUP_CALLS = (
    "parse_group",
    "cyclic_group",
    "dihedral_group",
    "GroupSpec.elements",
    "GroupSpec.element",
    "GroupSpec.identity",
    "GroupElement.angle",
    "GroupElement.compose",
    "GroupElement.inverse",
    "GroupElement.angle_action",
)
TARGETS = (
    ("features.conv2d", "filtra.features", "conv2d", _conv_flop),
    ("features.correlate2d", "filtra.features", "correlate2d", None),
    ("features.act_on_feature", "filtra.features", "act_on_feature", None),
    ("features.pool_spatial", "filtra.features", "pool_spatial", None),
    ("features.group_pool", "filtra.features", "group_pool", None),
    ("features.relu_channelwise", "filtra.features", "relu_channelwise", None),
    ("filters.sample_plane", "filtra.filters", "sample_plane", _pixels),
    ("filters.rotation_cos_sin", "filtra.filters", "rotation_cos_sin", None),
    ("filters.rotation_stack", "filtra.filters", "rotation_stack", None),
    ("representations.regular_rep_matrix", "filtra.representations", "regular_rep_matrix", None),
    ("representations.rep_matrix", "filtra.representations", "RepSpec.matrix", None),
    ("representations.irrep_matrix", "filtra.representations", "irrep_matrix", None),
    *(("kernels.build", "filtra.kernels", name, None) for name in _KERNEL_BUILDERS),
    ("harness.run_suite", "filtra.harness", "run_suite", None),
    ("harness.kernel_families", "filtra.harness", "kernel_families", None),
    ("harness.check_kernel_equivariance", "filtra.harness", "check_kernel_equivariance", None),
    ("harness.check_feature_equivariance", "filtra.harness", "check_feature_equivariance", None),
    ("harness.reports_to_csv", "filtra.harness", "reports_to_csv", None),
    ("cli.verify", "filtra.cli", "cmd_verify", None),
    *(("groups", "filtra.groups", name, None) for name in _GROUP_CALLS),
)


class Tracer:
    """Records one span per call of each installed target while `active`."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.names: list[str] = []
        self.absent: list[str] = []
        self.active = False
        self.phase = SETUP
        self.op = -1
        self._stack: list[int] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.span_phase: list[int] = []
        self.span_op: list[int] = []
        self.work: list[float] = []
        self.start: list[float] = []
        self.end: list[float] = []

    def _wrap(self, name_id, fn, counter):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.span_phase.append(self.phase)
            self.span_op.append(self.op)
            self.work.append(counter(*args, **kwargs) if counter else 0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target in every loaded filtra namespace that binds it."""
        namespaces = [m for key, m in sys.modules.items() if key == "filtra" or key.startswith("filtra.")]
        for span, module_name, path, counter in self.targets:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(label)
                continue
            if span not in self.names:
                self.names.append(span)
            name_id = self.names.index(span)
            if isinstance(raw, property):
                setattr(owner, attr, property(self._wrap(name_id, raw.fget, counter)))
                continue
            wrapper = self._wrap(name_id, raw, counter)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is raw:
                        setattr(ns, key, wrapper)

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            phase=np.array(self.span_phase, dtype=np.int8),
            op=np.array(self.span_op, dtype=np.int32),
            work=np.array(self.work, dtype=float),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
        )


def summarize(path: str, timed_s: float) -> dict:
    """Per-span-name totals of one traced pass.

    Returns {span: {"calls", "self_s", "total_s", "work", plus "setup_calls",
    "setup_total_s"}} and the timed time that no root span covers.  `calls` and
    `total_s` count only outermost spans of a name, so a constructor calling
    another constructor counts once; `self_s` is a span's duration minus the
    durations of its direct children.
    """
    with np.load(path) as z:
        names = json.loads(str(z["names"]))
        name, parent, phase = z["name"], z["parent"], z["phase"]
        work, dur = z["work"], z["end"] - z["start"]
    has_parent = parent >= 0
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    nested = np.zeros(len(name), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        nested[live] |= name[anc[live]] == name[live]
        anc = np.where(live, parent[np.maximum(anc, 0)], -1)
    outer = ~nested
    timed = phase == TIMED
    out = {}
    for i, span in enumerate(names):
        mine = name == i
        t, s = mine & timed, mine & ~timed
        out[span] = {
            "calls": int(np.sum(t & outer)),
            "self_s": float(own[t].sum()),
            "total_s": float(dur[t & outer].sum()),
            "work": float(work[t].sum()),
            "setup_calls": int(np.sum(s & outer)),
            "setup_total_s": float(dur[s & outer].sum()),
        }
    covered = float(dur[timed & ~has_parent].sum())
    return {"spans": out, "uncovered_s": timed_s - covered}
