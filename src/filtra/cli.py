"""Command-line front end: equivariance verification suites, kernel
generation and dumps, regular-representation decompositions, capacity
reports, and a filter-visualization demo.

Exit codes: 0 on success, 1 when a verification assertion fails, 2 on usage
errors (bad flags, unreadable files, invalid parameter combinations).
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
from pathlib import Path

import numpy as np

from .fileio import read_filter_csv, write_filter_csv, write_pgm
from .groups import GroupSpec, cyclic_group, dihedral_group, parse_group
from .harness import FEATURE_SIDE, reports_to_csv, run_suite
from .filters import MODES, check_mode
from .kernels import (
    CAPACITY_KINDS,
    SteerableKernel,
    capacity_report,
    circulant_kernel,
    steerable_kernel,
)
from .representations import (
    RepSpec,
    decompose_regular,
    irrep,
    regular_rep,
    regular_rep_matrix,
    trivial_rep,
)

GEN_KINDS = ("triv2reg", "irrep2reg", "reg2reg", "orn")


@contextlib.contextmanager
def _naming(option: str, errors: tuple[type[Exception], ...] = (ValueError, OSError)):
    """Prefix an error of the given types (by default a ValueError or OSError)
    raised in the block with the option that caused it."""
    try:
        yield
    except errors as exc:
        raise ValueError(f"{option}: {exc}") from None


def _irrep_in(spec: GroupSpec, j: int, k: int) -> RepSpec:
    """The (j, k) irrep given by --j and --k."""
    with _naming("--j"):
        irrep(spec, j, 0)  # k = 0 exists on every group, so this checks j alone
    with _naming("--k"):
        return irrep(spec, j, k)


def _comma_list(option: str, text: str) -> list[str]:
    """The comma-separated items given to option, stripped of blank space.
    An empty item is an error, so an empty list is one too; a repeated item is kept."""
    items = [item.strip() for item in text.split(",")]
    if "" in items:
        raise ValueError(f"{option}: empty item in the comma-separated list {text!r}")
    return items


def _integer(text: str) -> int:
    """An integer in ASCII digits: `int` also reads other scripts' digits, `_` and spaces."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def _odd_size(value: str) -> int:
    """A filter side length given to --size."""
    try:
        size = _integer(value)
    except argparse.ArgumentTypeError:
        size = 0
    if size < 1 or size % 2 == 0:
        raise ValueError(f"--size must be a positive odd integer, got {value}")
    return size


def _element_index(value: str) -> int:
    """One index of the i0,i1 pair given to --element."""
    try:
        return _integer(value)
    except argparse.ArgumentTypeError:
        raise ValueError(f"--element expects two integers i0,i1, got {value!r}") from None


def _out_dir(value: str) -> Path:
    """The directory given to --out; an empty path would mean the current one."""
    if not value:
        raise ValueError("--out: empty path; name the output directory")
    return Path(value)


def _write_grids(directory: Path, grids: np.ndarray, ext: str) -> int:
    """Write each grid (r, c) to directory/r{r}_c{c}.{ext}, as CSV or PGM; return the count."""
    writer = write_filter_csv if ext == "csv" else write_pgm
    rows, cols = grids.shape[:2]
    with _naming("--out"):
        directory.mkdir(parents=True, exist_ok=True)
        for r in range(rows):
            for c in range(cols):
                writer(directory / f"r{r}_c{c}.{ext}", grids[r, c])
    return rows * cols


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filtra",
        description="Steerable kernels for cyclic/dihedral groups by filter transform.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the equivariance verification suite")
    p_verify.add_argument("--group", required=True, help="comma-separated groups, e.g. c8,d4")
    p_verify.add_argument("--size", default="3", help="comma-separated odd filter sizes")
    p_verify.add_argument("--mode", default="bilinear", help="comma-separated interpolation modes")
    p_verify.add_argument("--seed", type=_integer, default=42)
    p_verify.add_argument("--report", help="write per-element residuals to this CSV file")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="build a steerable kernel and write its grids")
    p_gen.add_argument("--group", required=True)
    p_gen.add_argument("--kind", required=True, choices=GEN_KINDS)
    p_gen.add_argument("--j", type=_integer, default=None, help="reflection frequency (irrep2reg)")
    p_gen.add_argument("--k", type=_integer, default=None, help="rotation frequency (irrep2reg)")
    p_gen.add_argument("--base", required=True, help="comma-separated base filter CSV files")
    p_gen.add_argument("--mode", default="bilinear", choices=MODES)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--format", default="csv", choices=("csv", "pgm"))
    p_gen.set_defaults(func=cmd_gen)

    p_dec = sub.add_parser("decompose", help="print a regular representation and its irrep decomposition")
    p_dec.add_argument("--group", required=True)
    p_dec.add_argument("--element", required=True, help="element as i0,i1")
    p_dec.add_argument("--format", default="text", choices=("text", "csv"))
    p_dec.set_defaults(func=cmd_decompose)

    p_cap = sub.add_parser("capacity", help="print weight-capacity accounting as CSV")
    p_cap.add_argument("--group", required=True, help="cyclic group, e.g. c8")
    p_cap.add_argument("--size", required=True, help="filter side length S")
    p_cap.set_defaults(func=cmd_capacity)

    p_demo = sub.add_parser("demo", help="dump filter-transform kernels of one image patch as PGM")
    p_demo.add_argument("--image", required=True, help="base filter CSV file")
    p_demo.add_argument("--group", required=True, help="sets N, e.g. c8 or d8")
    p_demo.add_argument("--j", type=_integer, default=1)
    p_demo.add_argument("--k", type=_integer, default=1)
    p_demo.add_argument("--mode", default="bilinear", choices=MODES)
    p_demo.add_argument("--out", required=True)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def cmd_verify(args: argparse.Namespace) -> int:
    lists = {option: _comma_list(f"--{option}", getattr(args, option)) for option in ("group", "size", "mode")}
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    groups = tuple(parse_group(name) for name in lists["group"])
    sizes = tuple(_odd_size(s) for s in lists["size"])
    for size in sizes:
        if size > FEATURE_SIDE:
            raise ValueError(
                f"--size must be at most {FEATURE_SIDE}, the side of the feature maps the suite checks on, got {size}"
            )
    with _naming("--mode"):
        modes = tuple(check_mode(mode) for mode in lists["mode"])
    if args.report is not None:
        # an unwritable or empty report path fails here, not after the whole suite
        with _naming("--report"):
            open(args.report, "a").close()
    reports = run_suite(groups, sizes, modes, args.seed)
    if args.report is not None:
        with _naming("--report"):
            Path(args.report).write_text(reports_to_csv(reports))
    for r in reports:
        status = "pass" if r.passed() else "FAIL"
        print(
            f"{status} {r.kernel_kind} {r.group.name} S={r.size} {r.mode} "
            f"exact={r.exact_subgroup_max:.3e} full={r.full_group_max:.3e} "
            f"feature={r.feature_exact_max:.3e}"
        )
    ok = all(r.passed() for r in reports)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _build_kernel(args: argparse.Namespace, spec: GroupSpec, bases: list[np.ndarray]) -> SteerableKernel:
    for option in ("j", "k"):
        if args.kind != "irrep2reg" and getattr(args, option) is not None:
            raise ValueError(f"--{option}: {args.kind} takes no irrep frequency; only irrep2reg does")
    if args.kind == "orn":
        if spec.reflection_order != 1:
            raise ValueError(f"--kind: orn kernels are defined on cyclic groups only, got --group {spec.name}")
        if len(bases) != 1:
            raise ValueError("--base: orn takes exactly one base filter")
        return circulant_kernel(bases[0], spec.rotation_order, args.mode)
    if args.kind == "irrep2reg" and args.k is None:
        raise ValueError("irrep2reg requires --k")
    build = {"triv2reg": trivial_rep, "reg2reg": regular_rep}.get(args.kind)
    rep_in = build(spec) if build else _irrep_in(spec, args.j or 0, args.k)
    with _naming("--base"):
        return steerable_kernel(rep_in, bases, args.mode)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_group(args.group)
    out = _out_dir(args.out)
    # a malformed file's message already starts with its path
    with _naming("--base", OSError):
        bases = [read_filter_csv(path) for path in _comma_list("--base", args.base)]
    count = _write_grids(out, _build_kernel(args, spec, bases).grids, args.format)
    print(f"wrote {count} grids to {out}")
    return 0


def _matrix_lines(m: np.ndarray) -> list[str]:
    return [",".join(f"{v:.17g}" for v in row) for row in np.atleast_2d(m)]


def cmd_decompose(args: argparse.Namespace) -> int:
    spec = parse_group(args.group)
    parts = _comma_list("--element", args.element)
    if len(parts) != 2:
        raise ValueError(f"--element expects i0,i1, got {args.element!r}")
    i0, i1 = (_element_index(part) for part in parts)
    try:
        g = spec.element(i0, i1)
    except ValueError as exc:
        raise ValueError(f"--element {args.element!r}: {exc}") from None
    rho = regular_rep_matrix(g)
    basis, d = decompose_regular(g)
    residual = float(np.abs(basis.matrix @ d @ basis.inverse() - rho).max())
    if args.format == "csv":
        lines = ["matrix,regular"]
        lines += _matrix_lines(rho)
        lines.append("matrix,basis")
        lines += _matrix_lines(basis.matrix)
        lines.append("matrix,block_diag")
        lines += _matrix_lines(d)
        lines.append(f"residual,{residual:.17g}")
        print("\n".join(lines))
    else:
        with np.printoptions(precision=6, suppress=True, linewidth=200):
            print(f"group {spec.name} element ({g.i0},{g.i1})")
            print("regular representation:")
            print(rho)
            print("basis columns (j,k,slice):", [(j, k, (s.start, s.stop)) for j, k, s in basis.blocks])
            print(basis.matrix)
            print("irrep block diagonal:")
            print(d)
            print(f"reconstruction residual: {residual:.3e}")
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    spec = parse_group(args.group)
    if spec.reflection_order != 1:
        raise ValueError("--group: capacity accounting is defined for cyclic groups, e.g. c8")
    size = _odd_size(args.size)
    for kind in CAPACITY_KINDS:
        rep = capacity_report(spec.rotation_order, size, kind)
        print(f"{rep.kernel_kind},{rep.independent_weights},{rep.stored_filter_scalars}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    with _naming("--image", OSError):
        base = read_filter_csv(args.image)
    n = parse_group(args.group).rotation_order
    families: dict[str, np.ndarray] = {}
    for spec, kind, j in ((cyclic_group(n), "cyclic", 0), (dihedral_group(n), "dihedral", args.j)):
        reps = {"triv2reg": trivial_rep(spec), "irrep2reg": _irrep_in(spec, j, args.k)}
        for name, rep_in in reps.items():
            families[f"{name}_{kind}"] = steerable_kernel(rep_in, [base], args.mode).grids
    # the trivial-input kernels are the filter stacks themselves
    families["stack"] = families["triv2reg_cyclic"]
    families["stack_reflected"] = families["triv2reg_dihedral"][n:]
    count = sum(_write_grids(out / name, grids, "pgm") for name, grids in families.items())
    print(f"wrote {count} PGM dumps under {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"filtra: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # numpy's message names array shapes, not the option that caused them
        print(f"filtra: error: {args.command}: out of memory; try a smaller group or size", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
