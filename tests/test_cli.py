import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import filtra
import filtra.cli
from filtra.cli import main
from filtra.fileio import read_filter_csv, write_filter_csv
from filtra.kernels import circulant_kernel


@pytest.fixture()
def base_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "base.csv"
    write_filter_csv(path, rng.uniform(-1, 1, (3, 3)))
    return path


def test_capacity(capsys):
    assert main(["capacity", "--group", "c8", "--size", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["reg2reg,125,1600", "orn,25,1600"]


def test_capacity_rejects_dihedral(capsys):
    assert main(["capacity", "--group", "d8", "--size", "5"]) == 2


@pytest.mark.parametrize("size", ["-3", "0", "4"])
def test_capacity_rejects_invalid_size(size, capsys):
    assert main(["capacity", "--group", "c8", "--size", size]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--size" in captured.err and "positive odd integer" in captured.err


def test_verify_passes(capsys, tmp_path):
    report = tmp_path / "report.csv"
    code = main(["verify", "--group", "c4", "--size", "3", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "kind,group,S,mode,i0,i1,abs_residual,rel_residual"
    assert len(lines) > 1


def test_verify_multiple_groups_modes():
    assert main(["verify", "--group", "c8,d4", "--size", "3", "--mode", "bilinear,nearest"]) == 0


@pytest.mark.parametrize("argv", [["--group", "c12"], ["--group", "c16", "--size", "3"]])
def test_verify_nearest_passes(argv, capsys):
    assert main(["verify", *argv, "--mode", "nearest"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"


def test_verify_unknown_flag_is_usage_error():
    assert main(["verify", "--group", "c4", "--bogus", "1"]) == 2
    assert main(["verify", "--group", "c4", "--threads", "2"]) == 2


@pytest.mark.parametrize("size", ["-3", "0", "4", "3,x"])
def test_verify_rejects_invalid_size(size, capsys):
    assert main(["verify", "--group", "c4", "--size", size]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--size" in captured.err and "positive odd integer" in captured.err


@pytest.mark.parametrize("sizes", ["17", "3,17"])
def test_verify_rejects_size_beyond_feature_maps_before_running(sizes, capsys):
    # the S = 3 families would print a line each if the suite started
    assert main(["verify", "--group", "c4", "--size", sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "filtra: error: --size must be at most 15, the side of the feature maps the suite checks on, got 17\n"
    )


def test_verify_accepts_size_equal_to_feature_maps(capsys):
    # a 15 x 15 kernel on 15 x 15 maps leaves a valid crop of one pixel
    assert main(["verify", "--group", "c4,d2", "--size", "15"]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")


@pytest.mark.parametrize("option", ["--group", "--size", "--mode"])
@pytest.mark.parametrize("value", ["", " , "], ids=["empty", "blank"])
def test_verify_empty_option_is_usage_error(option, value, capsys):
    args = {"--group": "c4", "--size": "3", "--mode": "bilinear", option: value}
    code = main(["verify", *(item for pair in args.items() for item in pair)])
    captured = capsys.readouterr()
    assert code == 2
    assert option in captured.err
    assert "PASS" not in captured.out


def test_import_does_not_load_scipy():
    src = str(Path(filtra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, filtra, filtra.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert result.stdout.strip() == "[]"


def _verify_under_blas_threads(threads, report):
    src = str(Path(filtra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(threads)
    argv = ["verify", "--group", "d8,c16", "--size", "9", "--seed", "1", "--report", str(report)]
    result = subprocess.run(
        [sys.executable, "-m", "filtra.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout, report.read_bytes()


def test_verify_is_deterministic_across_blas_threads_except_feature_residuals(tmp_path):
    # the feature check's matrix products may round differently when BLAS
    # splits them across threads; the report and every verdict must not move
    out1, csv1 = _verify_under_blas_threads(1, tmp_path / "one.csv")
    out2, csv2 = _verify_under_blas_threads(2, tmp_path / "two.csv")
    assert csv1 == csv2
    assert out1.endswith("PASS\n")

    def without_feature(out):
        return [[field for field in line.split() if not field.startswith("feature=")] for line in out.splitlines()]

    assert without_feature(out1) == without_feature(out2)


def test_gen_requires_k(base_csv, tmp_path, capsys):
    code = main(
        ["gen", "--group", "c4", "--kind", "irrep2reg", "--base", str(base_csv),
         "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert "requires --k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--group", "c4", "--kind", "irrep2reg", "--k", "9"],
         "--k: rotation frequency k=9 out of range 0..2"),
        (["gen", "--group", "d4", "--kind", "irrep2reg", "--j", "3", "--k", "1"],
         "--j: reflection frequency j must be 0 or 1, got 3"),
        (["gen", "--group", "c4", "--kind", "irrep2reg", "--j", "1", "--k", "1"],
         "--j: c4 has no reflections: j must be 0"),
        (["gen", "--group", "c4", "--kind", "reg2reg"],
         "--base: expected 3 base filters for c4, got 1"),
        (["verify", "--group", "c4", "--mode", "bilinear,bicubic"],
         "--mode: unknown interpolation mode 'bicubic': expected one of ('bilinear', 'nearest')"),
        (["demo", "--group", "c8", "--k", "9"], "--k: rotation frequency k=9 out of range 0..4"),
        (["demo", "--group", "c8", "--j", "3"],
         "--j: reflection frequency j must be 0 or 1, got 3"),
        (["gen", "--group", "c4", "--kind", "triv2reg", "--k", "9", "--j", "5"],
         "--j: triv2reg takes no irrep frequency; only irrep2reg does"),
        (["gen", "--group", "d4", "--kind", "triv2reg", "--j", "0"],
         "--j: triv2reg takes no irrep frequency; only irrep2reg does"),
        (["gen", "--group", "c4", "--kind", "reg2reg", "--k", "1"],
         "--k: reg2reg takes no irrep frequency; only irrep2reg does"),
        (["gen", "--group", "c4", "--kind", "orn", "--k", "0"],
         "--k: orn takes no irrep frequency; only irrep2reg does"),
        (["gen", "--group", "d4", "--kind", "orn", "--j", "1"],
         "--j: orn takes no irrep frequency; only irrep2reg does"),
        (["gen", "--group", "d4", "--kind", "orn"],
         "--kind: orn kernels are defined on cyclic groups only, got --group d4"),
        (["gen", "--group", "c8", "--kind", "orn", "--base", "{base},{base}"], "--base: orn takes exactly one base filter"),
        (["gen", "--group", "c4", "--kind", "triv2reg", "--out", "{base}"],
         "--out: [Errno 17] File exists: '{base}'"),
        (["demo", "--group", "c8", "--image", "{tmp}/missing.csv"],
         "--image: unreadable base filter file: {tmp}/missing.csv"),
        # the suite would print a line per family: it must not start
        (["verify", "--group", "c4", "--report", "{tmp}"], "--report: [Errno 21] Is a directory: '{tmp}'"),
        (["verify", "--group", "c4", "--report", "{tmp}/missing/report.csv"],
         "--report: [Errno 2] No such file or directory: '{tmp}/missing/report.csv'"),
        (["gen", "--group", "c4", "--kind", "triv2reg", "--base", "{tmp}/missing.csv"],
         "--base: [Errno 2] No such file or directory: '{tmp}/missing.csv'"),
        (["capacity", "--group", "d8", "--size", "3"],
         "--group: capacity accounting is defined for cyclic groups, e.g. c8"),
        (["demo", "--group", "c8", "--out", "{base}"],
         "--out: [Errno 20] Not a directory: '{base}/triv2reg_cyclic'"),
        # an input file must be UTF-8, and its message starts with its path
        (["gen", "--group", "c4", "--kind", "triv2reg", "--base", "{latin1}"],
         "{latin1}: not UTF-8 text (invalid start byte at byte 0)"),
        (["demo", "--group", "c8", "--image", "{latin1}"], "{latin1}: not UTF-8 text (invalid start byte at byte 0)"),
        # an empty output path would write into the current directory, or nowhere
        (["gen", "--group", "c4", "--kind", "triv2reg", "--out", ""], "--out: empty path; name the output directory"),
        (["demo", "--group", "c8", "--out", ""], "--out: empty path; name the output directory"),
        (["verify", "--group", "c4", "--report", ""], "--report: [Errno 2] No such file or directory: ''"),
        # an Arabic-Indic digit three, which `int` reads as 3
        (["verify", "--group", "c\u0663", "--size", "3"], "bad group name 'c\u0663': expected c<N> or d<N>"),
        # integers take ASCII digits only: `int` reads these as 3, 15 and 0 and 1
        (["capacity", "--group", "c8", "--size", "\u0663"], "--size must be a positive odd integer, got \u0663"),
        (["verify", "--group", "c4", "--size", "1_5"], "--size must be a positive odd integer, got 1_5"),
        (["decompose", "--group", "c4", "--element", "\u0660,\u0661"],
         "--element expects two integers i0,i1, got '\u0660'"),
    ],
    ids=["gen-k", "gen-j", "gen-cyclic-j", "gen-base-count", "verify-mode", "demo-k", "demo-j",
         "gen-triv2reg-j-k", "gen-triv2reg-j", "gen-reg2reg-k", "gen-orn-k", "gen-orn-dihedral-j",
         "gen-orn-dihedral", "gen-orn-two-bases", "gen-out-file", "demo-image-missing", "verify-report-dir", "verify-report-no-parent",
         "gen-base-missing", "capacity-dihedral", "demo-out-file", "gen-base-not-utf8", "demo-image-not-utf8",
         "gen-out-empty", "demo-out-empty", "verify-report-empty", "verify-group-non-ascii-digit",
         "capacity-size-non-ascii-digit", "verify-size-underscore", "decompose-element-non-ascii-digits"],
)
def test_parameter_errors_name_the_option(argv, message, base_csv, tmp_path, capsys, monkeypatch):
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"\xff\xfeS=3\n")
    paths = {"base": base_csv, "tmp": tmp_path, "latin1": latin1}
    argv = [arg.format(**paths) for arg in argv]
    # the case's own --out or --image comes last and wins
    files = {"gen": ["--base", str(base_csv)], "demo": ["--image", str(base_csv)]}
    if argv[0] in files:
        argv = argv[:1] + files[argv[0]] + ["--out", str(tmp_path / "out")] + argv[1:]
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"filtra: error: {message.format(**paths)}\n"
    assert sorted(tmp_path.rglob("*")) == before  # nothing is written


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["verify", "--group", "c4", "--seed", "\u0661"], "--seed", "\u0661"),
        (["verify", "--group", "c4", "--seed", " 1"], "--seed", " 1"),
        (["gen", "--group", "c4", "--kind", "irrep2reg", "--k", "\u0661", "--base", "{base}", "--out", "{out}"],
         "--k", "\u0661"),
        (["gen", "--group", "d4", "--kind", "irrep2reg", "--j", "0_1", "--k", "1", "--base", "{base}", "--out", "{out}"],
         "--j", "0_1"),
        (["demo", "--group", "c8", "--k", "+1", "--image", "{base}", "--out", "{out}"], "--k", "+1"),
    ],
    ids=["verify-seed-non-ascii-digit", "verify-seed-space", "gen-k-non-ascii-digit", "gen-j-underscore",
         "demo-k-plus"],
)
def test_integer_options_take_ascii_digits_only(argv, option, text, base_csv, tmp_path, capsys):
    # argparse rejects these before a command runs, so its usage line comes first
    out = tmp_path / "out"
    assert main([arg.format(base=base_csv, out=out) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument {option}: expected an integer in ASCII digits, got {text!r}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["S=3\n1,2,3\n4,5\n7,8,9\n", "S=3\n1,2,3\n4,x,6\n7,8,9\n", "S=abc\n1\n"],
    ids=["ragged", "non-numeric", "bad-size"],
)
def test_gen_malformed_base_names_file(text, tmp_path, capsys):
    base = tmp_path / "broken.csv"
    base.write_text(text)
    code = main(["gen", "--group", "c4", "--kind", "triv2reg", "--base", str(base), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"filtra: error: {base}:")
    assert "inhomogeneous" not in err and "could not convert" not in err and "invalid literal" not in err


def test_gen_writes_grids(base_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["gen", "--group", "c4", "--kind", "triv2reg", "--base", str(base_csv),
         "--out", str(out)]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["r0_c0.csv", "r1_c0.csv", "r2_c0.csv", "r3_c0.csv"]


def test_gen_names_out_when_a_grid_cannot_be_written(base_csv, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "r0_c0.csv").mkdir(parents=True)
    code = main(["gen", "--group", "c4", "--kind", "triv2reg", "--base", str(base_csv), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"filtra: error: --out: [Errno 21] Is a directory: '{out / 'r0_c0.csv'}'\n"
    assert list(out.rglob("*")) == [out / "r0_c0.csv"]  # nothing else is written


def test_gen_orn_writes_the_circulant_kernel(base_csv, tmp_path, capsys):
    out = tmp_path / "orn"
    assert main(["gen", "--group", "c8", "--kind", "orn", "--base", str(base_csv), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 64 grids to {out}\n"
    grids = circulant_kernel(read_filter_csv(base_csv), 8, "bilinear").grids
    assert len(list(out.iterdir())) == 64
    for r in range(8):
        for c in range(8):
            assert read_filter_csv(out / f"r{r}_c{c}.csv").tobytes() == grids[r, c].tobytes()


def test_gen_reg2reg_base_count(base_csv, tmp_path):
    out = tmp_path / "out2"
    bases = ",".join([str(base_csv)] * 3)
    assert main(["gen", "--group", "c4", "--kind", "reg2reg", "--base", bases, "--out", str(out)]) == 0
    assert len(list(out.iterdir())) == 16
    assert main(["gen", "--group", "c4", "--kind", "reg2reg", "--base", str(base_csv), "--out", str(out)]) == 2


def test_gen_orn_cyclic_only(base_csv, tmp_path):
    assert main(["gen", "--group", "d4", "--kind", "orn", "--base", str(base_csv),
                 "--out", str(tmp_path / "x")]) == 2


def test_gen_pgm_format(base_csv, tmp_path):
    out = tmp_path / "pgm"
    assert main(["gen", "--group", "c2", "--kind", "triv2reg", "--base", str(base_csv),
                 "--out", str(out), "--format", "pgm"]) == 0
    content = (out / "r0_c0.pgm").read_text()
    assert content.startswith("P2\n3 3\n255\n")


def test_decompose_text_and_csv(capsys):
    assert main(["decompose", "--group", "d4", "--element", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "reconstruction residual" in out
    assert main(["decompose", "--group", "c4", "--element", "0,1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("matrix,regular")
    assert "residual," in out


def test_decompose_bad_element(capsys):
    assert main(["decompose", "--group", "c4", "--element", "7"]) == 2
    # an index out of range for the group names the option and the value
    for element, index in [("0,9", "rotation index 9"), ("2,0", "reflection index 2")]:
        capsys.readouterr()
        assert main(["decompose", "--group", "c4", "--element", element]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"filtra: error: --element {element!r}: {index} out of range for c4\n"


@pytest.mark.parametrize("element", ["0,x", "x,0", "0,1.5"])
def test_decompose_non_integer_element_names_option(element, capsys):
    assert main(["decompose", "--group", "c4", "--element", element]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = next(part for part in element.split(",") if not part.isdigit())
    assert captured.err == f"filtra: error: --element expects two integers i0,i1, got {bad!r}\n"


def test_verify_rejects_negative_seed(capsys):
    assert main(["verify", "--group", "c4", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "filtra: error: --seed must be a non-negative integer, got -1\n"


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    def no_memory(g):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(filtra.cli, "regular_rep_matrix", no_memory)
    assert main(["decompose", "--group", "c100000", "--element", "0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("filtra: error: decompose")
    assert "allocate" not in captured.err and "shape" not in captured.err


def test_demo(base_csv, tmp_path, capsys):
    out = tmp_path / "demo"
    code = main(["demo", "--image", str(base_csv), "--group", "c8", "--j", "1", "--k", "1",
                 "--out", str(out)])
    assert code == 0
    assert (out / "stack" / "r7_c0.pgm").is_file()
    assert (out / "irrep2reg_dihedral" / "r15_c1.pgm").is_file()
    # deterministic: running twice produces byte-identical dumps
    first = (out / "stack" / "r3_c0.pgm").read_bytes()
    assert main(["demo", "--image", str(base_csv), "--group", "c8", "--out", str(out)]) == 0
    assert (out / "stack" / "r3_c0.pgm").read_bytes() == first


def test_demo_unreadable_image(tmp_path, capsys):
    code = main(["demo", "--image", str(tmp_path / "missing.csv"), "--group", "c8",
                 "--out", str(tmp_path / "d")])
    assert code == 2
    assert "missing.csv" in capsys.readouterr().err


def test_usage_errors():
    assert main([]) == 2
    assert main(["gen", "--group", "c4", "--kind", "nope", "--base", "x", "--out", "y"]) == 2
