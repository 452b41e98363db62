import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from filtra.fileio import read_filter_csv, write_filter_csv, write_pgm


def test_filter_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(-1, 1, (5, 5))
    path = tmp_path / "f.csv"
    write_filter_csv(path, values)
    assert path.read_text().splitlines()[0] == "S=5"
    assert_array_equal(read_filter_csv(path), values)


EXTREME_FLOATS = [
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    sys.float_info.min * (1 - 2**-52),  # the largest subnormal
    sys.float_info.min,
    1e308,
    -1e308,
    sys.float_info.max,
    -sys.float_info.max,
]


@settings(max_examples=60, deadline=None)
@given(
    side=st.sampled_from([1, 3, 5]),
    data=st.data(),
)
def test_filter_csv_round_trip_is_bit_exact_property(side, data):
    value = st.sampled_from(EXTREME_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = np.array(data.draw(st.lists(value, min_size=side * side, max_size=side * side)))
    values = values.reshape(side, side)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        write_filter_csv(path, values)
        assert read_filter_csv(path).tobytes() == values.tobytes()


def test_filter_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("3\n1,2,3\n")
    with pytest.raises(ValueError):
        read_filter_csv(path)
    path.write_text("S=3\n1,2,3\n")
    with pytest.raises(ValueError):
        read_filter_csv(path)
    # `int` reads an Arabic-Indic three and 0_3 as 3: a header takes ASCII digits only
    for header in ("S=\u0663", "S=0_3", "S=\uff13"):
        path.write_text(header + "\n1,2,3\n4,5,6\n7,8,9\n")
        with pytest.raises(ValueError, match="S must be a positive integer"):
            read_filter_csv(path)
    # blank space around the header's value and the values stays accepted
    path.write_text("S= 3\n 1 ,2,3\n4,5,6\t\n7,8, 9\n")
    assert_array_equal(read_filter_csv(path), np.arange(1.0, 10.0).reshape(3, 3))


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("S=3\n1,2,3\n4,5\n7,8,9\n", 3, "expected 3 values, got 2"),  # ragged row
        ("S=3\n1,2,3\n4,x,6\n7,8,9\n", 3, "values must be numbers"),
        ("S=abc\n1\n", 1, "S must be a positive integer, got 'abc'"),
        ("\n\nS=1\n1,2\n", 4, "expected 1 values, got 2"),  # leading blank lines count
        # `int` and `float` read other scripts' digits and `_` separators
        ("S=\u0663\n1,2,3\n4,5,6\n7,8,9\n", 1, "S must be a positive integer, got '\u0663'"),
        ("S=1\n1_0\n", 2, "values must be numbers, got '1_0'"),
        ("S=1\n\u0669\n", 2, "values must be numbers, got '\u0669'"),
        ("S=3\n1,2,3\n4,nan,6\n7,8,9\n", 3, "values must be finite, got '4,nan,6'"),
    ],
    ids=["ragged", "non-numeric", "bad-size", "leading-blank-lines", "non-ascii-size", "underscore-value",
         "non-ascii-value", "nan-value"],
)
def test_filter_csv_errors_name_file_and_line(tmp_path, text, where, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_filter_csv(path)
    assert str(info.value).startswith(f"{path}:{where}: ")
    assert message in str(info.value)


def test_filter_csv_rejects_an_even_side(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("S=2\n1,2\n3,4\n")
    with pytest.raises(ValueError, match=f"^{path}: filter side length must be odd, got 2$"):
        read_filter_csv(path)


@pytest.mark.parametrize("read", [read_filter_csv])
def test_non_utf8_file_error_names_the_file(tmp_path, read):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xff\xfeS=3\n")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == f"{path}: not UTF-8 text (invalid start byte at byte 0)"


def test_pgm_output(tmp_path):
    values = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "v.pgm"
    write_pgm(path, values)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["P2", "2 2", "255"]
    assert lines[3].split() == ["0", "64"]
    assert lines[4].split() == ["128", "255"]
    # flat input stays deterministic
    write_pgm(path, np.zeros((2, 2)))
    assert path.read_text().splitlines()[3:] == ["0 0", "0 0"]
