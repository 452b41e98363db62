import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from filtra.features import feature_map
from filtra.fileio import (
    read_feature_csv,
    read_filter_csv,
    write_feature_csv,
    write_filter_csv,
    write_pgm,
)
from filtra.groups import dihedral_group
from filtra.representations import irrep


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


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("S=3\n1,2,3\n4,5\n7,8,9\n", 3, "expected 3 values, got 2"),  # ragged row
        ("S=3\n1,2,3\n4,x,6\n7,8,9\n", 3, "values must be numbers"),
        ("S=abc\n1\n", 1, "S must be a positive integer, got 'abc'"),
        ("\n\nS=1\n1,2\n", 4, "expected 1 values, got 2"),  # leading blank lines count
    ],
    ids=["ragged", "non-numeric", "bad-size", "leading-blank-lines"],
)
def test_filter_csv_errors_name_file_and_line(tmp_path, text, where, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_filter_csv(path)
    assert str(info.value).startswith(f"{path}:{where}: ")
    assert message in str(info.value)


def test_feature_csv_round_trip(tmp_path):
    d4 = dihedral_group(4)
    rng = np.random.default_rng(1)
    f = feature_map(d4, irrep(d4, 0, 1), rng.uniform(-1, 1, (4, 3, 5)))  # multiplicity 2
    path = tmp_path / "feat.csv"
    write_feature_csv(path, f)
    header = path.read_text().splitlines()[0]
    assert header == "C=4,H=3,W=5,group=d4,rep=irrep:0:1,mult=2"
    back = read_feature_csv(path)
    assert back.group == f.group and back.rep == f.rep
    assert_array_equal(back.data, f.data)


def test_feature_csv_rejects_inconsistent_header(tmp_path):
    path = tmp_path / "feat.csv"
    lines = ["C=3,H=1,W=1,group=d4,rep=irrep:0:1,mult=2", "1", "2", "3"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_feature_csv(path)


@pytest.mark.parametrize(
    "lines, where, message",
    [
        (["C=1,H=1,group=c4,rep=trivial,mult=1", "1"], 1, "header lacks W"),
        (["C=1,H=1,W=1,group=c4,rep=trivial,mult", "1"], 1, "header item 'mult' is not of the form key=value"),
        (["C=1,H=x,W=1,group=c4,rep=trivial,mult=1", "1"], 1, "H must be a positive integer, got 'x'"),
        (["C=2,H=1,W=1,group=c4,rep=irrep:0:y,mult=1", "1", "2"], 1, "bad representation token 'irrep:0:y'"),
        (["C=1,H=2,W=2,group=c4,rep=trivial,mult=1", "1,2", "3"], 3, "expected 2 values, got 1"),
        (["C=1,H=1,W=2,group=c4,rep=trivial,mult=1", "1,z"], 2, "values must be numbers"),
        (["C=1,H=2,W=2,group=c4,rep=trivial,mult=1", "1,2", "nan,3"], 3, "values must be finite"),
        (["C=1,H=1,W=2,group=c4,rep=trivial,mult=1", "-inf,1"], 2, "values must be finite"),
        (["C=1,H=1,W=2,group=c4,rep=trivial,mult=1", "1,1e999"], 2, "values must be finite"),
    ],
    ids=["missing-field", "not-key-value", "bad-int", "bad-rep", "ragged", "non-numeric", "nan", "inf", "overflow"],
)
def test_feature_csv_errors_name_file_and_line(tmp_path, lines, where, message):
    path = tmp_path / "feat.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_feature_csv(path)
    assert str(info.value).startswith(f"{path}:{where}: ")
    assert message in str(info.value)


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
