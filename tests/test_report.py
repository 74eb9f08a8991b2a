import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncwishart import (
    CheckRecord,
    MatrixFileError,
    Provenance,
    Report,
    coords_to_matrix,
    read_matrix_file,
    write_matrix_file,
    write_samples_csv,
)
from ncwishart.report import coordinate_names, format_float
from ncwishart.symcore import lebesgue_coords
from ncwishart.verify import RunConfig, run_suite


def record(name="check", value=1.0, expected=1.0, tol=0.0, passed=True, detail=""):
    return CheckRecord(name, value, expected, tol, passed, Provenance.CLOSED_FORM, detail)


# ---------------------------------------------------------------------------
# Float formatting


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_roundtrips(v):
    assert float(format_float(v)) == v


def test_format_float_examples():
    assert format_float(0.5) == "0.5"
    assert float(format_float(1 / 3)) == 1 / 3


# ---------------------------------------------------------------------------
# Records and reports


def test_record_dict_uses_pass_key():
    d = record(passed=False).to_dict()
    assert d["pass"] is False
    assert d["provenance"] == "closed-form"


def test_report_pass_and_failures():
    rep = Report("verify --suite all", {"seed": 0})
    rep.add(record())
    assert rep.passed and rep.failures() == []
    bad = rep.add(record(name="other", passed=False))
    assert not rep.passed and rep.failures() == [bad]


def test_report_json_schema_and_stability():
    rep = Report("laplace", {"seed": 3, "d": 2})
    rep.add(record(value=2.5, expected=2.5))
    rep.timing = 1.234
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 1
    assert doc["timing"] == 1.234
    assert "timing" not in json.loads(rep.to_json(include_timing=False))
    # byte stability apart from timing
    other = Report("laplace", {"d": 2, "seed": 3})
    other.add(record(value=2.5, expected=2.5))
    other.timing = 9.876
    assert rep.to_json(include_timing=False) == other.to_json(include_timing=False)


def test_suite_records_do_not_depend_on_thread_count():
    # the threaded checks draw from per-item generators; this guards their
    # draw order across the pool
    docs = [
        json.loads(run_suite("all", RunConfig(seed=0, trials=20, threads=t)).to_json())["results"]
        for t in (1, 2)
    ]
    assert docs[0] == docs[1]


def test_report_csv_escaping():
    rep = Report("verify", {})
    rep.add(record(detail='has, comma and "quote"'))
    lines = rep.to_csv().splitlines()
    assert lines[0] == "name,value,expected,tolerance,pass,provenance,detail"
    assert lines[1].endswith('"has, comma and ""quote"""')


def test_csv_floats_are_17_digit():
    rep = Report("verify", {})
    rep.add(record(value=1 / 3, expected=None, tol=1e-10))
    row = rep.to_csv().splitlines()[1].split(",")
    assert float(row[1]) == 1 / 3
    assert row[2] == ""
    assert float(row[3]) == 1e-10
    assert row[4] == "true"


# ---------------------------------------------------------------------------
# Matrix files


def test_matrix_file_roundtrip(tmp_path, rng):
    a = rng.standard_normal((3, 3))
    a = 0.5 * (a + a.T)
    path = tmp_path / "m.txt"
    write_matrix_file(str(path), a)
    assert np.array_equal(read_matrix_file(str(path)), a)


def test_matrix_file_symmetrizes_with_warning(tmp_path):
    path = tmp_path / "asym.txt"
    path.write_text("2\n1.0 0.5\n0.3 2.0\n")
    with pytest.warns(UserWarning, match="asymmetry"):
        m = read_matrix_file(str(path))
    assert m[0, 1] == m[1, 0] == 0.4


def test_matrix_file_small_asymmetry_is_silent(tmp_path, recwarn):
    path = tmp_path / "near.txt"
    path.write_text("2\n1.0 0.5\n0.5000000000000001 2.0\n")
    read_matrix_file(str(path))
    assert not [w for w in recwarn if "asymmetry" in str(w.message)]


@pytest.mark.parametrize(
    "text, location",
    [
        ("", ":1:1"),
        ("x\n", ":1:1"),
        ("0\n", ":1:1"),
        ("2\n1.0 2.0\n", ":3:1"),
        ("2\n1.0\n2.0 3.0\n", ":2:1"),
        ("2\n1.0 oops\n0.0 1.0\n", ":2:5"),
        ("1\n1.0\nleftover\n", ":3:1"),
    ],
)
def test_matrix_file_errors_carry_location(tmp_path, text, location):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MatrixFileError, match=location):
        read_matrix_file(str(path))


def test_matrix_file_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "ok.txt"
    path.write_text("1\n2.5\n\n   \n")
    assert read_matrix_file(str(path)) == np.array([[2.5]])


# ---------------------------------------------------------------------------
# Sample CSV


def test_coordinate_names_match_lebesgue_order():
    assert coordinate_names(2) == ["x1_1", "x2_2", "sqrt2*x1_2"]
    x = np.array([[1.0, 3.0], [3.0, 2.0]])
    coords = lebesgue_coords(x)
    assert coords[0] == 1.0 and coords[1] == 2.0


def test_write_samples_csv_roundtrip(rng):
    draws = rng.standard_normal((4, 2, 2))
    draws = 0.5 * (draws + np.swapaxes(draws, 1, 2))
    log_w = rng.standard_normal(4)
    buf = io.StringIO()
    write_samples_csv(buf, draws, log_w)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x1_1,x2_2,sqrt2*x1_2,weight"
    assert len(lines) == 5
    cells = [float(c) for c in lines[1].split(",")]
    assert np.allclose(coords_to_matrix(cells[:3], 2), draws[0], atol=0)
    assert cells[3] == pytest.approx(np.exp(log_w[0]), rel=1e-15)


def test_write_samples_csv_without_weights(tmp_path, rng):
    draws = np.broadcast_to(np.eye(2), (3, 2, 2))
    path = tmp_path / "draws.csv"
    write_samples_csv(str(path), draws)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1_1,x2_2,sqrt2*x1_2"
    assert lines[1] == "1,1,0"


def test_write_samples_csv_validates(rng):
    with pytest.raises(ValueError):
        write_samples_csv(io.StringIO(), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        write_samples_csv(io.StringIO(), np.zeros((3, 2, 2)), log_weights=[0.0])


def _reference_samples_csv(draws, log_weights=None) -> str:
    """The writer as one loop over draws: lebesgue_coords, then format_float."""
    d = draws.shape[1]
    header = coordinate_names(d) + (["weight"] if log_weights is not None else [])
    if log_weights is not None:
        with np.errstate(over="ignore"):
            weights = np.exp(np.asarray(log_weights, dtype=float))
    lines = [",".join(header)]
    for i in range(draws.shape[0]):
        cells = [format_float(v) for v in lebesgue_coords(draws[i])]
        if log_weights is not None:
            cells.append(format_float(weights[i]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_write_samples_csv_matches_per_row_reference(d):
    rng = np.random.default_rng(d)
    n = 5000  # more than one block of rows
    g = rng.standard_normal((n, d, d)) * np.exp(rng.uniform(-30.0, 30.0, (n, 1, 1)))
    draws = g @ np.swapaxes(g, 1, 2)
    # asymmetry inside the tolerance: the written entries are the averages
    draws[:7] += 1e-12 * rng.standard_normal((7, d, d))
    draws[7] = 0.0
    draws[8] = -0.0
    log_w = rng.normal(0.0, 3.0, n)
    for weights in (None, log_w):
        buf = io.StringIO()
        write_samples_csv(buf, draws, weights)
        assert buf.getvalue() == _reference_samples_csv(draws, weights)


def test_write_samples_csv_empty_stack_writes_header_only():
    buf = io.StringIO()
    write_samples_csv(buf, np.zeros((0, 3, 3)), np.zeros(0))
    assert buf.getvalue() == ",".join(coordinate_names(3) + ["weight"]) + "\n"


def test_write_samples_csv_read_only_broadcast_input():
    a = np.array([[2.0, -0.25, 1e-300], [-0.25, 3.5, 7.0], [1e-300, 7.0, 1e10]])
    draws = np.broadcast_to(a, (4, 3, 3))
    assert not draws.flags.writeable
    buf = io.StringIO()
    write_samples_csv(buf, draws, np.arange(4.0))
    assert buf.getvalue() == _reference_samples_csv(draws, np.arange(4.0))


def test_write_samples_csv_rejects_one_non_finite_draw(rng):
    draws = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    draws[3, 1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        write_samples_csv(io.StringIO(), draws)


def test_write_samples_csv_asymmetry_scale_is_per_draw():
    # asymmetry 1e-6 is far above 1e-9 for a draw of unit entries, but
    # below it on the scale of the 1e6 draw beside it
    small = np.array([[1.0, 0.5], [0.5 + 1e-6, 1.0]])
    large = np.full((2, 2), 1e6)
    with pytest.raises(ValueError, match="not symmetric"):
        write_samples_csv(io.StringIO(), np.stack([large, small]))
    write_samples_csv(io.StringIO(), np.stack([large, large + small - small.T]))


def test_write_samples_csv_warns_on_weight_overflow():
    draws = np.broadcast_to(np.eye(2), (3, 2, 2))
    log_w = np.array([0.0, 800.0, 1.5])
    buf = io.StringIO()
    with pytest.warns(RuntimeWarning, match="800"):
        write_samples_csv(buf, draws, log_w)
    assert buf.getvalue() == _reference_samples_csv(draws, log_w)
    assert buf.getvalue().splitlines()[2].endswith(",inf")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_samples_csv(io.StringIO(), draws, np.array([0.0, 700.0, -800.0]))
