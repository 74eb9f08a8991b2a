import json
import math

import numpy as np
import pytest

from ncwishart import CheckRecord, Provenance, coords_to_matrix, write_matrix_file
from ncwishart import verify
from ncwishart.cli import main


def write_mat(tmp_path, name, m):
    path = tmp_path / name
    write_matrix_file(str(path), np.asarray(m, dtype=float))
    return str(path)


# ---------------------------------------------------------------------------
# exist


def test_exist_continuous_shape(capsys):
    assert main(["exist", "--d", "3", "--two-p", "2", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "m(2p=2.0, k=1, d=3) exists" in out
    assert "continuous range" in out


def test_exist_integer_shape(capsys):
    assert main(["exist", "--d", "3", "--two-p", "1", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "exists" in out and "integer in 1..d-2" in out


def test_exist_refused_rank(capsys):
    assert main(["exist", "--d", "3", "--two-p", "1", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "does not exist" in out and "rank 2 > 1" in out


def test_exist_rank_from_w_file(tmp_path, capsys):
    w = write_mat(tmp_path, "w.txt", np.diag([1.0, 1.0, 0.0]))
    assert main(["exist", "--two-p", "2", "--w-file", w]) == 0
    assert "k=2, d=3) exists" in capsys.readouterr().out


def test_exist_dimension_conflict(tmp_path, capsys):
    w = write_mat(tmp_path, "w.txt", np.eye(2))
    assert main(["exist", "--two-p", "2", "--d", "3", "--w-file", w]) == 2
    assert "contradicts" in capsys.readouterr().err


def test_exist_needs_d_or_w(capsys):
    assert main(["exist", "--two-p", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_exist_report_output(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["exist", "--d", "2", "--two-p", "1.5", "--output", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1 and doc["pass"] is True
    (rec,) = doc["results"]
    assert rec["name"] == "existence-verdict" and rec["value"] == "exists"
    assert "continuous range" in rec["detail"]


def test_exist_report_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["exist", "--d", "2", "--two-p", "1", "--format", "csv", "--output", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "name,value,expected,tolerance,pass,provenance,detail"
    assert lines[1].startswith("existence-verdict,exists,")


# ---------------------------------------------------------------------------
# laplace


def test_laplace_canonical_value(tmp_path, capsys):
    s = write_mat(tmp_path, "s.txt", 2.0 * np.eye(2))
    assert main(["laplace", "--s-file", s, "--two-p", "1", "--k", "2"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert float(first) == pytest.approx(math.e / 2.0, rel=1e-15)


def test_laplace_mc_check_m(tmp_path, capsys):
    s = write_mat(tmp_path, "s.txt", 2.0 * np.eye(2))
    code = main(
        ["laplace", "--s-file", s, "--two-p", "2", "--k", "1", "--mc-check", "--trials", "500"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "mc-cross-check" in out and "[pass]" in out


def test_laplace_mc_check_ncw(tmp_path, capsys):
    s = write_mat(tmp_path, "s.txt", 0.3 * np.eye(2))
    w = write_mat(tmp_path, "w.txt", 0.25 * np.eye(2))
    code = main(
        ["laplace", "--s-file", s, "--two-p", "2", "--w-file", w, "--mc-check", "--trials", "500"]
    )
    out = capsys.readouterr().out
    assert code == 0 and "[pass]" in out


def test_laplace_mc_check_refused_outside_weight_domain(tmp_path, capsys):
    # k exceeds the integer shape, so no importance sampler exists
    s = write_mat(tmp_path, "s.txt", 2.0 * np.eye(2))
    code = main(["laplace", "--s-file", s, "--two-p", "1", "--k", "2", "--mc-check"])
    assert code == 2
    assert "cross-check unavailable" in capsys.readouterr().err


def test_laplace_needs_pd_argument(tmp_path, capsys):
    s = write_mat(tmp_path, "s.txt", np.diag([1.0, -0.2]))
    assert main(["laplace", "--s-file", s, "--two-p", "1", "--k", "1"]) == 2
    assert "positive definite" in capsys.readouterr().err


def test_laplace_k_and_w_are_exclusive(tmp_path, capsys):
    s = write_mat(tmp_path, "s.txt", np.eye(2))
    w = write_mat(tmp_path, "w.txt", np.zeros((2, 2)))
    assert main(["laplace", "--s-file", s, "--two-p", "1", "--k", "1", "--w-file", w]) == 2
    assert main(["laplace", "--s-file", s, "--two-p", "1"]) == 2
    capsys.readouterr()


def test_laplace_refuses_nonexistent_measure(tmp_path, capsys):
    s = write_mat(tmp_path, "s.txt", np.eye(3))
    assert main(["laplace", "--s-file", s, "--two-p", "1", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "refusing:" in err and "rank 2 > 1" in err


def test_laplace_beyond_double_range_is_usage_error(tmp_path, capsys):
    s = write_mat(tmp_path, "s.txt", np.diag([1e-3, 1.0]))
    assert main(["laplace", "--s-file", s, "--two-p", "1", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "double range" in err and "Traceback" not in err


def test_laplace_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2\n1.0 oops\n0.0 1.0\n")
    assert main(["laplace", "--s-file", str(path), "--two-p", "1", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert ":2:5:" in err and "not a number" in err


def test_laplace_dim_flag_checked(tmp_path, capsys):
    s = write_mat(tmp_path, "s.txt", np.eye(2))
    assert main(["laplace", "--s-file", s, "--d", "3", "--two-p", "1", "--k", "1"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_fd_suite_reports_and_is_stable(tmp_path, capsys):
    args = ["verify", "--suite", "fd", "--format", "csv"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    out = capsys.readouterr().out
    assert "[pass] fd-split-d2" in out and "records pass" in out
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_verify_json_report_schema(tmp_path, capsys):
    out = tmp_path / "fd.json"
    assert main(["verify", "--suite", "fd", "--output", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["schema"] == 1
    assert doc["inputs"] == {"seed": 0, "suite": "fd", "trials": 10_000}
    assert doc["pass"] is True and doc["timing"] > 0
    assert {r["name"] for r in doc["results"]} == {"fd-split-d2", "fd-split-d3"}


def test_verify_failure_exits_one(monkeypatch, capsys):
    bad = CheckRecord("m111-lt", 1.0, 0.0, 1e-8, False, Provenance.QUADRATURE, "forced")
    monkeypatch.setitem(verify.CHECKS, "m111-lt", lambda config: [bad])
    monkeypatch.setitem(verify.SUITES, "d2", ("m111-lt",))
    assert main(["verify", "--suite", "d2"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] m111-lt" in out and "0/1 records pass" in out


def test_verify_rejects_bad_config(capsys):
    assert main(["verify", "--suite", "fd", "--trials", "0"]) == 2
    assert main(["verify", "--suite", "nope"]) == 2
    assert main(["verify", "--suite", "fd", "--tol", "1e-6"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sample


def test_sample_ncw_to_file(tmp_path, capsys):
    out = tmp_path / "draws.csv"
    code = main(
        ["sample", "--target", "ncw", "--d", "2", "--n", "3", "--n-draws", "20",
         "--seed", "7", "--output", str(out)]
    )
    assert code == 0
    assert f"wrote 20 rows to {out}" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "x1_1,x2_2,sqrt2*x1_2"
    assert len(lines) == 21


def test_sample_seed_reproducibility(tmp_path, capsys):
    args = ["sample", "--target", "m", "--d", "2", "--two-p", "2", "--k", "1",
            "--n-draws", "5", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    text = a.read_text()
    assert text == b.read_text()
    assert text.splitlines()[0].endswith(",weight")


def test_sample_refuses_nonexistent_measure(capsys):
    code = main(["sample", "--target", "m", "--d", "3", "--two-p", "1", "--k", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "refusing:" in err and "rank 2 > 1" in err


def test_sample_singular_r_stdout_rank(capsys):
    assert main(["sample", "--target", "singular-r", "--d", "2", "--n-draws", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x1_1,x2_2,sqrt2*x1_2,weight"
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        eigs = np.linalg.eigvalsh(coords_to_matrix(cells[:3], 2))
        assert abs(eigs[0]) < 1e-10 and eigs[1] > 1e-10
        assert cells[3] > 0


def test_sample_argument_errors(capsys):
    assert main(["sample", "--target", "singular-r"]) == 2
    assert main(["sample", "--target", "m", "--d", "2", "--two-p", "2"]) == 2
    assert main(["sample", "--target", "ncw", "--d", "2"]) == 2
    assert main(["sample", "--target", "bogus", "--d", "2"]) == 2
    capsys.readouterr()


def test_sample_ncw_w_dimension_mismatch(tmp_path, capsys):
    w = write_mat(tmp_path, "w.txt", np.eye(3))
    code = main(["sample", "--target", "ncw", "--d", "2", "--n", "2", "--w-file", w])
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# top level


# Each request is refused by the package with a ValueError or an OSError;
# {s} and {w} are 2x2 matrix files, {missing} a directory that is not there.
REFUSED = [
    (["laplace", "--s-file", "{s}", "--two-p", "1", "--k", "5"], "rank must be in 0..2"),
    (["sample", "--target", "m", "--d", "2", "--two-p", "2", "--k", "5"], "rank must be in 0..2"),
    (["sample", "--target", "m", "--d", "0", "--two-p", "2", "--k", "0"], "dim must be >= 1"),
    (["laplace", "--s-file", "{s}", "--two-p", "2", "--k", "1", "--mc-check", "--trials", "0"],
     "n_draws must be >= 1"),
    (["laplace", "--s-file", "{s}", "--two-p", "2", "--w-file", "{w}", "--mc-check", "--trials", "0"],
     "n_draws must be >= 1"),
    (["exist", "--d", "2", "--two-p", "1", "--output", "{missing}/report.json"], "No such file"),
    (["sample", "--target", "ncw", "--d", "2", "--n", "3", "--n-draws", "5",
      "--output", "{missing}/draws.csv"], "No such file"),
    (["sample", "--target", "ncw", "--d", "0", "--n", "3"], "w must be at least 1 x 1"),
]


@pytest.mark.parametrize(
    "argv, message",
    REFUSED,
    ids=["laplace-rank", "sample-m-rank", "sample-m-d0", "laplace-m-trials0",
         "laplace-ncw-trials0", "exist-output-dir", "sample-output-dir", "sample-ncw-d0"],
)
def test_refused_request_exits_two_with_one_error_line(tmp_path, capsys, argv, message):
    paths = {
        "s": write_mat(tmp_path, "s.txt", np.eye(2)),
        "w": write_mat(tmp_path, "w.txt", 0.25 * np.eye(2)),
        "missing": str(tmp_path / "missing"),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["laplace", "--help"]) == 0
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
