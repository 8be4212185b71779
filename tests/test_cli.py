"""Tests for the command-line interface: subcommands and exit codes."""

import numpy as np
import pytest

import specvar as sv
from specvar.cli import main


@pytest.fixture
def matrix_file(tmp_path):
    def _write(name, m):
        path = tmp_path / name
        sv.write_matrix(path, np.asarray(m, dtype=complex))
        return str(path)

    return _write


def test_delta(matrix_file, capsys):
    path = matrix_file("m.json", [[0.0, 1.0], [0.0, 0.0]])
    assert main(["delta", "--matrix", path]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


def test_match_square_inputs(matrix_file, capsys):
    a = matrix_file("a.json", np.diag([1.0, 2.0]))
    b = matrix_file("b.json", np.diag([1.5, 2.5]))
    assert main(["match", "--a", a, "--b", b]) == 0
    out = capsys.readouterr().out
    assert "d2" in out and "d_inf" in out
    d2 = float(out.splitlines()[0].split("=")[1])
    assert d2 == pytest.approx(np.sqrt(0.5), rel=1e-10)


def test_match_vector_inputs(matrix_file, capsys):
    a = matrix_file("a.json", np.array([[1.0, 2.0, 3.0]]))
    b = matrix_file("b.json", np.array([[3.1, 1.1, 2.1]]))
    assert main(["match", "--a", a, "--b", b, "--brute-force"]) == 0
    d2 = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
    assert d2 == pytest.approx(np.sqrt(3) * 0.1, rel=1e-9)


def test_s_number(matrix_file, capsys):
    path = matrix_file("m.json", [[0.0, 1.0], [0.0, 0.0]])
    assert main(["s-number", "--matrix", path]) == 0
    assert "s = 1" in capsys.readouterr().out


def test_s_number_past_the_commutant_size_cap(matrix_file, capsys):
    rng = np.random.default_rng(1)
    path = matrix_file("m.json", rng.standard_normal((200, 200)))
    assert main(["s-number", "--matrix", path]) == 0
    assert "s = " in capsys.readouterr().out


def test_bound_exit_zero(tmp_path, matrix_file, capsys):
    rng = np.random.default_rng(0)
    q = sv.random_conditioned(3, 4.0, rng)
    spec = sv.make_jordan_spec([(1.0, 2), (2.5, 1)], q)
    spec_path = tmp_path / "spec.json"
    sv.write_jordan_spec(spec_path, spec)
    e = sv.complex_gaussian(3, 3, rng) * 0.1
    e_path = matrix_file("e.json", e)
    assert main(["bound", "--jordan", str(spec_path), "--perturbation", e_path]) == 0
    out = capsys.readouterr().out
    assert "D2" in out
    assert "UP1_1" in out
    assert "VIOLATION" not in out


def test_sweep_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code = main(
        ["sweep", "--seed", "3", "--trials", "5", "--n-min", "2", "--n-max", "5",
         "--kappa", "5", "--out", str(out_path), "--format", "csv"]
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "trial,bound_id,branch,value,d2,slack"
    assert "violation_count" in capsys.readouterr().out


def test_sweep_structured_report(tmp_path):
    out_path = tmp_path / "report.json"
    code = main(
        ["sweep", "--trials", "3", "--out", str(out_path),
         "--format", "structured-text"]
    )
    assert code == 0
    rep = sv.read_report(out_path)
    assert rep.summary["trials"] == 3


def test_example_default(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "SONG" in out and "UP2_3" in out


def test_example_rejects_bad_t(capsys):
    assert main(["example", "--t", "0.9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["delta", "--matrix", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert main(["delta", "--matrix", str(tmp_path / "none.json")]) == 2
    capsys.readouterr()
