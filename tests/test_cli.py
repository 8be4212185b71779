"""Tests for the command-line interface: subcommands and exit codes."""

import dataclasses
import warnings

import numpy as np
import pytest

import specvar as sv
from specvar import harness
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


BOUND_HEAD = (
    "n=3 p=2 m=2 |E_Q|=0.6157708902561392 delta(E_Q)=0.608329818729026\n"
    "D2 = {d2}\n"
    "bound          branch                                value                    slack\n"
)
BOUND_JORDAN_ROWS = [
    "SONG           ||E_Q||_F < 1            2.7183176199763097",
    "LI_CHEN        ||E_Q||_F < 1            2.4432904201625036",
    "UP1_1          ||E_Q||_F < 1            2.4304131448795587",
    "UP1_2          delta(E_Q) < 1           2.4247636056810657",
    "UP1_3          C1                       2.3331013102925597",
    "UP2_1          ||E_Q||_F < 1            2.4304131448795587",
    "UP2_2          delta(E_Q) < 1           2.4247636056810657",
    "UP2_3          C1                       2.3331013102925597",
]


def bound_main(tmp_path, matrix_file, lam):
    """``specvar bound`` on blocks (lam, 2), (2.5, 1) under a kappa-4 Q and
    a 0.1-scaled gaussian E, written to spec.json and e.json: exit code."""
    rng = np.random.default_rng(0)
    q = sv.random_conditioned(3, 4.0, rng)
    spec = sv.make_jordan_spec([(lam, 2), (2.5, 1)], q)
    spec_path = tmp_path / "spec.json"
    sv.write_jordan_spec(spec_path, spec)
    e = sv.complex_gaussian(3, 3, rng) * 0.1
    e_path = matrix_file("e.json", e)
    return main(["bound", "--jordan", str(spec_path), "--perturbation", e_path])


def bound_output(tmp_path, matrix_file, capsys, lam):
    """:func:`bound_main`: exit code and stdout."""
    return bound_main(tmp_path, matrix_file, lam), capsys.readouterr().out


def test_bound_exit_zero(tmp_path, matrix_file, capsys):
    # the row view, byte for byte
    slacks = (
        "        2.030559634836807", "       1.7555324350230008", "        1.742655159740056",
        "        1.737005620541563", "        1.645343325153057", "        1.742655159740056",
        "        1.737005620541563", "        1.645343325153057",
    )
    assert bound_output(tmp_path, matrix_file, capsys, 1.0) == (0, (
        BOUND_HEAD.format(d2="0.6877579851395028")
        + "".join(row + slack + "\n" for row, slack in zip(BOUND_JORDAN_ROWS, slacks))
        + "UP3_1          ||E_Q||_F < 1            1.9851888852649633       1.2974309001254605\n"
        "UP3_2          delta(E_Q) < 1            1.980577837215092       1.2928198520755891\n"
        "UP3_3          C1                        1.905765993776926       1.2180080086374232\n"
    ))


def test_bound_prints_inapplicable_rows(tmp_path, matrix_file, capsys):
    # a complex eigenvalue: the UP3 rows carry their reason instead of a value
    slacks = (
        "        2.072271337583945", "        1.797244137770139", "        1.784366862487194",
        "        1.778717323288701", "        1.687055027900195", "        1.784366862487194",
        "        1.778717323288701", "        1.687055027900195",
    )
    inapplicable = (
        "-                             inapplicable: prescribed eigenvalues are not all real\n"
    )
    assert bound_output(tmp_path, matrix_file, capsys, 1.0 + 1.0j) == (0, (
        BOUND_HEAD.format(d2="0.6460462823923648")
        + "".join(row + slack + "\n" for row, slack in zip(BOUND_JORDAN_ROWS, slacks))
        + "".join(f"UP3_{k}          " + inapplicable for k in (1, 2, 3))
    ))


def test_bound_flags_the_violations_of_its_trial(tmp_path, matrix_file, capsys, monkeypatch):
    # D2 inflated to 2.44, between the bound values: exit 1, and VIOLATION
    # on exactly the ids run_trial records for the same instance
    real_match = harness.optimal_match
    monkeypatch.setattr(harness, "optimal_match",
                        lambda a, b: dataclasses.replace(real_match(a, b), d2=2.44))
    assert bound_main(tmp_path, matrix_file, 1.0) == 1
    flagged = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.endswith("  VIOLATION")]
    spec_path = tmp_path / "spec.json"
    inst = sv.make_instance(sv.read_jordan_spec(spec_path), sv.read_matrix(tmp_path / "e.json"))
    config = sv.SweepConfig(block_profile="user-file", jordan_file=str(spec_path))
    violations = sv.run_trial(inst, config, 0).violations
    assert flagged == violations
    assert violations and not {"SONG", "LI_CHEN"} & set(violations)  # some, not all


def test_bound_reports_an_infrastructure_failure(tmp_path, matrix_file, capsys, monkeypatch):
    # a failed eigensolve is not a verdict: exit 2 and the failure, no rows
    def stalled(inst):
        raise sv.EigensolverError("iteration stalled")

    monkeypatch.setattr(harness, "perturbed_spectrum", stalled)
    assert bound_main(tmp_path, matrix_file, 1.0) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: EigensolverError: iteration stalled\n"


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


def test_sweep_rejects_an_amount_whose_squares_overflow(capsys):
    # exit 1 means "violation found"; a float overflow must not read as one
    assert main(["sweep", "--trials", "2", "--amount", "1e160", "--seed", "1"]) == 2
    assert "could overflow" in capsys.readouterr().err


def test_bound_rejects_a_perturbation_whose_squares_overflow(tmp_path, matrix_file, capsys):
    # the sweep's cap on kappa * n * ||E||_F: an overflow in the bound
    # formulas would otherwise exit 1, the code for a violation
    spec_path = tmp_path / "spec.json"
    sv.write_jordan_spec(spec_path, sv.make_jordan_spec([(1.0, 2), (4.0, 1)]))
    e_path = matrix_file("e.json", np.full((3, 3), 1e160))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # ||E||_F is finite: no overflow on the way
        assert main(["bound", "--jordan", str(spec_path), "--perturbation", e_path]) == 2
    assert "error:" in (err := capsys.readouterr().err) and "could overflow" in err
    assert "amount 3e+160 " in err


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
