"""Tests for the benchmark's own code: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import cases
import compare
import run
import tracing
import workloads

sv = run.import_program()


def module_state():
    return {
        name: dict(vars(module))
        for name, module in run.modules_of(sv).items()
    }


def tiny_sweep(s_mode):
    return workloads.SweepWorkload(
        "tiny", [dict(target_kappa=10.0, amount=0.5, s_mode=s_mode, n_range=(2, 6))],
        trials=3, write_reports=True)


@pytest.mark.parametrize("kind", cases.CLASSES)
@pytest.mark.parametrize("n", [8, 12])
def test_cases_have_advertised_s(kind, n):
    case = cases.make_case(kind, n, np.random.default_rng([n, len(kind)]))
    expected = {"k-blocks": n // 4, "jordan": 1, "twin": 2}[kind]
    assert case.s == expected == len(case.block_sizes)
    assert sum(case.block_sizes) == n
    dec = sv.s_number(case.matrix)
    assert dec.s == case.s
    assert sorted(dec.block_sizes) == sorted(case.block_sizes)
    coupling, unitarity = cases.witness_residual(case.matrix, dec.u, dec.block_sizes)
    assert coupling < workloads.WITNESS_TOL and unitarity < workloads.WITNESS_TOL


def test_round_cases_depend_only_on_seed_and_round():
    a, b = cases.round_cases(3, 1), cases.round_cases(3, 1)
    assert [c.kind for c in a] == [c.kind for c in b]
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a, b))
    assert not np.array_equal(a[0].matrix, cases.round_cases(4, 1)[0].matrix)
    assert len(a) == 3 * sum(k for _, k in cases.ORDERS)


def test_witness_residual_sees_coupling():
    m = np.diag([1.0, 2.0]).astype(complex)
    m[0, 1] = 0.5
    coupling, unitarity = cases.witness_residual(m, np.eye(2), (1, 1))
    assert coupling > 0.1 and unitarity == 0.0


@pytest.mark.parametrize("spans", [False, True])
def test_recorder_restores_program(tmp_path, spans):
    before = module_state()
    rec = tracing.Recorder(spans=spans)
    work = tiny_sweep("pessimistic")
    outcome = workloads.Outcome()
    with rec.installed(run.modules_of(sv)):
        assert sv.harness.run_trial is not before["harness"]["run_trial"]
        run.run_rounds(sv, work, 1, rec, tmp_path, outcome, rounds=1)
    assert module_state() == before
    with pytest.raises(RuntimeError):
        with rec.installed(run.modules_of(sv)):
            raise RuntimeError("boom")
    assert module_state() == before


def test_missing_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(sv.harness, "_margin_ratios")
    rec = tracing.Recorder(spans=True)
    with rec.installed(run.modules_of(sv)):
        pass
    assert rec.missing == ["harness._margin_ratios"]
    assert not hasattr(sv.harness, "_margin_ratios")


def test_traced_pessimistic_sweep(tmp_path):
    rec = tracing.Recorder(spans=True)
    outcome = workloads.Outcome()
    with rec.installed(run.modules_of(sv)):
        run.run_rounds(sv, tiny_sweep("pessimistic"), 2, rec, tmp_path, outcome, rounds=2)
    assert outcome.attempted == 6 and outcome.failed == 0 and not outcome.problems
    assert len(rec.latencies) == 6
    metrics, layers = run.per_layer(rec, untraced_wall=rec.wall)
    assert sum(v for k, v in layers.items() if k != "wall") == pytest.approx(
        layers["wall"], rel=1e-9)
    assert metrics["blocks.s_number_calls"][0] == 0.0
    assert metrics["linalg.kappa2_calls"][0] == 3.0
    assert metrics["jordan.margin_calls"][0] == 48.0
    assert metrics["report.json_bytes"][0] > 0
    assert set(metrics) == {m["name"] for m in run_benchmark()["per_layer"]}
    # each span's op id points at the trial that caused it
    names = rec.names
    ops = {rec.op[i] for i, n in enumerate(names) if n == "harness.run_trial"}
    assert ops == set(range(6))


def test_traced_computed_sweep_calls_s_number(tmp_path):
    rec = tracing.Recorder(spans=True)
    outcome = workloads.Outcome()
    with rec.installed(run.modules_of(sv)):
        run.run_rounds(sv, tiny_sweep("computed"), 5, rec, tmp_path, outcome, rounds=1)
    metrics, _ = run.per_layer(rec, untraced_wall=rec.wall)
    assert metrics["blocks.s_number_calls"][0] > 0
    assert metrics["blocks.commutant_ms"][0] <= metrics["blocks.s_number_ms"][0]


def test_sweep_check_counts_violations_and_round_trip():
    work = tiny_sweep("pessimistic")
    config = work.inputs(sv, 1, 0)[0]
    report = sv.harness.run_sweep(config)
    bad = sv.harness.Report(config, list(report.records), dict(report.summary))
    bad.records[0] = sv.harness.TrialRecord(
        **{**vars(report.records[0]), "violations": ["UP1_1"]})
    outcome = workloads.Outcome()
    work.check(sv, [config], [(bad, report)], outcome)
    # the read-back report differs from the violating one: all three fail
    assert outcome.attempted == 3 and outcome.failed == 3
    outcome = workloads.Outcome()
    work.check(sv, [config], [(bad, bad)], outcome)
    assert outcome.attempted == 3 and outcome.failed == 1


@pytest.mark.xfail(strict=True, reason="known program defect, kept out of the workloads; "
                   "when this passes, the normal cell can return to computed-s-sweep")
@pytest.mark.parametrize("name", sorted(workloads.KNOWN_DEFECTS))
def test_known_defect_still_present(name):
    fields, trial = workloads.KNOWN_DEFECTS[name]
    config = sv.harness.SweepConfig(**fields)
    rec = sv.harness.run_trial(sv.harness.gen_instance(config, trial), config, trial)
    assert rec.status == "ok" and not rec.violations, (rec.status, rec.violations)


def run_benchmark():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metric_names_match_benchmark_json(tmp_path):
    rec = tracing.Recorder(spans=False)
    with rec.installed(run.modules_of(sv)):
        run.run_rounds(sv, tiny_sweep("pessimistic"), 1, rec, tmp_path,
                       workloads.Outcome(), rounds=1)
    metrics = run.end_to_end(rec, [0.5, 0.7, 0.6])
    assert list(metrics) == [m["name"] for m in run_benchmark()["end_to_end"]]
    assert metrics["setup_s"][0] == 0.6
    assert metrics["ops_per_s"][0] == len(rec.latencies) / rec.wall
    assert all(v > 0 for v, _ in metrics.values())


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    faster = [130.0 + i for i in range(10)]
    v = compare.verdict(parent, faster, list(zip(parent, faster)), True, 0.1, False)
    assert v["verdict"] == "gain" and v["bound_check"] == "within"
    v = compare.verdict(parent, faster, list(zip(parent, faster)), True, 0.1, True)
    assert v["verdict"] == "unresolved"  # more failed ops void the gain
    v = compare.verdict(faster, parent, list(zip(faster, parent)), True, 0.1, False)
    assert v["verdict"] == "loss" and v["bound_check"] == "REGRESSION"
    same = [100.5 + i for i in range(10)]
    v = compare.verdict(parent, same, list(zip(parent, same)), True, 0.1, False)
    assert v["verdict"] == "unresolved" and v["bound_check"] == "within"
    wide = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    v = compare.verdict(wide, wide, list(zip(wide, wide)), False, 0.25, False)
    assert v["bound_check"] == "spread>bound"
    v = compare.verdict(wide, wide, list(zip(wide, wide)), False, 0.25, False,
                        spread_bounded=False)
    assert v["bound_check"] == "within"


def record(round_failed, correct=None, failed=None):
    failed = sum(round_failed) if failed is None else failed
    correct = failed == 0 if correct is None else correct
    return {"round_failed": round_failed,
            "result": {"correct": correct, "failed": failed}}


def test_compare_counts_failures_only_in_shared_rounds():
    slow, fast = record([0, 1, 0]), record([0, 1, 0, 0, 1])
    assert compare.shared_round_failures(slow, fast) == (1, 1)
    assert compare.shared_round_failures(record([0, 0, 0]), fast) == (0, 1)
    assert not compare.other_flaw(fast)
    assert compare.other_flaw(record([0, 0], correct=False))
    assert compare.other_flaw(record([0, 0], failed=2))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_out").exists()


def test_run_prints_result_line(capsys):
    assert run.main(["--workload", "acceptance-grid", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 180
    assert list(result["metrics"]) == [m["name"] for m in run_benchmark()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
