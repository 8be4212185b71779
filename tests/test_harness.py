"""Tests for instance generation, sweeps, the reference table and report
serialization."""

import json
from dataclasses import asdict

import numpy as np
import pytest

import specvar as sv
from specvar import harness
from specvar.bounds import plan


def small_config(**kw):
    base = dict(seed=1, trials=8, n_range=(2, 6), block_profile="mixed",
                perturbation="gaussian", amount=0.5, target_kappa=5.0)
    base.update(kw)
    return sv.SweepConfig(**base)


class TestGenInstance:
    def test_deterministic_and_bit_identical(self):
        cfg = small_config()
        a = sv.gen_instance(cfg, 3)
        b = sv.gen_instance(cfg, 3)
        assert np.array_equal(a.e, b.e)
        assert np.array_equal(a.spec.q, b.spec.q)
        assert a.spec.blocks == b.spec.blocks
        c = sv.gen_instance(cfg, 4)
        assert not np.array_equal(a.e, c.e)

    def test_diagonalizable_profile(self):
        cfg = small_config(block_profile="diagonalizable")
        for idx in range(5):
            inst = sv.gen_instance(cfg, idx)
            assert inst.spec.p == inst.spec.n
            assert inst.spec.m == 1

    def test_single_jordan_profile(self):
        cfg = small_config(block_profile="single-jordan")
        for idx in range(5):
            inst = sv.gen_instance(cfg, idx)
            assert inst.spec.p == 1
            assert inst.spec.m == inst.spec.n >= 2

    def test_scalar_perturbation(self):
        cfg = small_config(perturbation="scalar", amount=0.07)
        inst = sv.gen_instance(cfg, 0)
        n = inst.spec.n
        assert np.array_equal(inst.e, 0.07 * np.eye(n))
        assert inst.delta_eq == 0.0
        assert inst.trace_e == pytest.approx(0.07 * n)

    def test_rank1_perturbation(self):
        cfg = small_config(perturbation="rank1", amount=0.3)
        inst = sv.gen_instance(cfg, 2)
        assert np.linalg.matrix_rank(inst.e) == 1
        assert np.linalg.norm(inst.e) == pytest.approx(0.3, rel=1e-12)

    def test_gaussian_norm_pinned(self):
        cfg = small_config(amount=1.7)
        inst = sv.gen_instance(cfg, 1)
        assert inst.norm_e == pytest.approx(1.7, rel=1e-12)

    def test_kappa_within_ten_percent(self):
        for kappa in (1.0, 10.0, 100.0):
            cfg = small_config(target_kappa=kappa)
            for idx in range(4):
                inst = sv.gen_instance(cfg, idx)
                assert sv.kappa2(inst.spec.q) == pytest.approx(kappa, rel=0.1)

    def test_real_eigenvalues_flag(self):
        cfg = small_config(real_eigenvalues=True)
        for idx in range(4):
            assert sv.gen_instance(cfg, idx).spec.has_real_spectrum()

    def test_user_file_profile(self, tmp_path):
        spec = sv.make_jordan_spec([(1.0, 2), (4.0, 1)])
        path = tmp_path / "spec.json"
        sv.write_jordan_spec(path, spec)
        cfg = small_config(block_profile="user-file", jordan_file=str(path))
        inst = sv.gen_instance(cfg, 0)
        assert inst.spec.blocks == spec.blocks

    def test_config_validation(self):
        with pytest.raises(sv.ConfigError):
            sv.gen_instance(small_config(trials=0), 0)
        with pytest.raises(sv.ConfigError):
            sv.gen_instance(small_config(block_profile="nope"), 0)
        with pytest.raises(sv.ConfigError):
            sv.gen_instance(small_config(amount=0.0), 0)
        with pytest.raises(sv.ConfigError):
            sv.gen_instance(small_config(target_kappa=0.5), 0)
        with pytest.raises(sv.ConfigError):
            sv.gen_instance(
                small_config(block_profile="single-jordan", n_range=(1, 4)), 0
            )
        with pytest.raises(sv.ConfigError):
            sv.gen_instance(small_config(block_profile="user-file"), 0)


class TestSValues:
    def test_pessimistic(self):
        inst = sv.gen_instance(small_config(), 0)
        out = sv.s_values(inst, mode="pessimistic")
        n = inst.spec.n
        assert out == {"s1": n, "s2": n, "s3": n, "s4": n, "s_tilde": 1}

    def test_computed_in_range(self):
        inst = sv.gen_instance(small_config(n_range=(3, 6)), 1)
        out = sv.s_values(inst, mode="computed")
        n = inst.spec.n
        for key in ("s1", "s2", "s3", "s4"):
            assert 1 <= out[key] <= n
        assert 1 <= out["s_tilde"] <= n

    def test_bad_mode(self):
        inst = sv.gen_instance(small_config(), 0)
        with pytest.raises(sv.ConfigError):
            sv.s_values(inst, mode="exact")

    def test_s_tilde_only_for_the_normal_family(self, monkeypatch):
        # a computed trial takes one s(.) per planned s-key with eps > 0,
        # plus s(A+E) only when the normal-A family reads it
        calls = []
        real = harness.s_number

        def counting(m, *args, **kw):
            calls.append(m.shape[0])
            return real(m, *args, **kw)

        monkeypatch.setattr(harness, "s_number", counting)
        for cfg, extra in (
            (small_config(s_mode="computed", n_range=(2, 8)), 0),
            (small_config(s_mode="computed", block_profile="single-jordan"), 0),
            (small_config(s_mode="computed", block_profile="diagonalizable",
                          target_kappa=1.0), 1),
        ):
            for idx in range(cfg.trials):
                inst = sv.gen_instance(cfg, idx)
                calls.clear()
                rec = harness.run_trial(inst, cfg, idx)
                assert rec.status == "ok"
                keys = {step.s_key for step in plan(inst) if step.eps > 0.0}
                assert len(calls) == len(keys) + extra

    def test_hermitian_s_tilde_is_unambiguous(self):
        # A + E = A + 0.5 I is Hermitian with 12 distinct eigenvalues, so
        # s(A+E) = 12; the commutant-wide draws used to disagree (s in [11, 12])
        cfg = sv.SweepConfig(
            seed=152, block_profile="diagonalizable", target_kappa=1.0,
            real_eigenvalues=True, amount=0.5, s_mode="computed",
            perturbation="scalar",
        )
        inst = sv.gen_instance(cfg, 2)
        rec = harness.run_trial(inst, cfg, 2)
        assert rec.status == "ok", rec.failure_reason
        assert rec.n == 12
        out = sv.s_values(inst, mode="computed", seed=cfg.seed, with_s_tilde=True)
        assert out["s_tilde"] == 12
        assert {r.inputs["s_tilde"] for r in rec.results if "s_tilde" in r.inputs} == {12}


class TestRunTrial:
    def test_zero_perturbation_trial(self):
        # all bounds, slacks and margins collapse to zero
        spec = sv.make_jordan_spec([(1.0, 2), (2.0, 2)])
        inst = sv.make_instance(spec, np.zeros((4, 4)))
        rec = sv.run_trial(inst, small_config(), 0)
        assert rec.status == "ok"
        assert rec.d2 == 0.0
        assert rec.violations == []
        assert all(s == 0.0 for s in rec.slacks.values())

    def test_infrastructure_failure_is_not_a_violation(self, monkeypatch):
        def boom(matrix):
            raise sv.EigensolverError("iteration stalled")

        monkeypatch.setattr(harness, "eigenvalues", boom)
        inst = sv.gen_instance(small_config(), 0)
        rec = sv.run_trial(inst, small_config(), 0)
        assert rec.status == "failed-infrastructure"
        assert "iteration stalled" in rec.failure_reason
        assert rec.violations == []
        assert rec.results == []

    def test_all_failed_sweep_still_serializes(self, monkeypatch, tmp_path):
        def boom(matrix):
            raise sv.EigensolverError("stalled")

        monkeypatch.setattr(harness, "eigenvalues", boom)
        rep = sv.run_sweep(small_config(trials=3))
        assert rep.summary["failed_infrastructure"] == 3
        assert rep.summary["sharpness_song_min"] is None
        path = tmp_path / "failed.json"
        sv.write_report(rep, path, format="structured-text")
        assert sv.read_report(path) == rep

    def test_normal_family_included_for_normal_construction(self):
        cfg = small_config(block_profile="diagonalizable", target_kappa=1.0)
        rec = sv.run_trial(sv.gen_instance(cfg, 0), cfg, 0)
        ids = {r.id for r in rec.results}
        assert sv.BoundId.HW in ids
        assert sv.BoundId.XU2 in ids

    def test_normal_family_excluded_otherwise(self):
        cfg = small_config()
        rec = sv.run_trial(sv.gen_instance(cfg, 0), cfg, 0)
        ids = {r.id for r in rec.results}
        assert sv.BoundId.HW not in ids

    def test_hw_needs_a_normal_a_plus_e(self):
        # A is normal but A + E is not: D2 = 0.50309 > ||E||_F = 0.5, so
        # Hoffman-Wielandt must not be applied
        cfg = sv.SweepConfig(
            seed=2005103, block_profile="diagonalizable", target_kappa=1.0,
            real_eigenvalues=True, amount=0.5, s_mode="computed",
        )
        rec = sv.run_trial(sv.gen_instance(cfg, 2), cfg, 2)
        assert rec.status == "ok", rec.failure_reason
        assert rec.n == 3 and rec.d2 > rec.norm_e
        assert rec.violations == []
        hw = {r.id: r for r in rec.results}[sv.BoundId.HW]
        assert not hw.applicable and hw.reason
        assert "HW" not in rec.slacks

    def test_hw_kept_for_scalar_e(self):
        # A + tI is normal whenever A is: HW stays applicable
        cfg = sv.SweepConfig(
            seed=152, trials=10, block_profile="diagonalizable", target_kappa=1.0,
            real_eigenvalues=True, amount=0.5, perturbation="scalar",
        )
        rep = sv.run_sweep(cfg)
        assert rep.summary["violation_count"] == 0
        for rec in rep.records:
            assert {r.id: r for r in rec.results}[sv.BoundId.HW].applicable


class TestRunSweep:
    def test_summary_shape_and_zero_violations(self):
        rep = sv.run_sweep(small_config(trials=12))
        assert rep.summary["trials"] == 12
        assert rep.summary["ok"] == 12
        assert rep.summary["violation_count"] == 0
        assert rep.summary["sharpness_song_min"] >= -1e-12
        assert rep.summary["sharpness_lichen_min"] >= -1e-12
        assert rep.summary["envelope_ratio_min"] >= -1e-8
        assert set(rep.summary["min_slack"]) >= {"SONG", "UP1_1", "UP2_3"}

    def test_reproducible(self):
        a = sv.run_sweep(small_config(trials=6))
        b = sv.run_sweep(small_config(trials=6))
        assert a == b

    def test_tiny_perturbation_is_not_read_as_zero(self):
        # ||E||_F = 1e-14 is small, not zero: the 1/m root of a 7x7 Jordan
        # block moves the spectrum by D2 ~ 0.02, and the bounds must say so
        rep = sv.run_sweep(sv.SweepConfig(
            seed=1, trials=40, block_profile="single-jordan", amount=1e-14,
            target_kappa=1,
        ))
        assert rep.summary["ok"] == 40
        assert rep.summary["violation_count"] == 0
        for rec in rep.records:
            assert all(r.value > 0.0 for r in rec.results if r.applicable)

    def test_tiny_perturbation_margins_are_not_negative(self):
        # the deviation must not cancel lambda against lambda + e_ii: at
        # ||E||_F = 1e-14 that reads envelope ratios down to -8e-3
        cfg = sv.SweepConfig(
            seed=1, trials=20, block_profile="diagonalizable", amount=1e-14,
            target_kappa=1.0,
        )
        rep = sv.run_sweep(cfg)
        assert rep.summary["ok"] == 20
        assert rep.summary["envelope_ratio_min"] >= -cfg.tolerances["envelope"]

    def test_real_sweep_exercises_up3(self):
        rep = sv.run_sweep(small_config(trials=6, real_eigenvalues=True))
        assert "UP3_1" in rep.summary["min_slack"]
        assert rep.summary["violation_count"] == 0


class TestReportFiles:
    def test_structured_round_trip(self, tmp_path):
        rep = sv.run_sweep(small_config(trials=5))
        path = tmp_path / "report.json"
        sv.write_report(rep, path, format="structured-text")
        assert sv.read_report(path) == rep
        # reports from before the eps grid was fixed at 16 points carry its size
        doc = json.loads(path.read_text())
        doc["config"]["eps_grid_points"] = 16
        path.write_text(json.dumps(doc))
        assert sv.read_report(path) == rep

    def test_structured_text_matches_asdict_conversion(self):
        # report_to_doc converts shallowly; the JSON text must be what the
        # deep-copying dataclasses.asdict conversion produced
        def reference(report):
            cfg = asdict(report.config)
            cfg["n_range"] = list(report.config.n_range)
            records = []
            for rec in report.records:
                d = asdict(rec)
                d["results"] = [dict(asdict(r), id=r.id.name) for r in rec.results]
                records.append(d)
            return {"config": cfg, "records": records, "summary": report.summary}

        for cfg in (
            small_config(trials=6),
            small_config(trials=6, s_mode="computed", block_profile="diagonalizable",
                         target_kappa=1.0, real_eigenvalues=True),
        ):
            rep = sv.run_sweep(cfg)
            doc = harness.report_to_doc(rep)
            assert json.dumps(doc, indent=1) == json.dumps(reference(rep), indent=1)
            # the document shares no mutable state with the report
            doc["records"][0]["slacks"].clear()
            doc["records"][0]["results"][0]["inputs"].clear()
            assert rep.records[0].slacks and rep.records[0].results[0].inputs

    def test_csv_deterministic_modulo_timestamp(self, tmp_path):
        rep = sv.run_sweep(small_config(trials=5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sv.write_report(rep, p1, format="csv")
        sv.write_report(rep, p2, format="csv")
        lines1 = p1.read_text().splitlines()
        lines2 = p2.read_text().splitlines()
        assert lines1[0].startswith("# generated ")
        assert lines1[1:] == lines2[1:]

    def test_csv_column_order(self, tmp_path):
        rep = sv.run_sweep(small_config(trials=2))
        path = tmp_path / "r.csv"
        sv.write_report(rep, path, format="csv")
        header = path.read_text().splitlines()[1]
        assert header == "trial,bound_id,branch,value,d2,slack"

    def test_csv_values_round_trip_decimal(self, tmp_path):
        import csv as csvmod

        rep = sv.run_sweep(small_config(trials=3))
        path = tmp_path / "r.csv"
        sv.write_report(rep, path, format="csv")
        with open(path) as fh:
            fh.readline()  # timestamp
            rows = list(csvmod.DictReader(fh))
        assert rows
        for row in rows:
            rec = rep.records[int(row["trial"])]
            assert float(row["d2"]) == rec.d2
            assert float(row["slack"]) == rec.slacks[row["bound_id"]]

    def test_unknown_format(self, tmp_path):
        rep = sv.run_sweep(small_config(trials=1))
        with pytest.raises(sv.ConfigError):
            sv.write_report(rep, tmp_path / "r.xml", format="xml")


class TestExampleTable:
    def _spec(self, seed=0, kappa=5.0):
        q = sv.random_conditioned(4, kappa, np.random.default_rng(seed))
        return sv.make_jordan_spec([(1.0, 2), (3.0, 2)], q)

    def test_reference_configuration(self):
        table = sv.example_scalar_table(4, 2, 2, 0.05, self._spec())
        assert table["d2"] == pytest.approx(0.1, abs=1e-10)
        assert table["d2_expected"] == pytest.approx(0.1, rel=1e-15)
        for row in table["rows"]:
            assert row["rel_err"] <= 1e-10, row

    def test_negative_t(self):
        table = sv.example_scalar_table(4, 2, 2, -0.2, self._spec(seed=3))
        for row in table["rows"]:
            assert row["rel_err"] <= 1e-10

    def test_sqrt_n_t_rows(self):
        table = sv.example_scalar_table(4, 2, 2, 0.05, self._spec(seed=5))
        flat = {row["bound_id"]: row["numeric"] for row in table["rows"]}
        for name in ("UP1_2", "UP1_3", "UP2_2", "UP2_3"):
            assert flat[name] == pytest.approx(0.1, rel=1e-12)

    def test_inconsistent_shape_rejected(self):
        with pytest.raises(sv.ConfigError):
            sv.example_scalar_table(4, 2, 3, 0.05, self._spec())

    def test_t_out_of_range(self):
        with pytest.raises(sv.ConfigError):
            sv.example_scalar_table(4, 2, 2, 0.6, self._spec())
        with pytest.raises(sv.ConfigError):
            sv.example_scalar_table(4, 2, 2, 0.0, self._spec())

    def test_computed_s_mode(self):
        table = sv.example_scalar_table(
            4, 2, 2, 0.05, self._spec(seed=7), s_mode="computed"
        )
        for row in table["rows"]:
            assert row["rel_err"] <= 1e-10
