"""Tests for instance generation, sweeps, the reference table and report
serialization."""

import functools
import itertools
import json
import math

import numpy as np
import pytest

import specvar as sv
from specvar import bounds, harness, jordan, linalg, spectrum
from specvar.bounds import BRANCH_NORM_LARGE, BRANCH_NORM_SMALL, plan

def small_config(**kw):
    base = dict(seed=1, trials=8, n_range=(2, 6), block_profile="mixed",
                perturbation="gaussian", amount=0.5, target_kappa=5.0)
    base.update(kw)
    return sv.SweepConfig(**base)


def with_results(doc, change):
    """``doc`` with its first record's bound table columns passed through ``change``."""
    first = dict(doc["records"][0], results=change(doc["records"][0]["results"]))
    return dict(doc, records=[first, *doc["records"][1:]])


def row(table, bid):
    """(value, branch, reason) of one bound of a table."""
    i = table.ids.index(bid)
    return table.values[i], table.branches[i], table.reasons[i]


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
            assert sv.gen_instance(cfg, idx).spec.real_spectrum

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
        # the one cutoff a caller sets must be a finite number >= 0
        for value in (None, -1e-8, float("nan"), float("inf"), "1e-8"):
            with pytest.raises(sv.ConfigError, match="s_tol"):
                sv.run_sweep(small_config(trials=2, s_tol=value))

    def test_amount_whose_squares_could_overflow_rejected(self, tmp_path):
        # kappa * n_max * |amount| may reach the cap, never pass it
        cap = harness.AMOUNT_SCALE_MAX
        assert sv.gen_instance(small_config(amount=cap / 31), 0).norm_e == pytest.approx(cap / 31)
        for kw in (dict(amount=cap / 29), dict(amount=-cap / 29, perturbation="scalar")):
            with pytest.raises(sv.ConfigError, match="could overflow"):
                sv.gen_instance(small_config(**kw), 0)
        # the user-file profile is held to its file's kappa(Q) = 1 and n = 3
        path = tmp_path / "spec.json"
        sv.write_jordan_spec(path, sv.make_jordan_spec([(1.0, 2), (4.0, 1)]))
        cfg = functools.partial(small_config, block_profile="user-file", jordan_file=str(path))
        assert sv.gen_instance(cfg(amount=cap / 3.1), 0).spec.n == 3
        with pytest.raises(sv.ConfigError, match="could overflow"):
            sv.gen_instance(cfg(amount=cap / 2.9), 0)


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
                steps = plan(sv.BoundInputs.of(inst))
                keys = {step.s_key for step in steps if step.eps > 0.0}
                assert len(calls) == len(keys) + extra

    def test_run_trial_hands_s_tol_to_s_number(self, monkeypatch):
        # SweepConfig.s_tol is the cutoff of every s(.) a computed trial takes
        tols = []
        real = harness.s_number

        def spying(m, tol, seed):
            tols.append(tol)
            return real(m, tol=tol, seed=seed)

        monkeypatch.setattr(harness, "s_number", spying)
        cfg = small_config(s_mode="computed", block_profile="diagonalizable",
                           target_kappa=1.0, s_tol=3e-7)
        for idx in range(cfg.trials):
            assert harness.run_trial(sv.gen_instance(cfg, idx), cfg, idx).status == "ok"
        assert tols and set(tols) == {3e-7}

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
        assert rec.results.inputs["s_tilde"] == 12


class TestRunTrial:
    def test_zero_perturbation_trial(self):
        # all bounds, slacks and margins collapse to zero
        spec = sv.make_jordan_spec([(1.0, 2), (2.0, 2)])
        inst = sv.make_instance(spec, np.zeros((4, 4)))
        rec = sv.run_trial(inst, small_config(), 0)
        assert rec.status == "ok"
        assert rec.d2 == 0.0
        assert rec.violations == []
        t = rec.results
        assert all(v - rec.d2 == 0.0 for v, why in zip(t.values, t.reasons) if not why)

    def test_infrastructure_failure_is_not_a_violation(self, monkeypatch):
        def boom(matrix):
            raise sv.EigensolverError("iteration stalled")

        monkeypatch.setattr(harness, "eigenvalues", boom)
        inst = sv.gen_instance(small_config(), 0)
        rec = sv.run_trial(inst, small_config(), 0)
        assert rec.status == "failed-infrastructure"
        assert "iteration stalled" in rec.failure_reason
        assert rec.violations == []
        assert rec.results == sv.BoundTable()

    def test_lapack_failure_in_s_is_infrastructure(self, stall_lapack):
        # the eigensolve of s_number's H fails: the computed-s trial is
        # recorded as failed-infrastructure instead of aborting the sweep
        cfg = small_config(s_mode="computed")
        inst = sv.gen_instance(cfg, 0)
        assert sv.run_trial(inst, cfg, 0).status == "ok"
        stall_lapack("eigh")
        rec = sv.run_trial(inst, cfg, 0)
        assert rec.status == "failed-infrastructure"
        assert rec.failure_reason == (
            "EigensolverError: eigenvalue iteration failed: eigh did not converge"
        )
        assert rec.results == sv.BoundTable()

    def test_all_failed_sweep_still_serializes(self, monkeypatch, tmp_path):
        def boom(matrix):
            raise sv.EigensolverError("stalled")

        monkeypatch.setattr(harness, "eigenvalues", boom)
        rep = sv.run_sweep(small_config(trials=3))
        assert rep.summary["failed_infrastructure"] == 3
        assert rep.summary["sharpness_song_min"] is None
        assert rep.summary["branch_counts"] == {}
        assert rep.summary["failure_reasons"] == {"EigensolverError": 3}
        path = tmp_path / "failed.json"
        sv.write_report(rep, path, format="structured-text")
        assert sv.read_report(path) == rep
        # the CSV keeps each failed trial as one status row
        sv.write_report(rep, tmp_path / "failed.csv", format="csv")
        rows = (tmp_path / "failed.csv").read_text().splitlines()[2:]
        assert rows == [
            f"{i},failed-infrastructure,EigensolverError: stalled,,," for i in range(3)
        ]

    def test_normal_family_included_for_normal_construction(self):
        cfg = small_config(block_profile="diagonalizable", target_kappa=1.0)
        rec = sv.run_trial(sv.gen_instance(cfg, 0), cfg, 0)
        assert {"HW", "XU2"} <= set(rec.results.ids)

    def test_normal_family_excluded_otherwise(self):
        cfg = small_config()
        rec = sv.run_trial(sv.gen_instance(cfg, 0), cfg, 0)
        assert "HW" not in rec.results.ids

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
        value, _, reason = row(rec.results, "HW")
        assert reason and value == 0.0
        assert "HW" not in sv.verify_instance(rec.results, 1e300)  # never compared

    def test_hw_kept_for_scalar_e(self):
        # A + tI is normal whenever A is: HW stays applicable
        cfg = sv.SweepConfig(
            seed=152, trials=10, block_profile="diagonalizable", target_kappa=1.0,
            real_eigenvalues=True, amount=0.5, perturbation="scalar",
        )
        rep = sv.run_sweep(cfg)
        assert rep.summary["violation_count"] == 0
        for rec in rep.records:
            assert row(rec.results, "HW")[2] == ""


    @pytest.mark.parametrize("kappa", [1.0, 10.0])
    @pytest.mark.parametrize("perturbation", ["gaussian", "rank1"])
    def test_sub_roundoff_computed_mixed_trial_is_not_ambiguous(self, kappa, perturbation):
        # at ||E_Q|| = 1e-18 the scaled similarities' Jordan superdiagonals
        # and rescaled couplings lie near the block cutoff, so s_number
        # takes the commutant route and its split can fail the residual
        # check.  No trial may fail, and an s read too high would add UP2
        # and LI_CHEN violations to those of s = 1 (rounding ones, which
        # the pessimistic sweep shows too)
        computed, pessimistic = (
            sv.run_sweep(sv.SweepConfig(
                seed=3, trials=6, n_range=(16, 40), block_profile="mixed",
                perturbation=perturbation, amount=1e-18, target_kappa=kappa,
                s_mode=s_mode, real_eigenvalues=True))
            for s_mode in ("computed", "pessimistic")
        )
        assert computed.summary["failed_infrastructure"] == 0
        for rec, ref in zip(computed.records, pessimistic.records, strict=True):
            assert rec.status == "ok", rec.failure_reason
            assert set(rec.violations) <= set(ref.violations), rec.trial

    @staticmethod
    def planned_s_factors(cfg, trial):
        """(n, {s-key: n + 1 - s}) over the s-keys the trial's plan names."""
        inst = sv.gen_instance(cfg, trial)
        steps = plan(bounds.BoundInputs.of(inst))
        factors = harness.s_values(
            inst, mode="computed", tol=cfg.s_tol, seed=cfg.seed, steps=steps
        )
        planned = {step.s_key for step in steps if step.eps > 0.0}
        assert planned
        return inst.spec.n, {key: factors[key] for key in sorted(planned)}

    # s read too high, which can make UP2 falsely tight.  A generic E has
    # s = 1, so every planned factor n + 1 - s should read n; these read s = n
    @pytest.mark.xfail(strict=True, reason=(
        "E_Q's couplings at ||E|| = 1e-10 lie below DEFAULT_BLOCK_TOL ||M||_F, "
        "so s_number splits a diagonal J + E_Q into n blocks"))
    def test_diagonalizable_computed_cell_reads_s_one_at_1e_minus_10(self):
        cfg = sv.SweepConfig(
            seed=9, trials=10, block_profile="diagonalizable", target_kappa=1.0,
            perturbation="gaussian", amount=1e-10, s_mode="computed",
        )
        for trial in range(cfg.trials):
            n, factors = self.planned_s_factors(cfg, trial)
            assert factors == dict.fromkeys(factors, n), trial

    @pytest.mark.xfail(strict=True, reason=(
        "at ||E|| = 1e-170 the scaled similarities' couplings lie below the "
        "block cutoff, and s1, s3 and s4 read s = n = 7"))
    def test_sub_underflow_single_jordan_trial_reads_s_one(self):
        cfg = sv.SweepConfig(
            seed=1, trials=3, amount=1e-170, target_kappa=1,
            block_profile="single-jordan", s_mode="computed",
        )
        n, factors = self.planned_s_factors(cfg, 0)
        assert n == 7 and set(factors) == {"s1", "s3", "s4"}
        assert factors == dict.fromkeys(factors, n)


def masked_margin_ratios(inst, grid):
    """The margin reduction that skips every grid point with phi = 0."""
    margins = sv.envelope_margins(inst, grid)
    live = margins["phi"] > 0.0
    if not live.any():
        return 0.0, 0.0, 0.0, 0.0
    env, norm, cross, sup = (
        margins[key][live] / margins["phi"][live]
        for key in ("envelope_margin", "scaled_norm_margin", "cross_term_margin",
                    "superdiag_norm_error")
    )
    return float(env.min()), float(norm.min()), float(cross.min()), float(sup.max())


def margin_instances():
    mixed = sv.make_jordan_spec([(1.0, 2), (2j, 1), (-1.0, 3)])
    diag = sv.make_jordan_spec([(1.0, 1), (2j, 1), (-1.0, 1)], np.diag([1.0, 3.0, 0.5]))
    traceless = np.array([[0.0, 0.2, 0.0], [0.1j, 0.3, 0.0], [0.0, 0.5, -0.3]])
    yield "zero E", sv.make_instance(mixed, np.zeros((6, 6)))
    yield "n = p, zero E", sv.make_instance(diag, np.zeros((3, 3)))
    yield "n = p, scalar E", sv.make_instance(diag, 0.4 * np.eye(3))
    yield "n = p, trace-free E", sv.make_instance(diag, traceless)
    for profile in ("mixed", "diagonalizable", "single-jordan"):
        cfg = small_config(block_profile=profile, n_range=(2, 10))
        for idx in range(6):
            yield profile, sv.gen_instance(cfg, idx)


class TestTrialBudget:
    def test_eps_grid_is_a_read_only_constant(self):
        assert np.array_equal(harness.EPS_GRID, np.arange(1, 17) / 16)
        assert not harness.EPS_GRID.flags.writeable

    def test_margin_ratios_equal_the_masked_reduction(self):
        # phi is positive on the whole grid (n > p) or constant (n = p), so
        # dropping the mask changes no float
        cases = 0
        for label, inst in margin_instances():
            got = harness._margin_ratios(inst, harness.EPS_GRID)
            want = masked_margin_ratios(inst, harness.EPS_GRID)
            assert np.array_equal(got, want), label
            cases += 1
        assert cases == 22

    @pytest.mark.parametrize("s_mode", ["pessimistic", "computed"])
    def test_call_budget(self, monkeypatch, s_mode):
        # one plan per instance; one as_matrix for each array a caller hands
        # in: E, Q and the eigensolve input (s_number validates its own)
        calls = {"plan": 0, "as_matrix": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (linalg, jordan, spectrum, bounds):
            monkeypatch.setattr(module, "as_matrix", counting("as_matrix", module.as_matrix))
        for module in (bounds, harness):
            monkeypatch.setattr(module, "plan", counting("plan", module.plan))
        cfg = small_config(trials=20, n_range=(2, 12), target_kappa=10.0, s_mode=s_mode)
        rep = harness.run_sweep(cfg)
        assert rep.summary["trials"] == 20
        assert calls == {"plan": 20, "as_matrix": 3 * 20}


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

    @pytest.mark.parametrize("s_mode", ["pessimistic", "computed"])
    def test_large_orders_at_default_blas_threads(self, s_mode):
        # BLAS threads stay at the process default: at n 100-128 a second
        # LAPACK provider, with its own thread pool, would stall every trial
        cfg = small_config(seed=16, trials=6, n_range=(100, 128),
                           target_kappa=100.0, s_mode=s_mode)
        summary = sv.run_sweep(cfg).summary
        assert summary["failed_infrastructure"] == 0
        assert summary["violation_count"] == 0

    def test_trials_go_through_the_module_globals(self, monkeypatch):
        # a benchmark that times one trial from gen_instance to run_trial
        # swaps these two module names; run_sweep must look them up at call
        # time, once per trial, in that order
        order = []
        for name in ("gen_instance", "run_trial"):
            real = getattr(harness, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                order.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        rep = harness.run_sweep(small_config(trials=5))
        assert order == ["gen_instance", "run_trial"] * 5
        assert [r.trial for r in rep.records] == list(range(5))

    def test_layers_go_through_the_module_globals(self, monkeypatch):
        # the benchmark times each layer by swapping these harness names;
        # a trial that stopped looking one up would leave its layer untimed
        names = (
            "make_jordan_spec", "make_instance", "perturbed_spectrum", "optimal_match",
            "s_values", "evaluate_bounds", "verify_instance", "_margin_ratios",
        )
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _real=getattr(harness, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        rep = harness.run_sweep(small_config(trials=5))
        assert rep.summary["ok"] == 5
        assert calls == dict.fromkeys(names, 5)

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
            t = rec.results
            assert all(value > 0.0 for value, reason in zip(t.values, t.reasons) if not reason)

    def test_norms_below_the_square_underflow_are_not_read_as_zero(self, tmp_path):
        # entries ~1e-171 have squares below float64's range: the recorded
        # norms must still be the true ones, to a few ulps, and the trial
        # must not take the zero-perturbation branch.  D2 there is zgeev's
        # roundoff, so violations are not counted here.
        cfg = sv.SweepConfig(seed=1, trials=3, amount=1e-170, target_kappa=1,
                             block_profile="single-jordan")
        rep = sv.run_sweep(cfg)
        assert rep.summary["ok"] == 3

        def true_norm(m):
            return math.hypot(*m.real.ravel(), *m.imag.ravel())

        for rec in rep.records:
            inst = sv.gen_instance(cfg, rec.trial)
            n = inst.spec.n
            dev = inst.e_q - np.trace(inst.e_q) / n * np.eye(n)
            for got, want in ((rec.norm_e, true_norm(inst.e)),
                              (rec.norm_eq, true_norm(inst.e_q)),
                              (rec.delta_eq, min(true_norm(dev), true_norm(inst.e_q)))):
                assert got > 0.0
                assert got == pytest.approx(want, rel=8 * linalg.UNIT_ROUNDOFF)
            t = rec.results
            assert bounds.BRANCH_ZERO not in t.branches
            assert all(map(math.isfinite, t.values))
        sv.write_report(rep, tmp_path / "r.json")  # every number a finite JSON float

    def test_bounds_below_the_square_underflow_are_not_read_as_zero(self):
        # n = 7, m = 1 at ||E_Q||_F = 1e-170: every UP core is delta^2 and
        # XU1, XU2, XU_HERMITIAN square ||E_Q||_F and delta, so each value
        # underflowed to 0.  The reference takes the same formulas at 2^600
        # times the recorded inputs, exactly, where nothing underflows.
        cfg = sv.SweepConfig(seed=1, trials=2, amount=1e-170, target_kappa=1,
                             block_profile="diagonalizable", real_eigenvalues=True)
        rec = harness.run_trial(sv.gen_instance(cfg, 0), cfg, 0)
        assert (rec.status, rec.n, rec.m) == ("ok", 7, 1)
        n, up = rec.n, 2.0 ** 600
        fro, d, trace = (v * up for v in (rec.norm_eq, rec.delta_eq, rec.trace_abs))
        want = {bid: math.sqrt(factor * d * d + trace * trace / n) / up
                for ids, factor in ((bounds.UP1, n), (bounds.UP2, n), (bounds.UP3, 2))
                for bid in ids}
        want.update((bid, math.sqrt(fro * fro + k * d * d) / up)
                    for bid, k in (("XU1", n - 1), ("XU2", n - 1), ("XU_HERMITIAN", 1)))
        assert want["XU1"] == pytest.approx(2.610e-170, rel=1e-3)
        assert want["UP3_1"] == pytest.approx(1.403e-170, rel=1e-3)
        for bid, value in want.items():
            got = row(rec.results, bid)[0]
            assert abs(got - value) <= 4 * math.ulp(value), bid

    def test_tiny_perturbation_margins_are_not_negative(self):
        # the deviation must not cancel lambda against lambda + e_ii: at
        # ||E||_F = 1e-14 that reads envelope ratios down to -8e-3
        ENVELOPE_TOL = 1e-8  # margins >= -ENVELOPE_TOL * phi(eps)
        cfg = sv.SweepConfig(
            seed=1, trials=20, block_profile="diagonalizable", amount=1e-14,
            target_kappa=1.0,
        )
        rep = sv.run_sweep(cfg)
        assert rep.summary["ok"] == 20
        assert rep.summary["envelope_ratio_min"] >= -ENVELOPE_TOL

    def test_branch_counts_across_the_norm_boundary(self):
        # ||E||_F = 0.5 at kappa 5 puts ||E_Q||_F on both sides of 1
        rep = sv.run_sweep(small_config(trials=12))
        small = sum(rec.norm_eq < 1.0 for rec in rep.records)
        assert 0 < small < 12
        counts = rep.summary["branch_counts"]
        for name in ("SONG", "LI_CHEN", "UP1_1", "UP2_1"):
            assert counts[name] == {
                BRANCH_NORM_SMALL: small, BRANCH_NORM_LARGE: 12 - small
            }
        assert "UP3_1" not in counts  # inapplicable results take no branch
        for rec in rep.records:
            for bid, reason in zip(rec.results.ids, rec.results.reasons):
                assert (not reason) == (bid in counts)
        assert sum(counts["UP1_2"].values()) == 12
        assert rep.summary["failure_reasons"] == {}
        assert json.loads(json.dumps(rep.summary)) == rep.summary

    def test_real_sweep_exercises_up3(self):
        rep = sv.run_sweep(small_config(trials=6, real_eigenvalues=True))
        assert "UP3_1" in rep.summary["min_slack"]
        assert rep.summary["violation_count"] == 0


class TestPaperClaims:
    def test_up2_1_generalizes_xu2(self):
        # the abstract's claim that the new bounds generalize the normal-matrix
        # ones: at m = 1 with unitary Q, UP2_1^2 = (n+1-s) delta^2 + |tr E|^2/n
        # is XU2^2, read off each record's table to 4 unit roundoffs
        checked = 0
        for real, amount in itertools.product((False, True), (0.01, 0.5, 2.0)):
            cfg = sv.SweepConfig(seed=11, trials=10, block_profile="diagonalizable",
                                 target_kappa=1.0, s_mode="computed", amount=amount,
                                 real_eigenvalues=real)
            for rec in sv.run_sweep(cfg).records:
                assert rec.status == "ok", rec.failure_reason
                up2_1, xu2 = row(rec.results, "UP2_1")[0], row(rec.results, "XU2")[0]
                assert abs(up2_1 - xu2) <= 4 * linalg.UNIT_ROUNDOFF * xu2, (real, amount)
                checked += 1
        assert checked == 60


class TestPerturbedMatrix:
    """Every trial reads one perturbed matrix, J + E_Q; these pin what it
    must give, against the assembled A + E as the independent reference."""

    def test_tiny_perturbations_report_no_violation(self):
        # assembling A = Q J Q^-1 injects O(u kappa^2) error, far above
        # these ||E||; the 1/m root made it a false disproof
        for profile, kappa, amount in itertools.product(
            ("diagonalizable", "single-jordan", "mixed"), (1.0, 1e2, 1e4, 1e6),
            (1e-14, 1e-12, 1e-10, 1e-8),
        ):
            cfg = sv.SweepConfig(seed=2, trials=20, n_range=(2, 12), block_profile=profile,
                                 amount=amount, target_kappa=kappa)
            summary = sv.run_sweep(cfg).summary
            assert summary["failed_infrastructure"] == 0
            assert summary["violation_count"] == 0, (profile, kappa, amount)

    def test_tiny_perturbation_stays_below_up1_1(self):
        # from A + E this trial gave D2 = 5.57e-6 > UP1_1 = 3.92e-6
        cfg = sv.SweepConfig(seed=1, trials=11, block_profile="diagonalizable",
                             amount=1e-10, target_kappa=1e6)
        rec = sv.run_trial(sv.gen_instance(cfg, 10), cfg, 10)
        assert rec.status == "ok" and rec.violations == []
        assert rec.d2 < row(rec.results, "UP1_1")[0]

    def test_scalar_e_shifts_the_spectrum_exactly(self):
        # J + tI is upper triangular: the eigensolve returns lambda + t
        # (216 instances, n up to 24, kappa up to 1e6, |t| 1e-14..1e3)
        rng = np.random.default_rng(8)
        for profile in ("diagonalizable", "single-jordan", "mixed"):
            for kappa in (1.0, 1e2, 1e4, 1e6):
                for trial in range(18):
                    t = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14, 3))
                    cfg = sv.SweepConfig(seed=3, n_range=(2, 24), block_profile=profile,
                                         perturbation="scalar", amount=t,
                                         target_kappa=kappa)
                    inst = sv.gen_instance(cfg, trial)
                    got = sv.perturbed_spectrum(inst).values
                    want = sv.Spectrum(inst.spec.eigenvalues + t).values
                    assert np.array_equal(got, want), (profile, kappa, trial, t)

    @pytest.mark.parametrize("perturbation", ["gaussian", "scalar"])
    def test_normal_family_matches_the_assembled_a_plus_e(self, perturbation):
        # Q is unitary, so J + E_Q and A + E are unitarily similar
        for seed in (1, 2, 3):
            cfg = sv.SweepConfig(seed=seed, trials=20, block_profile="diagonalizable",
                                 perturbation=perturbation, target_kappa=1.0,
                                 real_eigenvalues=True, s_mode="computed")
            for trial in range(cfg.trials):
                inst = sv.gen_instance(cfg, trial)
                n = inst.spec.n
                a_plus_e = sv.assemble(inst.spec) + inst.e
                sv_got = sv.s_values(inst, mode="computed", seed=seed, with_s_tilde=True)
                g = np.linalg.solve(inst.spec.q, a_plus_e @ inst.spec.q)
                want = {"s1": n, "s2": n, "s3": n, "s4": n,
                        "s_tilde": sv.s_number(a_plus_e, seed=seed).s}
                for step in plan(sv.BoundInputs.of(inst)):
                    if step.eps > 0.0:
                        t = sv.scaling_matrix(inst.spec, step.eps)
                        scaled = np.linalg.solve(t, g @ t)
                        want[step.s_key] = n + 1 - sv.s_number(scaled, seed=seed).s
                assert sv_got == want, (seed, trial)
                rec = sv.run_trial(inst, cfg, trial)
                ref = sv.normal_bounds(inst.e, a_plus_e, hermitian_a=True,
                                       s_tilde=want["s_tilde"])
                for bid, value, reason in zip(ref.ids, ref.values, ref.reasons):
                    got_value, _, got_reason = row(rec.results, bid)
                    assert bool(got_reason) == bool(reason), bid
                    assert got_value == pytest.approx(value, rel=1e-12, abs=0.0)


class TestReportFiles:
    def test_structured_round_trip(self, monkeypatch, tmp_path):
        # computed s on the normal family with a complex spectrum: s-value
        # and delta_e inputs, inapplicable HW / XU_HERMITIAN / UP3_* rows
        # with their reasons, and one trial whose eigensolve fails
        real, calls = harness.eigenvalues, itertools.count()

        def flaky(matrix):
            if next(calls) == 1:
                raise sv.EigensolverError("stalled")
            return real(matrix)

        monkeypatch.setattr(harness, "eigenvalues", flaky)
        rep = sv.run_sweep(small_config(
            trials=4, s_mode="computed", block_profile="diagonalizable", target_kappa=1.0,
        ))
        failed = [rec for rec in rep.records if rec.status != "ok"]
        assert [rec.trial for rec in failed] == [1]
        reasons = {
            bid: reason for rec in rep.records
            for bid, reason in zip(rec.results.ids, rec.results.reasons) if reason
        }
        assert {"XU_HERMITIAN", "UP3_1", "UP3_2", "UP3_3"} <= set(reasons)
        assert all(set(rec.results.inputs) == {"s1", "s2", "s3", "s4", "s_tilde", "delta_e"}
                   for rec in rep.records if rec.status == "ok")
        path = tmp_path / "report.json"
        sv.write_report(rep, path, format="structured-text")
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 4
        assert set(doc["records"][0]["results"]) == {"ids", "values", "branches", "reasons",
                                                     "inputs"}
        assert sv.read_report(path) == rep

    def test_a_report_rederives_its_jordan_bounds(self, tmp_path):
        # an ok record holds all that jordan_bounds reads: its six scalars,
        # the real spectrum as UP3's applicability, the s-values as UP2's inputs
        records = 0
        for s_mode, real, perturbation in itertools.product(
            harness.S_MODES, (False, True), harness.PERTURBATIONS
        ):
            cfg = small_config(trials=48, n_range=(2, 12), s_mode=s_mode,
                               real_eigenvalues=real, perturbation=perturbation)
            path = tmp_path / f"{s_mode}-{real}-{perturbation}.json"
            sv.write_report(sv.run_sweep(cfg), path)
            for rec in sv.read_report(path).records:
                assert rec.status == "ok"
                t = rec.results
                x = sv.BoundInputs(rec.n, rec.p, rec.m, rec.norm_eq, rec.delta_eq,
                                   rec.trace_abs, row(t, "UP3_1")[2] == "")
                assert (sv.jordan_bounds(x, t.inputs) == t) is True
                records += 1
        assert records == 576

    def test_document_shares_no_mutable_state_with_the_report(self):
        rep = sv.run_sweep(small_config(trials=2, s_mode="computed"))
        inputs = dict(rep.records[0].results.inputs)
        doc = harness.report_to_doc(rep)
        results = doc["records"][0]["results"]
        results["inputs"].clear()
        doc["records"][0]["violations"].append("SONG")
        assert rep.records[0].results.inputs == inputs
        assert rep.records[0].violations == []
        # the columns are the table's own tuples: shared, and immutable
        assert all(isinstance(results[key], tuple)
                   for key in ("ids", "values", "branches", "reasons"))

    @pytest.mark.parametrize("corrupt, message", [
        (lambda doc: {}, "schema_version None"),
        (lambda doc: [1, 2], "AttributeError"),
        (lambda doc: dict(doc, schema_version=2), "schema_version 2"),
        (lambda doc: dict(doc, schema_version=3), "schema_version 3"),
        (lambda doc: {k: v for k, v in doc.items() if k != "schema_version"},
         "schema_version None"),
        (lambda doc: dict(doc, config=dict(doc["config"], colour="blue")), "TypeError"),
        (lambda doc: with_results(doc, lambda t: {k: v for k, v in t.items() if k != "reasons"}),
         "KeyError"),
        (lambda doc: with_results(doc, lambda t: dict(t, values=t["values"][:-1])),
         "ValueError"),
    ], ids=["empty-object", "list", "schema-2", "schema-3", "schema-1", "unknown-config-key",
            "missing-column", "ragged-columns"])
    def test_read_report_rejects_what_is_not_a_report(self, tmp_path, corrupt, message):
        path = tmp_path / "r.json"
        sv.write_report(sv.run_sweep(small_config(trials=1)), path)
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        with pytest.raises(sv.ParseError, match=message):
            sv.read_report(path)

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
            value = rec.results.values[rec.results.ids.index(row["bound_id"])]
            assert float(row["d2"]) == rec.d2
            assert float(row["slack"]) == value - rec.d2

    def test_unknown_format(self, tmp_path):
        rep = sv.run_sweep(small_config(trials=1))
        with pytest.raises(sv.ConfigError):
            sv.write_report(rep, tmp_path / "r.xml", format="xml")


class TestExampleTable:
    def _spec(self, seed=0, kappa=5.0):
        q = sv.random_conditioned(4, kappa, np.random.default_rng(seed))
        return sv.make_jordan_spec([(1.0, 2), (3.0, 2)], q)

    def test_reference_configuration(self):
        table = sv.example_scalar_table(self._spec(), 0.05)
        assert table["d2"] == pytest.approx(0.1, abs=1e-10)
        assert table["d2_expected"] == pytest.approx(0.1, rel=1e-15)
        for row in table["rows"]:
            assert row["rel_err"] <= 1e-10, row

    def test_negative_t(self):
        table = sv.example_scalar_table(self._spec(seed=3), -0.2)
        for row in table["rows"]:
            assert row["rel_err"] <= 1e-10

    def test_sqrt_n_t_rows(self):
        table = sv.example_scalar_table(self._spec(seed=5), 0.05)
        flat = {row["bound_id"]: row["numeric"] for row in table["rows"]}
        for name in ("UP1_2", "UP1_3", "UP2_2", "UP2_3"):
            assert flat[name] == pytest.approx(0.1, rel=1e-12)

    def test_t_out_of_range(self):
        with pytest.raises(sv.ConfigError):
            sv.example_scalar_table(self._spec(), 0.6)
        with pytest.raises(sv.ConfigError):
            sv.example_scalar_table(self._spec(), 0.0)

    def test_computed_s_mode(self):
        table = sv.example_scalar_table(self._spec(seed=7), 0.05, s_mode="computed")
        for row in table["rows"]:
            assert row["rel_err"] <= 1e-10
