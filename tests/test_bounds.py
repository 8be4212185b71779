"""Tests for the bound formula layer: values, branches, reductions,
sharpness and soundness, on instances and on bare BoundInputs."""

import itertools
import math
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np
import pytest

import specvar as sv
from specvar import bounds
from specvar.bounds import (
    BRANCH_C1,
    BRANCH_C2,
    BRANCH_DELTA_LARGE,
    BRANCH_DELTA_SMALL,
    BRANCH_NORM_LARGE,
    BRANCH_NORM_SMALL,
    BRANCH_ZERO,
    JORDAN_IDS,
    S_KEYS,
    UP1,
    UP2,
    UP3,
    plan,
)

BASELINE = ("SONG", "LI_CHEN")


class Row(NamedTuple):
    """One bound of a table, read across its columns."""

    value: float
    branch: str
    reason: str

    @property
    def applicable(self):
        return not self.reason


def by_id(table):
    return {
        bid: Row(value, branch, reason)
        for bid, value, branch, reason in zip(table.ids, table.values, table.branches,
                                              table.reasons)
    }


def jordan_table(inst, *s):
    """jordan_bounds of an instance; s-values not given (s1, s2, s3, s4 in
    that order) are the pessimistic n."""
    n = inst.spec.n
    s = dict(zip(S_KEYS, s + (n,) * (4 - len(s))))
    return sv.jordan_bounds(sv.BoundInputs.of(inst), s)


def jordan(inst, *s):
    """:func:`jordan_table`, by id."""
    return by_id(jordan_table(inst, *s))


def plan_of(inst):
    return plan(sv.BoundInputs.of(inst))


def mixed_instance(seed, kappa=10.0, e_norm=0.7, real=False, n_blocks=3):
    rng = np.random.default_rng(seed)
    blocks = [
        (
            complex(rng.uniform(-2, 2), 0.0 if real else rng.uniform(-2, 2)),
            int(rng.integers(1, 4)),
        )
        for _ in range(n_blocks)
    ]
    n = sum(size for _, size in blocks)
    q = sv.random_conditioned(n, kappa, rng)
    spec = sv.make_jordan_spec(blocks, q)
    g = sv.complex_gaussian(n, n, rng)
    return sv.make_instance(spec, g * (e_norm / np.linalg.norm(g)))


def normal_instance(seed, n=5, e_norm=0.5, real=False):
    rng = np.random.default_rng(seed)
    u = sv.random_unitary(n, rng)
    lams = [
        complex(rng.uniform(-2, 2), 0.0 if real else rng.uniform(-2, 2))
        for _ in range(n)
    ]
    spec = sv.make_jordan_spec([(lam, 1) for lam in lams], u)
    g = sv.complex_gaussian(n, n, rng)
    return sv.make_instance(spec, g * (e_norm / np.linalg.norm(g)))


def corner_instance(blocks, c, t=0.0):
    """Identity Q and E = t I + c e_1 e_n^T, so delta(E_Q) = c up to rounding
    and ||E_Q||_F^2 = n t^2 + c^2; both equal c exactly when t = 0."""
    spec = sv.make_jordan_spec(blocks)
    n = spec.n
    e = t * np.eye(n, dtype=complex)
    e[0, n - 1] = c
    return sv.make_instance(spec, e)


def scalar_instance(blocks, t, kappa=5.0, seed=0):
    spec = sv.make_jordan_spec(
        blocks, sv.random_conditioned(sum(s for _, s in blocks), kappa,
                                      np.random.default_rng(seed))
    )
    return sv.make_instance(spec, t * np.eye(spec.n))


def branch_instances():
    """Instances that between them reach every branch of the plan."""
    return [
        mixed_instance(0, e_norm=0.3),                    # ||E_Q||, delta < 1; C1
        corner_instance([(0.0, 2), (1.0, 1)], 0.3, t=0.8),  # ||E_Q|| > 1 > delta
        mixed_instance(2, e_norm=6.0, kappa=1.0),         # ||E_Q||, delta > 1; C2
        corner_instance([(0.0, 2), (1.0, 1)], 1.0),       # ||E_Q|| = delta = 1
        corner_instance([(0.0, 2)], 5.0),                 # m = 2 under C2
        normal_instance(3, n=4, e_norm=0.4),              # m = 1
        scalar_instance([(1.0, 2), (3.0, 2)], 0.05),      # delta = 0: eps -> 0
    ]


def true_d2(inst):
    return sv.optimal_match(
        sv.Spectrum(inst.spec.eigenvalues), sv.perturbed_spectrum(inst)
    ).d2


class TestNormalBounds:
    def test_zero_perturbation(self):
        e = np.zeros((3, 3))
        table = sv.normal_bounds(e, np.eye(3), hermitian_a=True, s_tilde=1)
        assert table.values == (0.0,) * 6

    def test_zero_delta_collapses_to_hw(self):
        e = 0.4 * np.eye(3)
        res = by_id(sv.normal_bounds(e, np.eye(3), hermitian_a=False, s_tilde=1))
        hw = res["HW"].value
        assert res["XU1"].value == pytest.approx(hw, rel=1e-14)
        assert res["XU2"].value == pytest.approx(hw, rel=1e-14)
        assert hw == pytest.approx(0.4 * math.sqrt(3), rel=1e-14)

    def test_hand_value_xu2(self):
        # diagonal E with ||E||_F = 1 and delta(E) = 0.5:
        # 2a^2 + b^2 = 1 and 2a + b = 3/2 give a = (6 - sqrt(6))/12
        a = (6.0 - math.sqrt(6.0)) / 12.0
        b = 1.5 - 2.0 * a
        e = np.diag([a, a, b]).astype(complex)
        assert np.linalg.norm(e) == pytest.approx(1.0, rel=1e-14)
        assert sv.delta(e) == pytest.approx(0.5, rel=1e-12)
        res = by_id(sv.normal_bounds(e, np.eye(3), hermitian_a=False, s_tilde=1))
        assert res["XU2"].value == pytest.approx(math.sqrt(1.5), rel=1e-12)
        assert res["SUN"].value == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert res["LI_SUN"].value == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert res["XU1"].value == pytest.approx(math.sqrt(1.5), rel=1e-12)

    def test_hermitian_gate(self):
        e = np.diag([0.1, 0.2]).astype(complex)
        res = by_id(sv.normal_bounds(e, np.eye(2), hermitian_a=False, s_tilde=2))
        assert not res["XU_HERMITIAN"].applicable
        assert res["XU_HERMITIAN"].reason
        res = by_id(sv.normal_bounds(e, np.eye(2), hermitian_a=True, s_tilde=2))
        assert res["XU_HERMITIAN"].applicable

    def test_hw_needs_normal_a_tilde(self):
        e = np.diag([0.1, 0.2]).astype(complex)
        res = by_id(sv.normal_bounds(e, np.eye(2), hermitian_a=False, s_tilde=2))
        assert res["HW"].applicable
        jordan_like = np.array([[1.0, 1.0], [0.0, 2.0]])
        res = by_id(sv.normal_bounds(e, jordan_like, hermitian_a=False, s_tilde=2))
        assert not res["HW"].applicable
        assert res["HW"].reason
        assert res["HW"].value == 0.0
        assert res["SUN"].applicable

    def test_s_tilde_validated(self):
        with pytest.raises(sv.DomainError):
            sv.normal_bounds(np.eye(2), np.eye(2), hermitian_a=False, s_tilde=3)

    def test_refinements_dominate(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            e = sv.complex_gaussian(n, n, rng)
            s_tilde = int(rng.integers(1, n + 1))
            res = by_id(sv.normal_bounds(e, np.eye(n), hermitian_a=False, s_tilde=s_tilde))
            assert res["XU1"].value <= res["SUN"].value + 1e-12
            assert res["XU2"].value <= res["LI_SUN"].value + 1e-12
            assert res["XU2"].value <= res["XU1"].value + 1e-12


class TestBaselineBounds:
    def test_scalar_small_norm_closed_forms(self):
        n, p, m, t = 4, 2, 2, 0.05
        rng = np.random.default_rng(1)
        q = sv.random_conditioned(n, 5.0, rng)
        spec = sv.make_jordan_spec([(1.0, 2), (3.0, 2)], q)
        inst = sv.make_instance(spec, t * np.eye(n))
        res = jordan(inst)
        song = (math.sqrt(n - p) + 1) * n ** (0.5 + 0.5 / m) * t ** (1 / m)
        lichen = (
            math.sqrt(n * (n - p + 1 + 2 * t * math.sqrt(n * n - n * p)))
            * n ** (0.5 / m) * t ** (1 / m)
        )
        assert res["SONG"].value == pytest.approx(song, rel=1e-12)
        assert res["SONG"].branch == BRANCH_NORM_SMALL
        assert res["LI_CHEN"].value == pytest.approx(lichen, rel=1e-12)

    def test_boundary_takes_large_branch(self):
        # ||E_Q||_F == 1 exactly: the case split is "< 1" / ">= 1"
        spec = sv.make_jordan_spec([(0.0, 2), (1.0, 1)])
        e = np.zeros((3, 3), dtype=complex)
        e[0, 2] = 1.0
        inst = sv.make_instance(spec, e)
        assert inst.norm_eq == 1.0
        res = jordan(inst)
        for bid in BASELINE:
            assert res[bid].branch == BRANCH_NORM_LARGE

    def test_zero_short_circuit(self):
        spec = sv.make_jordan_spec([(1.0, 2)])
        inst = sv.make_instance(spec, np.zeros((2, 2)))
        res = jordan(inst, 1, 1)
        for bid in BASELINE:
            assert res[bid].value == 0.0
            assert res[bid].branch == BRANCH_ZERO

    def test_large_branch_values(self):
        spec = sv.make_jordan_spec([(0.0, 2), (1.0, 2)])
        e = np.zeros((4, 4), dtype=complex)
        e[0, 3] = 2.5
        inst = sv.make_instance(spec, e)
        n, p = 4, 2
        norm = 2.5
        res = jordan(inst, 4, 3)
        assert res["SONG"].value == pytest.approx(
            math.sqrt(n) * (math.sqrt(n - p) + 1) * norm, rel=1e-13
        )
        assert res["LI_CHEN"].value == pytest.approx(
            math.sqrt(3 * (n - p + 2 * math.sqrt(n - p) + norm)) * math.sqrt(norm),
            rel=1e-13,
        )


class TestNewBoundsComplex:
    def test_scalar_reference_rows(self):
        n, p, m, t = 4, 2, 2, 0.05
        rng = np.random.default_rng(2)
        q = sv.random_conditioned(n, 5.0, rng)
        spec = sv.make_jordan_spec([(1.0, 2), (3.0, 2)], q)
        inst = sv.make_instance(spec, t * np.eye(n))
        res = jordan(inst)
        up11 = math.sqrt((n - p) * n ** (1 + 1 / m) * t ** (2 / m) + n * t * t)
        assert res["UP1_1"].value == pytest.approx(up11, rel=1e-12)
        for bid in ("UP1_2", "UP1_3", "UP2_2", "UP2_3"):
            assert res[bid].value == pytest.approx(math.sqrt(n) * t, rel=1e-12)

    def test_normal_reduction(self):
        # unitary Q and p = n: every UP1_* equals the trace-deflated bound
        for seed in range(10):
            inst = normal_instance(seed, n=6, e_norm=0.5 if seed % 2 else 2.0)
            d = sv.delta(inst.e)
            expected = math.sqrt(
                6 * d * d + abs(np.trace(inst.e)) ** 2 / 6
            )
            res = jordan(inst)
            for bid in UP1:
                assert abs(res[bid].value - expected) <= 1e-10

    def test_s_refined_normal_reduction(self):
        # with the actual s(A+E), UP2_* reduce to the s-refined bound
        for seed in range(5):
            inst = normal_instance(seed, n=5, e_norm=0.6)
            s_tilde = sv.s_number(sv.assemble(inst.spec) + inst.e).s
            s_ref = 5 + 1 - s_tilde
            d = sv.delta(inst.e)
            expected = math.sqrt(s_ref * d * d + abs(np.trace(inst.e)) ** 2 / 5)
            res = jordan(inst, s_ref, s_ref, s_ref, s_ref)
            for bid in UP2:
                assert abs(res[bid].value - expected) <= 1e-10

    def test_dominance_up2_le_up1(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            inst = mixed_instance(seed, e_norm=float(rng.uniform(0.1, 3.0)))
            n = inst.spec.n
            res = jordan(inst, *(int(rng.integers(1, n + 1)) for _ in S_KEYS))
            for b1, b2 in zip(UP1, UP2):
                assert res[b2].value <= res[b1].value + 1e-12

    def test_sharper_than_song_and_li_chen(self):
        rng = np.random.default_rng(4)
        for seed in range(40):
            e_norm = float(rng.uniform(0.05, 4.0))  # exercises both branches
            inst = mixed_instance(seed, kappa=float(rng.uniform(1, 50)), e_norm=e_norm)
            n = inst.spec.n
            s1 = int(rng.integers(1, n + 1))
            s2 = int(rng.integers(1, n + 1))
            res = jordan(inst, s1, s2)
            assert res["UP1_1"].value <= res["SONG"].value + 1e-12
            assert res["UP2_1"].value <= res["LI_CHEN"].value + 1e-12

    def test_branch_labels(self):
        small = mixed_instance(7, e_norm=0.05, kappa=1.0)
        assert small.norm_eq < 1
        res = jordan(small, 1, 1, 1, 1)
        assert res["UP1_1"].branch == BRANCH_NORM_SMALL
        large = mixed_instance(8, e_norm=5.0, kappa=1.0)
        assert large.norm_eq >= 1
        res = jordan(large, 1, 1, 1, 1)
        assert res["UP1_1"].branch == BRANCH_NORM_LARGE
        assert res["UP1_2"].branch in (BRANCH_DELTA_SMALL, "delta(E_Q) >= 1")
        assert res["UP1_3"].branch in (BRANCH_C1, BRANCH_C2)

    def test_m_one_routes_to_c2(self):
        inst = normal_instance(11, n=4, e_norm=0.3)
        res = jordan(inst)
        assert res["UP1_3"].branch == BRANCH_C2
        assert res["UP2_3"].branch == BRANCH_C2

    def test_zero_short_circuit(self):
        spec = sv.make_jordan_spec([(1.0, 2), (2.0, 1)])
        inst = sv.make_instance(spec, np.zeros((3, 3)))
        for r in jordan(inst, 1, 1, 1, 1).values():
            assert r.value == 0.0
            assert r.branch == BRANCH_ZERO

    def test_s_validation(self):
        inst = mixed_instance(5)
        n = inst.spec.n
        for key, bad in (("s1", 0), ("s2", n + 1), ("s3", 0), ("s4", n + 1)):
            with pytest.raises(sv.DomainError, match=key):
                sv.jordan_bounds(sv.BoundInputs.of(inst), dict.fromkeys(S_KEYS, n) | {key: bad})

    def test_soundness_random(self):
        for seed in range(25):
            inst = mixed_instance(seed, kappa=20.0, e_norm=0.9)
            d2 = true_d2(inst)
            table = jordan_table(inst)
            slacks = {bid: r.value - d2 for bid, r in by_id(table).items() if r.applicable}
            assert sv.verify_instance(table, d2) == [], slacks


class TestPlan:
    def test_instances_reach_every_branch(self):
        steps = [step for inst in branch_instances() for step in plan_of(inst)]
        assert {step.branch for step in steps} == {
            BRANCH_NORM_SMALL, BRANCH_NORM_LARGE, BRANCH_DELTA_SMALL,
            BRANCH_DELTA_LARGE, BRANCH_C1, BRANCH_C2,
        }
        assert any(step.eps == 0.0 for step in steps)

    def test_zero_perturbation_plans_no_eps(self):
        inst = sv.make_instance(sv.make_jordan_spec([(1.0, 2)]), np.zeros((2, 2)))
        assert [step.branch for step in plan_of(inst)] == [BRANCH_ZERO] * 3
        assert all(step.s_key is None for step in plan_of(inst))

    def test_stationary_eps_is_optimal_epsilon(self):
        # plan computes the C1 minimiser itself; optimal_epsilon stays the
        # reference, and the two agree bit for bit, also below the square
        # underflow (delta(E_Q) ~ 1e-170, m = 7: eps ~ 5.18e-25)
        tiny = sv.SweepConfig(seed=1, trials=3, amount=1e-170, target_kappa=1,
                              block_profile="single-jordan")
        sweeps = (
            sv.SweepConfig(seed=3, trials=70, block_profile=profile, amount=amount,
                           target_kappa=kappa, perturbation=perturbation)
            for profile, amount, kappa, perturbation in itertools.product(
                ("single-jordan", "mixed"), (0.01, 0.5), (1.0, 10.0), ("gaussian", "rank1"),
            )
        )
        instances = itertools.chain(
            branch_instances(),
            [sv.gen_instance(tiny, 0)],
            (sv.gen_instance(cfg, idx) for cfg in sweeps for idx in range(cfg.trials)),
        )
        matched = 0
        for inst in instances:
            step = plan_of(inst)[2]
            if step.branch == BRANCH_C1 and inst.delta_eq > 0.0:
                assert step.eps == sv.optimal_epsilon(inst)
                matched += 1
        assert matched >= 1000

    def test_stationary_eps_below_the_square_underflow(self):
        # delta(E_Q) ~ 1e-170: curb = (m-1) delta^2 underflows, and the C1
        # eps comes from the unsquared parts, (sqrt(m-1) delta /
        # sqrt(drift))^(1/m); computed-s mode then computes s4 there.  Which
        # s4 it computes depends on the block cutoff: the scaled matrix's
        # couplings lie far below it, so only s4's range is checked
        cfg = sv.SweepConfig(seed=1, trials=3, amount=1e-170, target_kappa=1,
                             block_profile="single-jordan", s_mode="computed")
        inst = sv.gen_instance(cfg, 0)
        n, p, m = inst.spec.n, inst.spec.p, inst.spec.m
        step = plan_of(inst)[2]
        assert step.branch == BRANCH_C1
        with localcontext() as ctx:  # 50 digits
            ctx.prec = 50
            d = Decimal(inst.delta_eq)
            base = Decimal(m - 1).sqrt() * d / ((n - p) + 2 * Decimal(n - p).sqrt() * d).sqrt()
            exact = float(base ** (Decimal(1) / m))
            # every planned eps is pow(base, 1.0 / m): the rounding of 1.0 / m,
            # times |ln base| ~ 390 here, moves it by ~1e-14 relative
            want = float(base ** Decimal(1.0 / m))
        assert 0.0 < want < 1.0
        assert abs(step.eps - want) <= 4 * math.ulp(want)
        assert step.eps == pytest.approx(exact, rel=1e-13)
        assert 1 <= sv.run_trial(inst, cfg, 0).results.inputs["s4"] <= n

    def test_up_values_are_phi_at_planned_eps(self):
        for inst in branch_instances():
            n = inst.spec.n
            tr2 = abs(inst.trace_e) ** 2 / n
            res = jordan(inst)
            for bid, step in zip(UP1, plan_of(inst)):
                assert res[bid].branch == step.branch
                if step.eps > 0.0:
                    expected = math.sqrt(n * (sv.phi(inst, step.eps) - tr2) + tr2)
                    assert res[bid].value == pytest.approx(expected, rel=1e-10)

    def test_up2_reads_the_planned_s_key(self):
        inst = mixed_instance(0, e_norm=0.3)
        n = inst.spec.n
        svals = {"s1": 1, "s2": 2, "s3": 3, "s4": min(4, n)}
        res = jordan(inst, *svals.values())
        tr2 = abs(inst.trace_e) ** 2 / n
        for b1, b2, step in zip(UP1, UP2, plan_of(inst)):
            core = (res[b1].value ** 2 - tr2) / n
            expected = math.sqrt(svals[step.s_key] * core + tr2)
            assert res[b2].value == pytest.approx(expected, rel=1e-10)

    def test_computed_s_at_planned_eps(self):
        for inst in branch_instances():
            n = inst.spec.n
            out = sv.s_values(inst, mode="computed")
            # Q^-1 (A+E) Q from the assembled matrices, independently of E_Q
            a_plus_e = sv.assemble(inst.spec) + inst.e
            g = np.linalg.solve(inst.spec.q, a_plus_e @ inst.spec.q)
            planned = {step.s_key: step.eps for step in plan_of(inst) if step.eps > 0.0}
            for key in ("s1", "s2", "s3", "s4"):
                if key not in planned:
                    assert out[key] == n
                    continue
                t = sv.scaling_matrix(inst.spec, planned[key])
                scaled = np.linalg.solve(t, g @ t)
                assert out[key] == n + 1 - sv.s_number(scaled).s, key


class TestBranchContinuity:
    # each case split of the plan is continuous: just below a boundary and
    # at it, the two branches give the same bound
    SPECS = (
        [(0.0, 2), (1.0, 2), (2.0, 1)],          # n, p, m = 5, 3, 2
        [(0.0, 4), (1.0, 2)],                    # 6, 2, 4
        [(0.0, 1), (1.0, 1), (2.0, 1), (3.0, 1)],  # 4, 4, 1
    )

    def sides(self, blocks):
        below = corner_instance(blocks, 1.0 - 1e-12)
        at = corner_instance(blocks, 1.0)
        return (jordan(inst, 1, 1, 1, 1) for inst in (below, at))

    def test_norm_branch_boundary(self):
        for blocks in self.SPECS:
            below, at = self.sides(blocks)
            for bid in ("UP1_1", "UP2_1"):
                assert below[bid].branch == BRANCH_NORM_SMALL
                assert at[bid].branch == BRANCH_NORM_LARGE
                assert below[bid].value == pytest.approx(at[bid].value, rel=1e-10)

    def test_norm_branch_boundary_at_zero_delta(self):
        # scalar E: the split at ||E_Q||_F = 1 with delta(E_Q) = 0
        blocks = self.SPECS[1]
        n = 6
        below = scalar_instance(blocks, (1.0 - 1e-9) / math.sqrt(n))
        above = scalar_instance(blocks, (1.0 + 1e-9) / math.sqrt(n))
        assert below.norm_eq < 1.0 <= above.norm_eq
        lo = jordan(below)["UP1_1"]
        hi = jordan(above)["UP1_1"]
        assert (lo.branch, hi.branch) == (BRANCH_NORM_SMALL, BRANCH_NORM_LARGE)
        assert lo.value == pytest.approx(hi.value, rel=1e-7)

    def test_delta_branch_boundary(self):
        for blocks in self.SPECS:
            below, at = self.sides(blocks)
            for bid in ("UP1_2", "UP2_2"):
                assert below[bid].branch == BRANCH_DELTA_SMALL
                assert at[bid].branch == BRANCH_DELTA_LARGE
                assert below[bid].value == pytest.approx(at[bid].value, rel=1e-10)

    def test_c1_boundary(self):
        # when the stationary point hits eps = 1 the two branches agree:
        # drift = (m-1) delta^2 makes the interior formula collapse to phi(1)
        from scipy.optimize import brentq

        blocks = [(0.0, 3), (1.0, 1), (2.0, 1), (3.0, 1)]  # n - p = 2, m = 3
        f = lambda d: 2.0 + 2 * math.sqrt(2.0) * d - 2 * d * d
        d = brentq(f, 0.5, 10.0)
        below = corner_instance(blocks, d * (1.0 - 1e-9))
        above = corner_instance(blocks, d * (1.0 + 1e-9))
        assert plan_of(below)[2].eps == pytest.approx(1.0, abs=1e-6)
        lo = jordan(below)["UP1_3"]
        hi = jordan(above)["UP1_3"]
        assert (lo.branch, hi.branch) == (BRANCH_C1, BRANCH_C2)
        assert lo.value == pytest.approx(hi.value, rel=1e-7)


class TestNewBoundsReal:
    def test_inapplicable_for_complex_spectrum(self):
        inst = mixed_instance(6)  # complex eigenvalues almost surely
        assert not inst.spec.real_spectrum
        res = jordan(inst)
        for bid in UP3:
            assert not res[bid].applicable
            assert res[bid].reason

    def test_zero_perturbation(self):
        spec = sv.make_jordan_spec([(1.0, 2)])
        inst = sv.make_instance(spec, np.zeros((2, 2)))
        res = jordan(inst)
        for bid in UP3:
            assert res[bid].applicable
            assert res[bid].value == 0.0

    def test_hermitian_reduction(self):
        for seed in range(10):
            inst = normal_instance(seed, n=5, e_norm=0.5 if seed % 2 else 2.0,
                                   real=True)
            d = sv.delta(inst.e)
            fro = np.linalg.norm(inst.e)
            expected = math.sqrt(fro * fro + d * d)
            res = jordan(inst)
            for bid in UP3:
                assert res[bid].applicable
                assert abs(res[bid].value - expected) <= 1e-10

    def test_dominates_complex_family(self):
        # factor 2 <= factor n for n >= 2
        for seed in range(10):
            inst = mixed_instance(seed, real=True, e_norm=1.2)
            res = jordan(inst)
            for b3, b1 in zip(UP3, UP1):
                assert res[b3].value <= res[b1].value + 1e-12

    def test_hand_value_large_norm(self):
        # n=4, p=2, m=2 real instance with ||E_Q||_F >= 1
        spec = sv.make_jordan_spec([(0.0, 2), (2.0, 2)])
        e = np.zeros((4, 4), dtype=complex)
        e[0, 3] = 1.5
        inst = sv.make_instance(spec, e)
        assert inst.norm_eq == 1.5
        res = jordan(inst)
        expected = math.sqrt(2 * (math.sqrt(2) + 1.5) ** 2 + 0.0)
        assert res["UP3_1"].value == pytest.approx(expected, rel=1e-13)

    def test_soundness_random_real(self):
        for seed in range(20):
            inst = mixed_instance(seed, real=True, kappa=15.0, e_norm=0.8)
            d2 = true_d2(inst)
            table = jordan_table(inst)
            res = by_id(table)
            assert all(res[bid].applicable for bid in UP3)
            slacks = {bid: res[bid].value - d2 for bid in UP3}
            assert not set(UP3) & set(sv.verify_instance(table, d2)), slacks


class TestVerify:
    def test_zero_perturbation_slacks(self):
        spec = sv.make_jordan_spec([(1.0, 2), (2.0, 1)])
        inst = sv.make_instance(spec, np.zeros((3, 3)))
        table = jordan_table(inst, 3, 3, 3, 3)
        assert len(table.ids) == 11 and not any(table.reasons)
        assert all(value - 0.0 == 0.0 for value in table.values)
        assert sv.verify_instance(table, 0.0) == []

    def test_scalar_tight_slack(self):
        # E = t I makes the delta-branch bound coincide with D2
        spec = sv.make_jordan_spec([(1.0, 2), (3.0, 2)])
        inst = sv.make_instance(spec, 0.05 * np.eye(4))
        d2 = true_d2(inst)
        res = jordan(inst)
        slack = res["UP1_2"].value - d2
        assert abs(slack) <= 1e-12
        assert not sv.is_violation(res["UP1_2"].value, slack)

    def test_is_violation_threshold(self):
        assert not sv.is_violation(1.0, -1e-8)
        assert sv.is_violation(1.0, -3e-7)
        assert not sv.is_violation(0.0, -0.5e-7)

    def test_inapplicable_excluded(self):
        inst = mixed_instance(9)
        # D2 = 1e300 violates every bound compared; UP3_* is inapplicable
        assert sv.verify_instance(jordan_table(inst), 1e300) == list(JORDAN_IDS[:8])


# block layouts (n, p, m) up to n = 12, m = 1 and p = 1 among them
LAYOUTS = (
    (2, 1, 2), (3, 1, 3), (4, 4, 1), (5, 3, 2), (6, 2, 4),
    (7, 3, 3), (8, 2, 5), (10, 4, 4), (12, 12, 1), (12, 1, 12),
)
RATIOS = (0.0, 0.3, 0.7, 1.0)  # delta(E_Q) / ||E_Q||_F
NORMS = np.logspace(-6, 3, 25_000)


def point(layout, norm, d):
    """BoundInputs of a realisable E_Q with a real spectrum: ||E_Q||_F^2 =
    delta(E_Q)^2 + |tr E|^2 / n fixes |tr E|."""
    n = layout[0]
    return sv.BoundInputs(*layout, norm, d, math.sqrt(n * (norm * norm - d * d)), True)


def grid(norms=NORMS):
    """:func:`point` at every layout and ratio (the rows, in that order)
    and every norm (the columns), as one BoundInputs of arrays."""
    layouts = np.repeat(np.array(LAYOUTS), len(RATIOS), axis=0)
    n, p, m = (layouts[:, i, None] for i in range(3))
    norm = np.asarray(norms)[None, :]
    d = np.tile(RATIOS, len(LAYOUTS))[:, None] * norm
    return sv.BoundInputs(n, p, m, norm, d, np.sqrt(n * (norm * norm - d * d)), True)


def pessimistic(x):
    return dict.fromkeys(S_KEYS, x.n)


def random_s(x, rng):
    """s-values drawn independently for every point of ``x``."""
    shape = np.broadcast_shapes(np.shape(x.n), np.shape(x.norm_eq))
    return {key: rng.integers(1, x.n + 1, shape) for key in S_KEYS}


def grid_values(table, x):
    """The 11 Jordan-family value columns (SONG, LI_CHEN, UP1_*, UP2_*,
    UP3_*) of a table over ``grid()``, each an array of the grid's shape."""
    assert table.ids == JORDAN_IDS
    shape = np.shape(x.delta_eq)
    assert all(np.shape(v) == shape for v in table.values)
    return table.values


def assert_dominance(values):
    """SONG >= UP1_1 and LI_CHEN >= UP2_1 (up to rounding at equality),
    UP2 <= UP1 and UP3 <= UP1."""
    song, li_chen, *up = values
    assert (up[0] <= song * (1 + 1e-12)).all()
    assert (up[3] <= li_chen * (1 + 1e-12)).all()
    for up1, up2, up3 in zip(up[:3], up[3:6], up[6:]):
        assert (up2 <= up1).all() and (up3 <= up1).all()


class TestScalarKernel:
    # the Jordan family over BoundInputs of arrays: 10 layouts x 4 ratios x
    # 25,000 norms from 1e-6 to 1e3 is 1,000,000 points in one call

    def test_powers_are_libm_pow(self):
        # np.power can differ from libm's pow (Python's float **, which the
        # reports were first written with) in the last bit: it did on ~5 % of
        # inputs on an AVX-512 host; the kernel's power must not, for one
        # point or many
        rng = np.random.default_rng(2)
        x, y = 10.0 ** rng.uniform(-6, 3, 10_000), rng.uniform(0.0, 2.0, 10_000)
        libm = [math.pow(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert bounds._pow(x, y).tolist() == libm
        assert [float(bounds._pow(a, b)) for a, b in zip(x, y)] == libm

    def test_pessimistic_s_monotone_in_the_norm(self):
        x = grid()
        values = grid_values(sv.jordan_bounds(x, pessimistic(x)), x)
        assert np.shape(x.delta_eq) == (40, 25_000)
        assert all((np.diff(v, axis=1) >= 0.0).all() for v in values)
        assert_dominance(values)

    def test_dominance_at_random_s(self):
        # every other norm, each point with its own s-values
        x = grid(NORMS[::2])
        assert_dominance(grid_values(sv.jordan_bounds(x, random_s(x, np.random.default_rng(0))), x))

    def test_one_array_call_equals_a_call_per_point(self):
        # every 100th norm of the grid, with random s and every third row a
        # complex spectrum: the array call and one scalar call per point agree
        # bit for bit, on values, branches, reasons and eps
        x = grid()._replace(real_spectrum=np.arange(40)[:, None] % 3 > 0)
        s = random_s(x, np.random.default_rng(1))
        table = sv.jordan_bounds(x, s)

        def sample(columns):
            # every 100th norm: the rows, the sampled norms, the columns
            return np.stack([np.broadcast_to(c, x.delta_eq.shape)[:, ::100] for c in columns],
                            axis=-1)

        values = sample(grid_values(table, x))
        branches = sample(table.branches).tolist()
        reasons = sample(table.reasons).tolist()
        eps = sample([step.eps for step in plan(x)]).tolist()
        inputs = sample([x.norm_eq, x.delta_eq, x.trace_abs, *s.values()]).tolist()
        one = np.empty_like(values)
        for row, layout in enumerate(layout for layout in LAYOUTS for _ in RATIOS):
            for col, (norm, d, trace, *s_point) in enumerate(inputs[row]):
                xi = sv.BoundInputs(*layout, norm, d, trace, row % 3 > 0)
                steps = plan(xi)
                ti = sv.jordan_bounds(xi, dict(zip(S_KEYS, map(int, s_point))), steps)
                one[row, col] = ti.values
                assert list(ti.branches) == branches[row][col]
                assert list(ti.reasons) == reasons[row][col]
                assert [step.eps for step in steps] == eps[row][col]
        assert one.tobytes() == values.tobytes()

    def test_one_point_overflows_to_inf_as_the_array_does(self):
        # norms whose squares and powers overflow: one point's bounds are
        # the array call's, inf included, instead of an OverflowError
        norms = np.array([1e200, 1e300, 1.7e308])
        for layout, real in itertools.product(LAYOUTS, (True, False)):
            x = sv.BoundInputs(*layout, norms, 0.5 * norms, norms, np.full(3, real))
            with np.errstate(over="ignore", invalid="ignore"):
                table = sv.jordan_bounds(x, pessimistic(x))
            for i, norm in enumerate(norms):
                xi = sv.BoundInputs(*layout, float(norm), 0.5 * float(norm), float(norm), real)
                ti = sv.jordan_bounds(xi, pessimistic(xi))
                assert np.array(ti.values).tobytes() == np.array(
                    [np.broadcast_to(v, 3)[i] for v in table.values]).tobytes()
                assert list(ti.branches) == [np.broadcast_to(b, 3)[i] for b in table.branches]
                assert math.inf in ti.values

    def test_continuity_across_the_branch_boundaries(self):
        # just below and at ||E_Q||_F = 1 and delta = 1, and either side of
        # C1's drift = curb, at delta = sqrt(n-p) (1 + sqrt(m)) / (m-1): the
        # branch of one step changes, no bound does
        crossings = 0
        for layout, ratio in itertools.product(LAYOUTS, RATIOS[1:]):
            n, p, m = layout
            below, at = 1.0 - 1e-12, 1.0
            sides = [
                (0, 1e-9, point(layout, below, ratio * below), point(layout, at, ratio)),
                (1, 1e-9, point(layout, below / ratio, below), point(layout, at / ratio, at)),
            ]
            if m >= 2:
                d = math.sqrt(n - p) * (1.0 + math.sqrt(m)) / (m - 1)
                lo, hi = d * (1.0 - 1e-9), d * (1.0 + 1e-9)
                sides.append((2, 1e-7, point(layout, lo / ratio, lo),
                              point(layout, hi / ratio, hi)))
            for step, rel, x_lo, x_hi in sides:
                assert plan(x_lo)[step].branch != plan(x_hi)[step].branch
                lo_values = sv.jordan_bounds(x_lo, pessimistic(x_lo)).values
                hi_values = sv.jordan_bounds(x_hi, pessimistic(x_hi)).values
                assert lo_values == pytest.approx(hi_values, rel=rel), (layout, step)
                crossings += 1
        assert crossings == 10 * 3 * 2 + 8 * 3

    def test_up_bounds_below_the_square_underflow(self):
        # at m = 1 every UP core is delta^2, so UP_K = (K delta^2 + |tr E|^2 / n)^(1/2)
        # is homogeneous of degree 1: the reference takes it at 2^k times the
        # inputs, exactly, where nothing underflows.  One array call over
        # norms on both sides of 2^-480 agrees with a call per point.
        norms = [1e-300, 1e-200, 1e-170, 2.0 ** -481, 2.0 ** -480, 1e-140, 0.5]
        for n in (4, 12):
            x = sv.BoundInputs(n, n, 1, np.array(norms), 0.6 * np.array(norms),
                               0.8 * math.sqrt(n) * np.array(norms), True)
            table = sv.jordan_bounds(x, pessimistic(x))
            for i, norm in enumerate(norms):
                xi = sv.BoundInputs(n, n, 1, norm, 0.6 * norm, 0.8 * math.sqrt(n) * norm, True)
                ti = sv.jordan_bounds(xi, pessimistic(xi))
                assert ti.values == tuple(float(v[i]) for v in table.values)
                k = -math.frexp(norm)[1]
                d, trace = math.ldexp(xi.delta_eq, k), math.ldexp(xi.trace_abs, k)
                for ids, factor in ((UP1, n), (UP2, n), (UP3, 2)):
                    want = math.ldexp(math.sqrt(factor * d * d + trace * trace / n), -k)
                    for bid in ids:
                        got = ti.values[JORDAN_IDS.index(bid)]
                        assert abs(got - want) <= 4 * math.ulp(want), (n, norm, bid)
            # a complex spectrum keeps UP3's zero placeholder
            complex_x = x._replace(real_spectrum=False)
            complex_values = sv.jordan_bounds(complex_x, pessimistic(x)).values
            assert all(not complex_values[JORDAN_IDS.index(bid)].any() for bid in UP3)
