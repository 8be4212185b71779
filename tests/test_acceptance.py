"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the measured
quantity (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Criteria 1, 3 and 4 share one 504-instance soundness sweep over the
kappa x ||E||_F grid {1, 10, 100} x {0.01, 0.5, 2}.
"""

import math
import time

import numpy as np
import pytest

import specvar as sv

KAPPAS = (1.0, 10.0, 100.0)
NORMS = (0.01, 0.5, 2.0)
TRIALS_PER_CELL = 56  # 9 * 56 = 504 >= 500 instances

SLACK_TOL = 1e-7
SHARP_TOL = 1e-12
MARGIN_TOL = 1e-8
REDUCTION_TOL = 1e-10
MATCH_TOL = 1e-10
TABLE_TOL = 1e-10
PHI_GRID_TOL = 1e-12


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def soundness_reports():
    t0 = time.time()
    reports = []
    for i, kappa in enumerate(KAPPAS):
        for j, norm in enumerate(NORMS):
            config = sv.SweepConfig(
                seed=1000 + 10 * i + j,
                trials=TRIALS_PER_CELL,
                n_range=(2, 12),
                block_profile="mixed",
                perturbation="gaussian",
                amount=norm,
                target_kappa=kappa,
                s_mode="pessimistic",
            )
            reports.append(sv.run_sweep(config))
    return reports, time.time() - t0


def test_criterion_1_soundness_sweep(soundness_reports):
    reports, elapsed = soundness_reports
    trials = sum(r.summary["trials"] for r in reports)
    violations = sum(r.summary["violation_count"] for r in reports)
    failed = sum(r.summary["failed_infrastructure"] for r in reports)
    min_slack = min(
        (s for r in reports for s in r.summary["min_slack"].values()),
        default=math.inf,
    )
    ok = trials >= 500 and violations == 0 and failed == 0 and elapsed < 120.0
    _report(
        "criterion 1 (soundness sweep)",
        ok,
        f"{trials} instances, {violations} violations, {failed} infrastructure "
        f"failures, min slack {min_slack:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_example_table():
    q = sv.random_conditioned(4, 5.0, np.random.default_rng(20))
    assert sv.kappa2(q) == pytest.approx(5.0, rel=1e-10)
    spec = sv.make_jordan_spec([(1.0, 2), (3.0, 2)], q)
    table = sv.example_scalar_table(4, 2, 2, 0.05, spec)
    worst = max(row["rel_err"] for row in table["rows"])
    d2_err = abs(table["d2"] - 0.1)
    ok = worst <= TABLE_TOL and d2_err <= TABLE_TOL and len(table["rows"]) == 8
    _report(
        "criterion 2 (scalar example table)",
        ok,
        f"8 rows, worst closed-form mismatch {worst:.3e}, |D2 - 0.1| = {d2_err:.3e}",
    )


def test_criterion_3_sharpness(soundness_reports):
    reports, _ = soundness_reports
    song = min(r.summary["sharpness_song_min"] for r in reports)
    lichen = min(r.summary["sharpness_lichen_min"] for r in reports)
    ok = song >= -SHARP_TOL and lichen >= -SHARP_TOL
    _report(
        "criterion 3 (sharpness vs baselines)",
        ok,
        f"min(SONG - UP1_1) = {song:.3e}, min(LI_CHEN - UP2_1) = {lichen:.3e}",
    )


def test_criterion_4_envelope_margins(soundness_reports):
    reports, _ = soundness_reports
    env = min(r.summary["envelope_ratio_min"] for r in reports)
    part_i = min(r.summary["scaled_norm_ratio_min"] for r in reports)
    part_ii = min(r.summary["cross_term_ratio_min"] for r in reports)
    part_iii = max(r.summary["superdiag_error_ratio_max"] for r in reports)
    ok = (
        env >= -MARGIN_TOL
        and part_i >= -MARGIN_TOL
        and part_ii >= -MARGIN_TOL
        and part_iii <= MARGIN_TOL
    )
    _report(
        "criterion 4 (envelope margins, 16-point eps grid)",
        ok,
        f"envelope {env:.3e}, scaled-norm {part_i:.3e}, cross-term {part_ii:.3e}, "
        f"superdiag error {part_iii:.3e} (all relative to phi)",
    )


def _normal_instance(rng, real):
    n = int(rng.integers(2, 11))
    u = sv.random_unitary(n, rng)
    lams = [
        complex(rng.uniform(-2, 2), 0.0 if real else rng.uniform(-2, 2))
        for _ in range(n)
    ]
    spec = sv.make_jordan_spec([(lam, 1) for lam in lams], u)
    g = sv.complex_gaussian(n, n, rng)
    e = g * (10.0 ** rng.uniform(-1.5, 0.4) / np.linalg.norm(g))
    return sv.make_instance(spec, e)


def test_criterion_5_reductions():
    rng = np.random.default_rng(30)
    worst_normal = 0.0
    for _ in range(100):
        inst = _normal_instance(rng, real=False)
        n = inst.spec.n
        d = sv.delta(inst.e)
        expected = math.sqrt(n * d * d + abs(np.trace(inst.e)) ** 2 / n)
        for r in sv.jordan_bounds(sv.BoundInputs.of(inst), sv.s_values(inst)):
            if r.id.name.startswith("UP1"):
                worst_normal = max(worst_normal, abs(r.value - expected))
    worst_herm = 0.0
    for _ in range(100):
        inst = _normal_instance(rng, real=True)
        d = sv.delta(inst.e)
        fro = float(np.linalg.norm(inst.e))
        expected = math.sqrt(fro * fro + d * d)
        results = [
            r for r in sv.jordan_bounds(sv.BoundInputs.of(inst), sv.s_values(inst))
            if r.id.name.startswith("UP3")
        ]
        assert all(r.applicable for r in results)
        for r in results:
            worst_herm = max(worst_herm, abs(r.value - expected))
    ok = worst_normal <= REDUCTION_TOL and worst_herm <= REDUCTION_TOL
    _report(
        "criterion 5 (normal/Hermitian reductions)",
        ok,
        f"100+100 instances, worst |UP1_k - normal form| = {worst_normal:.3e}, "
        f"worst |UP3_k - Hermitian form| = {worst_herm:.3e}",
    )


def test_criterion_6_matching_oracle():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fast = sv.optimal_match(a, b).d2
        oracle = sv.brute_force_match(a, b).d2
        worst = max(worst, abs(fast - oracle))
    ok = worst <= MATCH_TOL
    _report(
        "criterion 6 (matching vs brute-force oracle)",
        ok,
        f"200 pairs with n <= 7, worst |d2 - oracle| = {worst:.3e}",
    )


def test_criterion_7_block_structure_ground_truth():
    rng = np.random.default_rng(50)
    # 50 random normal matrices: s = n
    for _ in range(50):
        n = int(rng.integers(2, 9))
        u = sv.random_unitary(n, rng)
        lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        dec = sv.s_number(u @ np.diag(lams) @ u.conj().T)
        assert dec.s == n, f"normal matrix: expected s={n}, got {dec.s}"
    # single Jordan blocks, sizes 2..6, under random unitaries: s = 1
    for size in range(2, 7):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        j = lam * np.eye(size) + np.diag(np.ones(size - 1), k=1)
        u = sv.random_unitary(size, rng)
        dec = sv.s_number(u @ j @ u.conj().T)
        assert dec.s == 1, f"J_{size}: expected s=1, got {dec.s}"
    # 50 constructed k-block instances with disjoint spectra: s = k
    for _ in range(50):
        k = int(rng.integers(1, 5))
        sizes = [int(rng.integers(1, 4)) for _ in range(k)]
        n = sum(sizes)
        m = np.zeros((n, n), dtype=complex)
        off = 0
        for i, size in enumerate(sizes):
            lam = 3.0 * i + rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
            m[off : off + size, off : off + size] = lam * np.eye(size) + (
                np.diag(np.ones(size - 1), k=1) if size > 1 else 0.0
            )
            off += size
        u = sv.random_unitary(n, rng)
        dec = sv.s_number(u @ m @ u.conj().T)
        assert dec.s == k, f"{sizes}: expected s={k}, got {dec.s}"
        assert sorted(dec.block_sizes) == sorted(sizes)
    _report(
        "criterion 7 (block-structure ground truth)",
        True,
        "s = n on 50 normals, s = 1 on Jordan blocks 2-6, "
        "s = k on 50 constructed k-block instances",
    )


def test_criterion_8_trace_deflated_norm_suite():
    rng = np.random.default_rng(60)
    worst_excess = -math.inf
    for _ in range(500):
        n = int(rng.integers(1, 13))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        parts = sv.split_dlu(m)
        lhs = (
            np.linalg.norm(parts.strictly_lower) ** 2
            + np.linalg.norm(parts.strictly_upper) ** 2
        )
        excess = lhs - sv.delta(m) ** 2 - 1e-12 * np.linalg.norm(m) ** 2
        worst_excess = max(worst_excess, excess)
    assert worst_excess <= 0.0
    worst_scalar = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 13))
        mu = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        worst_scalar = max(worst_scalar, sv.delta(mu * np.eye(n)))
    assert worst_scalar <= 1e-12
    min_nonscalar = math.inf
    for _ in range(50):
        n = int(rng.integers(2, 13))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        min_nonscalar = min(min_nonscalar, sv.delta(m))
    assert min_nonscalar > 1e-6
    _report(
        "criterion 8 (triangular-parts / scalar-matrix suite)",
        True,
        f"500 matrices, worst triangular excess {worst_excess:.3e}; "
        f"50 scalars, max delta {worst_scalar:.3e}; "
        f"50 generic, min delta {min_nonscalar:.3e}",
    )


def test_criterion_9_stationary_point():
    rng = np.random.default_rng(70)
    grid = np.linspace(1e-3, 1.0, 1000)
    built = 0
    worst = -math.inf
    while built < 100:
        blocks = []
        for _ in range(int(rng.integers(1, 4))):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            blocks.append((lam, int(rng.integers(1, 4))))
        spec_candidate = [(lam, size) for lam, size in blocks]
        n = sum(size for _, size in spec_candidate)
        m = max(size for _, size in spec_candidate)
        if m < 2:
            continue
        q = sv.random_conditioned(n, float(rng.uniform(1, 20)), rng)
        spec = sv.make_jordan_spec(spec_candidate, q)
        g = sv.complex_gaussian(n, n, rng)
        inst = sv.make_instance(spec, g * (float(rng.uniform(0.05, 1.0)) / np.linalg.norm(g)))
        d = inst.delta_eq
        p = spec.p
        if d <= 0 or n - p + 2 * math.sqrt(n - p) * d <= (m - 1) * d * d:
            continue  # criterion wants instances satisfying C1
        built += 1
        eps_star = sv.optimal_epsilon(inst)
        best = sv.phi(inst, eps_star)
        gap = max(best - sv.phi(inst, float(e)) for e in grid)
        worst = max(worst, gap)
    ok = worst <= PHI_GRID_TOL
    _report(
        "criterion 9 (phi stationary point)",
        ok,
        f"100 C1 instances, max of phi(eps*) - min_grid phi = {worst:.3e}",
    )
