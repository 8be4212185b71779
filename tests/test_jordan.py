"""Tests for Jordan-structured instances, the T(eps) scaling and the
envelope."""

import numpy as np
import pytest

import specvar as sv
from specvar.harness import EPS_GRID


def make_mixed_instance(seed, n_blocks=3, kappa=8.0, e_norm=0.7, real=False):
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_blocks):
        lam = complex(rng.uniform(-2, 2), 0.0 if real else rng.uniform(-2, 2))
        blocks.append((lam, int(rng.integers(1, 4))))
    n = sum(size for _, size in blocks)
    q = sv.random_conditioned(n, kappa, rng)
    spec = sv.make_jordan_spec(blocks, q)
    g = sv.complex_gaussian(n, n, rng)
    return sv.make_instance(spec, g * (e_norm / np.linalg.norm(g)))


class TestJordanSpec:
    def test_counts(self):
        spec = sv.make_jordan_spec([(1.0, 2), (3.0, 1), (1j, 3)])
        assert (spec.n, spec.p, spec.m) == (6, 3, 3)
        assert spec.block_sizes == (2, 1, 3)
        assert np.array_equal(
            spec.eigenvalues, np.array([1, 1, 3, 1j, 1j, 1j], dtype=complex)
        )

    def test_identity_default(self):
        spec = sv.make_jordan_spec([(0.0, 2)])
        assert np.array_equal(spec.q, np.eye(2))

    def test_q_order_mismatch(self):
        with pytest.raises(sv.DimensionError):
            sv.make_jordan_spec([(0.0, 2)], np.eye(3))

    def test_singular_q_rejected(self):
        with pytest.raises(sv.SingularMatrixError):
            sv.make_jordan_spec([(0.0, 2)], np.zeros((2, 2)))

    def test_bad_block_size(self):
        with pytest.raises(sv.DimensionError):
            sv.make_jordan_spec([(1.0, 0)])

    def test_real_spectrum_flag(self):
        assert sv.make_jordan_spec([(1.0, 2), (-2.0, 1)]).real_spectrum
        assert not sv.make_jordan_spec([(1.0 + 1e-6j, 2)]).real_spectrum

    @pytest.mark.parametrize(
        "blocks", [[(1.0, 2), (-2.0, 1)], [(1.0 + 1e-6j, 2)], [(3.0 + 1e-13j, 1), (0.5, 3)]]
    )
    def test_derived_spectrum_and_real_flag(self, blocks):
        spec = sv.make_jordan_spec(blocks)
        assert spec.real_spectrum is all(abs(lam.imag) < 1e-12 for lam, _ in blocks)
        assert np.array_equal(spec.spectrum.values, sv.Spectrum(spec.eigenvalues).values)
        assert not spec.spectrum.values.flags.writeable


class TestAssemble:
    def test_diagonal_case(self):
        spec = sv.make_jordan_spec([(1.0, 1), (2.0, 1), (3j, 1)])
        assert np.allclose(sv.assemble(spec), np.diag([1.0, 2.0, 3j]))

    def test_single_block_identity_q(self):
        spec = sv.make_jordan_spec([(0.0, 2)])
        assert np.array_equal(sv.assemble(spec), [[0.0, 1.0], [0.0, 0.0]])

    def test_eigenvalues_recovered(self):
        rng = np.random.default_rng(0)
        q = sv.random_conditioned(3, 3.0, rng)
        spec = sv.make_jordan_spec([(1.0, 2), (2.0, 1)], q)
        got = sv.eigenvalues(sv.assemble(spec)).values
        expected = sv.canonical_order(spec.eigenvalues)
        assert np.allclose(got, expected, atol=1e-7)


class TestScaling:
    def test_all_unit_blocks_give_identity(self):
        spec = sv.make_jordan_spec([(1.0, 1)] * 4)
        for eps in (0.1, 0.5, 1.0):
            assert np.array_equal(sv.scaling_matrix(spec, eps), np.eye(4))

    def test_size_three_block(self):
        spec = sv.make_jordan_spec([(2.0, 3)])
        t = sv.scaling_matrix(spec, 0.5)
        assert np.allclose(t, np.diag([1.0, 0.5, 0.25]))

    def test_domain(self):
        spec = sv.make_jordan_spec([(0.0, 2)])
        inst = sv.make_instance(spec, np.zeros((2, 2)))
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(sv.DomainError):
                sv.scaling_matrix(spec, eps)
            with pytest.raises(sv.DomainError):
                sv.envelope_margins(inst, [0.5, eps])

    def test_scaled_similarity_splits_into_diagonal_plus_superdiag(self):
        spec = sv.make_jordan_spec([(1.5, 3), (2j, 2), (0.0, 1)])
        for eps in (0.25, 0.8, 1.0):
            t = np.diag(sv.scaling_matrix(spec, eps))
            j = sv.jordan_matrix(spec)
            scaled = j * (t[None, :] / t[:, None])
            # Lambda + Omega: the in-block superdiagonal shrinks to eps
            omega = eps * np.diag([1.0, 1.0, 0.0, 1.0, 0.0], k=1)
            expected = np.diag(spec.eigenvalues) + omega
            assert np.allclose(scaled, expected, atol=1e-15)

    def test_superdiag_norm_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
            spec = sv.make_jordan_spec([(rng.uniform(-1, 1), s) for s in sizes])
            inst = sv.make_instance(spec, np.zeros((spec.n, spec.n)))
            eps = rng.uniform(0.05, 1.0, size=4)
            err = sv.envelope_margins(inst, eps)["superdiag_norm_error"]
            n_minus_p = spec.n - spec.p
            assert np.all(err <= 1e-13 * n_minus_p * eps * eps)

    def test_structure_computed_once(self):
        spec = sv.make_jordan_spec([(1.0, 3), (2.0, 1), (0.5j, 2)])
        assert np.array_equal(spec.positions, [0.0, 1.0, 2.0, 0.0, 0.0, 1.0])
        assert spec.positions.dtype == np.float64
        assert not spec.positions.flags.writeable
        assert np.array_equal(sv.scaling_matrix(spec, 0.5).real, np.diag(
            np.concatenate([0.5 ** np.arange(3.0), [1.0], 0.5 ** np.arange(2.0)])
        ))
        assert np.array_equal(sv.jordan_matrix(spec), np.array([
            [1, 1, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 2, 0, 0],
            [0, 0, 0, 0, 0.5j, 1],
            [0, 0, 0, 0, 0, 0.5j],
        ]))


class TestInstance:
    def test_transport_roundtrip(self):
        inst = make_mixed_instance(2, kappa=20.0)
        q = inst.spec.q
        back = q @ inst.e_q @ np.linalg.inv(q)
        kappa = sv.kappa2(q)
        assert np.linalg.norm(back - inst.e) <= 1e-8 * kappa * inst.norm_e

    def test_delta_le_norm(self):
        for seed in range(6):
            inst = make_mixed_instance(seed)
            assert inst.delta_eq <= inst.norm_eq

    def test_shape_mismatch(self):
        spec = sv.make_jordan_spec([(0.0, 2)])
        with pytest.raises(sv.DimensionError):
            sv.make_instance(spec, np.eye(3))

    def test_scalar_perturbation_cached_exactly(self):
        rng = np.random.default_rng(3)
        q = sv.random_conditioned(4, 30.0, rng)
        spec = sv.make_jordan_spec([(1.0, 2), (2.0, 2)], q)
        inst = sv.make_instance(spec, 0.05 * np.eye(4))
        assert inst.delta_eq == 0.0
        assert inst.trace_e == pytest.approx(0.2)
        assert inst.norm_eq == pytest.approx(0.1, rel=1e-15)

    def test_immutability(self):
        inst = make_mixed_instance(4)
        with pytest.raises(ValueError):
            inst.e[0, 0] = 99.0

    @pytest.mark.parametrize("scalar", [False, True], ids=["gaussian", "scalar"])
    def test_no_array_aliases_caller_memory(self, scalar):
        rng = np.random.default_rng(8)
        q = sv.random_conditioned(5, 12.0, rng)
        e = 0.3 * np.eye(5, dtype=complex) if scalar else sv.complex_gaussian(5, 5, rng)
        spec = sv.make_jordan_spec([(1.0, 2), (2j, 3)], q)
        inst = sv.make_instance(spec, e)
        arrays = (inst.e, inst.e_q, inst.perturbed, spec.q, spec.spectrum.values)
        saved = [a.copy() for a in arrays]
        assert not any(a.flags.writeable for a in arrays)
        q[...] = 7.0
        e[...] = 7.0
        for a, before in zip(arrays, saved):
            assert np.array_equal(a, before)


class TestScalarShift:
    @pytest.mark.parametrize("t", [0.0, -0.0, 0.25, -1.5 + 2j])
    def test_scalar_matrices(self, t):
        assert sv.scalar_shift(t * np.eye(4, dtype=complex)) == t

    @pytest.mark.parametrize("i, j", [(0, 3), (3, 0), (2, 1), (2, 2)])
    def test_one_entry_off(self, i, j):
        e = 0.25 * np.eye(4, dtype=complex)
        e[i, j] += 1e-300j
        assert sv.scalar_shift(e) is None

    def test_agrees_with_the_identity_comparison(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            e = rng.choice([0.0, -0.0, 0.5, 1j], size=(n, n)).astype(complex)
            t = e[0, 0]
            want = t if np.array_equal(e, t * np.eye(n)) else None
            assert sv.scalar_shift(e) == want


class TestPhi:
    def test_at_one(self):
        inst = make_mixed_instance(5)
        n, p = inst.spec.n, inst.spec.p
        expected = (np.sqrt(n - p) + inst.delta_eq) ** 2 + abs(
            inst.trace_e
        ) ** 2 / n
        assert sv.phi(inst, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_zero_perturbation(self):
        spec = sv.make_jordan_spec([(1.0, 3), (2.0, 1)])
        inst = sv.make_instance(spec, np.zeros((4, 4)))
        for eps in (0.1, 0.7, 1.0):
            assert sv.phi(inst, eps) == pytest.approx((4 - 2) * eps * eps, rel=1e-15)

    def test_scalar_perturbation(self):
        t = 0.3
        spec = sv.make_jordan_spec([(1.0, 2), (5.0, 2)])
        inst = sv.make_instance(spec, t * np.eye(4))
        for eps in (0.2, 1.0):
            expected = (4 - 2) * eps * eps + 4 * t * t
            assert sv.phi(inst, eps) == pytest.approx(expected, rel=1e-14)

    def test_m_equal_one_has_constant_first_term(self):
        spec = sv.make_jordan_spec([(1.0, 1), (2.0, 1)])
        inst = sv.make_instance(spec, np.array([[0.0, 0.5], [0.0, 0.0]]))
        # all-unit blocks: phi(eps) = delta^2 + |tr E|^2 / n for every eps
        assert sv.phi(inst, 0.1) == pytest.approx(sv.phi(inst, 1.0), rel=1e-14)

    def test_domain(self):
        inst = make_mixed_instance(6)
        with pytest.raises(sv.DomainError):
            sv.phi(inst, 0.0)
        with pytest.raises(sv.DomainError):
            sv.phi(inst, 1.0001)


class TestOptimalEpsilon:
    def _instance_with_delta(self, blocks, delta_value):
        # traceless E supported off the diagonal: delta(E_Q) = ||E|| exactly
        spec = sv.make_jordan_spec(blocks)
        e = np.zeros((spec.n, spec.n), dtype=complex)
        e[0, -1] = delta_value
        return sv.make_instance(spec, e)

    def test_hand_value(self):
        inst = self._instance_with_delta([(0.0, 2), (3.0, 2)], 0.1)
        expected = (0.01 / (2.0 + 2.0 * np.sqrt(2.0) * 0.1)) ** 0.25
        assert sv.optimal_epsilon(inst) == pytest.approx(expected, rel=1e-13)

    def test_c2_branch_returns_one(self):
        # huge delta flips the stationary condition: the curb term wins
        inst = self._instance_with_delta([(0.0, 2), (3.0, 2)], 50.0)
        assert sv.optimal_epsilon(inst) == 1.0

    def test_minimizes_phi_on_grid(self):
        for seed in (0, 1, 2, 3):
            inst = make_mixed_instance(seed, kappa=5.0, e_norm=0.4)
            if inst.spec.m < 2 or inst.delta_eq <= 0:
                continue
            eps_star = sv.optimal_epsilon(inst)
            best = sv.phi(inst, eps_star)
            grid = np.linspace(1e-3, 1.0, 1000)
            assert all(best <= sv.phi(inst, float(e)) + 1e-12 for e in grid)

    def test_vanishing_delta_limit(self):
        values = [1e-2, 1e-4, 1e-6, 1e-8]
        eps_values, phi_excess = [], []
        m = 3
        for d in values:
            inst = self._instance_with_delta([(0.0, m), (1.0, 1)], d)
            eps_values.append(sv.optimal_epsilon(inst))
            trace_term = abs(inst.trace_e) ** 2 / inst.spec.n
            # stationary value shrinks like delta^(2/m) toward the trace term
            excess = sv.phi(inst, eps_values[-1]) - trace_term
            assert excess <= 10 * m * d ** (2.0 / m)
            phi_excess.append(excess)
        assert all(a > b for a, b in zip(eps_values, eps_values[1:]))
        assert all(a > b for a, b in zip(phi_excess, phi_excess[1:]))
        assert eps_values[-1] < 1e-1
        assert phi_excess[-1] < 1e-4

    def test_diagonalizable_rejected(self):
        spec = sv.make_jordan_spec([(1.0, 1), (2.0, 1)])
        inst = sv.make_instance(spec, np.eye(2) * 0.1)
        with pytest.raises(sv.NotApplicableError):
            sv.optimal_epsilon(inst)

    def test_zero_delta_rejected(self):
        spec = sv.make_jordan_spec([(1.0, 2)])
        inst = sv.make_instance(spec, 0.1 * np.eye(2))
        with pytest.raises(sv.DomainError):
            sv.optimal_epsilon(inst)


def reference_margins(inst, eps):
    """The margins at one eps as computed before the broadcast pass: J and
    Omega built entry by entry, T^-1 (J + E_Q) T - Lambda formed by
    subtracting Lambda, one eps at a time."""
    spec = inst.spec
    n, p, m = spec.n, spec.p, spec.m
    d = inst.delta_eq
    j = np.zeros((n, n), dtype=complex)
    omega = np.zeros((n, n), dtype=complex)
    off = 0
    for lam, size in spec.blocks:
        for k in range(size):
            j[off + k, off + k] = lam
            if k + 1 < size:
                j[off + k, off + k + 1] = 1.0
                omega[off + k, off + k + 1] = eps
        off += size
    t = np.diag(sv.scaling_matrix(spec, eps)).real
    ratio = t[None, :] / t[:, None]  # T^-1 M T = M_ij t_j / t_i
    value = sv.phi(inst, eps)
    f = (j + inst.e_q) * ratio - np.diag(spec.eigenvalues)
    scaled = inst.e_q * ratio
    rhs_norm2 = eps ** (2 * (1 - m)) * d * d + abs(inst.trace_e) ** 2 / n
    return {
        "phi": value,
        "envelope_margin": value - np.vdot(f, f).real,
        "scaled_norm_margin": rhs_norm2 - np.vdot(scaled, scaled).real,
        "cross_term_margin": eps * eps * np.sqrt(n - p) * d - np.vdot(omega, scaled).real,
        "superdiag_norm_error": abs(np.vdot(omega, omega).real - (n - p) * eps * eps),
    }


MARGIN_KEYS = (
    "envelope_margin", "scaled_norm_margin", "cross_term_margin", "superdiag_norm_error"
)


def acceptance_cell_instances(trials):
    """Sweep instances of every profile x perturbation x kappa x ||E|| cell
    of the acceptance grid, ||E|| >= 0.01."""
    for i, profile in enumerate(("diagonalizable", "single-jordan", "mixed")):
        for j, perturbation in enumerate(("gaussian", "scalar", "rank1")):
            for kappa in (1.0, 10.0, 100.0):
                for amount in (0.01, 0.5, 2.0):
                    cfg = sv.SweepConfig(
                        seed=10 * i + j, block_profile=profile,
                        perturbation=perturbation, target_kappa=kappa, amount=amount,
                    )
                    for trial in range(trials):
                        yield sv.gen_instance(cfg, trial)


def zero_eigenvalue_instance(sizes, kappa, norm, seed):
    """Jordan blocks of the given sizes, every eigenvalue 0, under a random
    Q with kappa2(Q) = kappa, and a gaussian E with ||E||_F = norm.  The
    margins do not read the eigenvalues; at 0 the reference's subtraction
    of Lambda is exact, so it stays an oracle down to ||E|| = 1e-14."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    q = sv.random_conditioned(n, kappa, rng)
    spec = sv.make_jordan_spec([(0.0, size) for size in sizes], q)
    g = sv.complex_gaussian(n, n, rng)
    return sv.make_instance(spec, g * (norm / np.linalg.norm(g)))


# eps values off the 1/16 grid, down to 1e-3: at m = 12, eps^(2(1-m)) is 1e66
OFF_GRID = np.array([1e-3, 0.01, 0.03, 0.07, 0.1, 0.15, 0.2, 0.2718, 0.3, 1 / 3,
                     0.45, 0.5 + 1e-9, 0.6, 0.7071, 0.9, 1.0 - 1e-12])


class TestEnvelopeMarginsDifferential:
    ATOL = 1e-12  # on each margin / phi ratio, fixed before the comparison

    def assert_matches_reference(self, inst, eps):
        fast = sv.envelope_margins(inst, eps)
        ref = [reference_margins(inst, float(e)) for e in eps]
        ref_phi = np.array([r["phi"] for r in ref])
        assert np.allclose(fast["phi"], ref_phi, rtol=1e-14, atol=0.0)
        live = ref_phi > 0.0
        for key in MARGIN_KEYS:
            got = fast[key][live] / fast["phi"][live]
            want = np.array([r[key] for r in ref])[live] / ref_phi[live]
            assert np.allclose(got, want, rtol=0.0, atol=self.ATOL), key

    def test_matches_reference_loop(self):
        count = 0
        for inst in acceptance_cell_instances(trials=2):
            self.assert_matches_reference(inst, EPS_GRID)
            count += 1
        assert count == 162

    # single blocks up to m = 12, where eps^(2d) spans 16^(-22)..16^22 on
    # the grid; n = p; and one mixed layout
    @pytest.mark.parametrize("sizes", [
        (2,), (3,), (5,), (8,), (12,), (1,), (1,) * 4, (1,) * 12, (3, 1, 5),
    ])
    @pytest.mark.parametrize("kappa", [1e4, 1e6])
    @pytest.mark.parametrize("norm", [1e-14, 2.0])
    def test_matches_reference_where_the_exponents_spread(self, sizes, kappa, norm):
        inst = zero_eigenvalue_instance(sizes, kappa, norm, seed=sum(sizes) + len(sizes))
        for eps in (EPS_GRID, OFF_GRID):
            self.assert_matches_reference(inst, eps)

    def test_sweep_records_match_reference_loop(self):
        for block_profile in ("diagonalizable", "single-jordan", "mixed"):
            cfg = sv.SweepConfig(seed=4, trials=4, block_profile=block_profile)
            for rec in sv.run_sweep(cfg).records:
                inst = sv.gen_instance(cfg, rec.trial)
                ref = [reference_margins(inst, float(eps)) for eps in EPS_GRID]
                ratios = {
                    key: [r[key] / r["phi"] for r in ref if r["phi"] > 0.0]
                    for key in MARGIN_KEYS
                }
                got = (
                    rec.envelope_ratio_min, rec.scaled_norm_ratio_min,
                    rec.cross_term_ratio_min, rec.superdiag_error_ratio_max,
                )
                want = (
                    min(ratios["envelope_margin"]), min(ratios["scaled_norm_margin"]),
                    min(ratios["cross_term_margin"]), max(ratios["superdiag_norm_error"]),
                )
                assert got == pytest.approx(want, rel=0.0, abs=self.ATOL)


class TestEnvelopeMargin:
    def test_zero_perturbation_any_eps(self):
        rng = np.random.default_rng(7)
        q = sv.random_conditioned(5, 25.0, rng)
        spec = sv.make_jordan_spec([(1.0 + 1j, 3), (0.5, 2)], q)
        inst = sv.make_instance(spec, np.zeros((5, 5)))
        out = sv.envelope_margins(inst, [0.0625, 0.3, 0.5, 1.0])
        assert np.all(np.abs(out["envelope_margin"]) <= 1e-14 * np.maximum(1.0, out["phi"]))

    def test_diagonal_traceless_eq_closed_form(self):
        # diagonal traceless E with q = I: the deviation and the scaled
        # superdiagonal have disjoint supports, so
        # margin = (eps^(2(1-m)) - 1) delta^2 + 2 eps^2 sqrt(n-p) delta
        spec = sv.make_jordan_spec([(0.0, 2), (1.0, 2)])
        e = np.diag([0.3, -0.3, 0.2, -0.2]).astype(complex)
        inst = sv.make_instance(spec, e)
        d = inst.delta_eq
        assert d == pytest.approx(np.linalg.norm(e), rel=1e-14)
        n, p, m = 4, 2, 2
        eps = np.array([0.2, 0.5, 1.0])
        expected = (eps ** (2 * (1 - m)) - 1.0) * d * d + (
            2.0 * eps * eps * np.sqrt(n - p) * d
        )
        margin = sv.envelope_margins(inst, eps)["envelope_margin"]
        assert margin == pytest.approx(expected, rel=1e-12, abs=1e-14)
        assert np.all(expected >= 0.0)

    def test_random_instances_nonnegative(self):
        for seed in range(8):
            inst = make_mixed_instance(seed, kappa=50.0, e_norm=0.8)
            out = sv.envelope_margins(inst, EPS_GRID)
            assert np.all(out["envelope_margin"] >= -1e-8 * out["phi"])

    def test_at_eps_one(self):
        inst = make_mixed_instance(9)
        out = sv.envelope_margins(inst, [1.0])
        assert out["phi"][0] == sv.phi(inst, 1.0)
        assert out["envelope_margin"][0] >= -1e-8 * out["phi"][0]


class TestScalingInequalities:
    def test_margins_nonnegative_on_grid(self):
        for seed in range(6):
            inst = make_mixed_instance(seed, kappa=30.0, e_norm=1.5)
            out = sv.envelope_margins(inst, EPS_GRID)
            tol = 1e-8 * out["phi"]
            assert np.all(out["scaled_norm_margin"] >= -tol)
            assert np.all(out["cross_term_margin"] >= -tol)
            assert np.all(out["superdiag_norm_error"] <= tol)

    def test_zero_perturbation_exact(self):
        spec = sv.make_jordan_spec([(2.0, 3)])
        inst = sv.make_instance(spec, np.zeros((3, 3)))
        out = sv.envelope_margins(inst, [0.5])
        assert out["scaled_norm_margin"][0] == 0.0
        assert out["cross_term_margin"][0] == 0.0
        assert out["superdiag_norm_error"][0] <= 1e-16
