"""Tests for spectra and the optimal matching distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specvar as sv
from specvar import spectrum

complex_values = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


class TestSpectrum:
    def test_canonical_order_is_total_and_idempotent(self):
        values = np.array([2.0 + 1j, -1.0, 2.0 - 3j, -1.0])
        s = sv.Spectrum(values)
        assert np.array_equal(s.values, sv.canonical_order(s.values))
        resorted = sv.Spectrum(s.values)
        assert np.array_equal(s.values, resorted.values)

    def test_empty_rejected(self):
        with pytest.raises(sv.DimensionError):
            sv.Spectrum(np.array([]))

    @pytest.mark.parametrize(
        "entry",
        [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)]
        + [complex(0.0, x) for x in (np.nan, np.inf, -np.inf)],
        ids=str,
    )
    def test_non_finite_real_or_imaginary_part_rejected(self, entry):
        with pytest.raises(sv.DimensionError):
            sv.Spectrum(np.array([1.0, entry, 2.0]))

    def test_len(self):
        assert len(sv.Spectrum(np.array([1.0, 2.0, 3.0]))) == 3


class TestEigenvalues:
    def test_diagonal(self):
        s = sv.eigenvalues(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(s.values, [1.0, 2.0, 3.0])

    def test_nilpotent(self):
        s = sv.eigenvalues([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(s.values, [0.0, 0.0])

    def test_companion_matrix(self):
        # companion of z^2 - 3z + 2 = (z-1)(z-2)
        c = np.array([[0.0, -2.0], [1.0, 3.0]])
        s = sv.eigenvalues(c)
        assert np.allclose(s.values, [1.0, 2.0], atol=1e-12)

    def test_multiplicities_kept(self):
        s = sv.eigenvalues(np.diag([5.0, 5.0, 1.0]))
        assert np.allclose(s.values, [1.0, 5.0, 5.0])

    def test_nonsquare_rejected(self):
        with pytest.raises(sv.DimensionError):
            sv.eigenvalues(np.ones((2, 3)))

    @pytest.mark.parametrize("profile", ["mixed", "single-jordan", "diagonalizable"])
    def test_bitwise_equal_to_numpy_on_sweep_matrices(self, profile):
        # eigenvalues is np.linalg.eigvals, canonically ordered
        count = 0
        for kappa in (1.0, 1e2, 1e4, 1e6):
            cfg = sv.SweepConfig(seed=5, trials=8, n_range=(2, 24), block_profile=profile,
                                 target_kappa=kappa, amount=0.3)
            for idx in range(cfg.trials):
                g = sv.gen_instance(cfg, idx).perturbed
                want = sv.canonical_order(np.linalg.eigvals(g))
                assert np.array_equal(sv.eigenvalues(g).values, want)
                count += 1
        assert count == 32

    def test_nonconvergence_raises(self, stall_lapack):
        stall_lapack("eigvals")  # zgeev's QR iteration did not converge
        with pytest.raises(sv.EigensolverError, match="eigvals did not converge"):
            sv.eigenvalues(np.diag([1.0, 2.0, 3.0]))

    def test_non_finite_input_rejected(self):
        with pytest.raises(sv.NonFiniteError):
            sv.eigenvalues(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestOptimalMatch:
    def test_identical_spectra(self):
        s = sv.Spectrum(np.array([1.0, 2.0 + 1j, -3.0]))
        m = sv.optimal_match(s, s)
        assert m.d2 == pytest.approx(0.0, abs=1e-15)
        assert m.d_inf == pytest.approx(0.0, abs=1e-15)

    def test_two_point_hand_value(self):
        # brute force over both permutations: best pairs 1<->1.1, 2<->2.5
        m = sv.optimal_match(np.array([1.0, 2.0]), np.array([2.5, 1.1]))
        assert m.d2 == pytest.approx(np.sqrt(0.26), rel=1e-14)
        assert m.d_inf == pytest.approx(0.5, rel=1e-12)

    def test_scalar_shift_gives_sqrt_n_t(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 10))
            t = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = sv.optimal_match(a, a + t)
            assert m.d2 == pytest.approx(np.sqrt(n) * abs(t), rel=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(sv.DimensionError):
            sv.optimal_match(np.array([1.0]), np.array([1.0, 2.0]))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert sv.optimal_match(a, b).d2 == pytest.approx(
                sv.optimal_match(b, a).d2, rel=1e-12, abs=1e-14
            )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        base = sv.optimal_match(a, b).d2
        for _ in range(5):
            assert sv.optimal_match(rng.permutation(a), rng.permutation(b)).d2 == (
                pytest.approx(base, rel=1e-12)
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            a, b, c = (
                rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)
            )
            dab = sv.optimal_match(a, b).d2
            dbc = sv.optimal_match(b, c).d2
            dac = sv.optimal_match(a, c).d2
            assert dac <= dab + dbc + 1e-10

    def test_dinf_le_d2(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            m = sv.optimal_match(a, b)
            assert m.d_inf <= m.d2 + 1e-14

    def test_permutation_achieves_d2(self):
        rng = np.random.default_rng(5)
        a = sv.Spectrum(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        b = sv.Spectrum(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        m = sv.optimal_match(a, b)
        explicit = np.sqrt(np.sum(np.abs(b.values[m.permutation] - a.values) ** 2))
        assert m.d2 == pytest.approx(explicit, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(complex_values, min_size=1, max_size=5))
    def test_matches_brute_force_hypothesis(self, values):
        a = np.array(values, dtype=np.complex128)
        b = a[::-1].copy() + (0.5 - 0.25j)
        assert sv.optimal_match(a, b).d2 == pytest.approx(
            sv.brute_force_match(a, b).d2, abs=1e-10, rel=1e-10
        )


def spectra_with_repeated_eigenvalues(rng, n):
    """Prescribed eigenvalues in runs of up to three equal values, and a
    perturbation of them: the ties every Jordan block of a sweep makes."""
    a = np.repeat(rng.uniform(-2, 2, n) + 1j * rng.uniform(-2, 2, n), 3)[:n]
    return a, a + rng.uniform(1e-3, 1.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def one_value_spectra(rng, n):
    """n copies of one prescribed eigenvalue, and a perturbation of them."""
    a = np.full(n, complex(*rng.uniform(-2, 2, 2)))
    return a, a + rng.uniform(1e-3, 1.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def solver_match(a, b):
    """optimal_match through ``_assignment`` on every input: the same
    scaled costs, and no shortcut for a one-value ``a``."""
    a, b = sv.Spectrum(a).values, sv.Spectrum(b).values
    parts = np.concatenate((a, b)).view(np.float64)
    k = math.frexp(np.abs(parts).max())[1]
    a_k, b_k = np.split(np.ldexp(parts, -k).view(np.complex128), 2)
    perm = spectrum._assignment(np.abs(b_k[None, :] - a_k[:, None]) ** 2)
    return spectrum._matching_from_permutation(a_k, b_k, perm, k)


def assignment_problems():
    """(label, cost) pairs: n = 1, uniform costs, integer costs with many
    ties, and the costs of spectra with repeated eigenvalues, at n <= 13,
    plus a few at n = 64 and 128."""
    rng = np.random.default_rng(17)
    yield "n=1", np.array([[2.5]])
    for n in list(range(1, 14)) * 6 + [64, 128]:
        yield f"uniform n={n}", rng.uniform(size=(n, n))
        yield f"integer n={n}", rng.integers(0, 3, size=(n, n)).astype(np.float64)
        a, b = spectra_with_repeated_eigenvalues(rng, n)
        yield f"repeated n={n}", np.abs(b[None, :] - a[:, None]) ** 2


class TestAssignment:
    """``spectrum._assignment`` against scipy's ``linear_sum_assignment``,
    the reference (imported here only; the package does not use scipy)."""

    def test_returns_a_permutation_of_optimal_cost(self):
        from scipy.optimize import linear_sum_assignment

        count = 0
        for label, cost in assignment_problems():
            n = len(cost)
            perm = spectrum._assignment(cost)
            assert sorted(perm) == list(range(n)), label
            rows, cols = linear_sum_assignment(cost)
            want = cost[rows, cols].sum()
            got = cost[np.arange(n), perm].sum()
            assert abs(got - want) <= 1e-12 * abs(want), label
            count += 1
        assert count == 1 + 3 * (13 * 6 + 2)

    def test_d2_equals_brute_force_up_to_seven(self):
        rng = np.random.default_rng(18)
        cases = [spectra_with_repeated_eigenvalues(rng, n) for n in (1, 2, 3, 4, 5, 6, 7, 7, 7)]
        # one-value spectra, on which optimal_match skips the solve
        cases += [one_value_spectra(rng, n) for n in range(1, 9)]
        for a, b in cases:
            n = len(a)
            m = sv.optimal_match(a, b)
            assert sorted(m.permutation.tolist()) == list(range(n))
            assert m.d2 == pytest.approx(sv.brute_force_match(a, b).d2, rel=1e-12)
            solved = solver_match(a, b)
            assert np.array_equal(m.permutation, solved.permutation)
            assert (m.d2, m.d_inf) == (solved.d2, solved.d_inf)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_cost_rejected(self, bad):
        cost = np.ones((3, 3))
        cost[:, 1] = bad
        with pytest.raises(sv.NonFiniteError):
            spectrum._assignment(cost)

    def test_optimal_match_survives_squares_past_overflow(self):
        # |b - a|^2 overflows at this scale: 1e370 for the crossed pairs
        a = np.array([1e200, -1e200])
        b = np.array([1e200 + 1e185, -1e200 + 3e185j])
        m = sv.optimal_match(a, b)
        dists = np.abs(sv.Spectrum(b).values[m.permutation] - sv.Spectrum(a).values)
        assert m.d_inf == np.max(dists) == pytest.approx(3e185, rel=1e-12)
        assert m.d2 == pytest.approx(np.hypot(*dists), rel=1e-15)
        assert np.isfinite(m.d2)

    def test_power_of_two_scaling_keeps_ordinary_distances(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a, b = spectra_with_repeated_eigenvalues(rng, int(rng.integers(1, 13)))
            m = sv.optimal_match(a, b)
            a, b = sv.Spectrum(a).values, sv.Spectrum(b).values
            dists = np.abs(b[m.permutation] - a)
            assert m.d2 == float(np.sqrt(np.sum(dists**2)))
            assert m.d_inf == float(np.max(dists))


class TestBruteForce:
    def test_single_point(self):
        m = sv.brute_force_match(np.array([1j]), np.array([-1j]))
        assert m.d2 == pytest.approx(2.0)

    def test_all_permutations_tie(self):
        m = sv.brute_force_match(np.array([0.0, 0.0]), np.array([1.0, -1.0]))
        assert m.d2 == pytest.approx(np.sqrt(2.0))

    def test_agrees_with_optimal_small(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert sv.brute_force_match(a, b).d2 == pytest.approx(
                sv.optimal_match(a, b).d2, abs=1e-12
            )

    def test_size_cap(self):
        big = np.arange(9, dtype=np.complex128)
        with pytest.raises(sv.SizeLimitError):
            sv.brute_force_match(big, big)
