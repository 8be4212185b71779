"""Tests for the dense matrix primitives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import specvar as sv
from specvar import linalg


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


# a NaN or infinity in the real part only, or in the imaginary part only
NON_FINITE = [complex(x, 0.0) for x in (np.nan, np.inf, -np.inf)] + [
    complex(0.0, x) for x in (np.nan, np.inf, -np.inf)
]

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def square_matrices(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, (n, n), elements=finite),
            arrays(np.float64, (n, n), elements=finite),
        ).map(lambda parts: parts[0] + 1j * parts[1])
    )


class TestDelta:
    def test_scalar_matrix_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            mu = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            assert sv.delta(mu * np.eye(n)) <= 1e-12 * (1 + abs(mu))

    def test_traceless_equals_frobenius(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert sv.delta(m) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value_diag_1_3(self):
        # sqrt(10 - 16/2) = sqrt(2)
        assert sv.delta(np.diag([1.0, 3.0])) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_nonsquare_rejected(self):
        with pytest.raises(sv.DimensionError):
            sv.delta(np.ones((2, 3)))

    def test_nan_rejected(self):
        with pytest.raises(sv.NonFiniteError):
            sv.delta(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_bitwise_equal_to_the_identity_form(self):
        # delta shifts the diagonal of a copy; ||M - (tr M / n) I||_F with
        # I built by np.eye is the reference, on random, scalar and
        # trace-zero matrices
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            random = random_complex(rng, n) * 10.0 ** rng.uniform(-12, 3)
            scalar = complex(*rng.uniform(-5, 5, 2)) * np.eye(n)
            traceless = random.copy()
            np.fill_diagonal(traceless, 0.0)
            traceless[0, 0], traceless[-1, -1] = (1.5, -1.5) if n > 1 else (0.0, 0.0)
            for m in (random, scalar, traceless):
                dev = m - (np.trace(m) / n) * np.eye(n)
                want = min(float(np.linalg.norm(dev)), float(np.linalg.norm(m)))
                assert sv.delta(m) == want

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_bounded_by_frobenius(self, m):
        assert sv.delta(m) <= np.linalg.norm(m)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_triangular_parts_bounded(self, m):
        # strictly lower/upper mass never exceeds the trace-deflated norm
        parts = sv.split_dlu(m)
        lower2 = np.linalg.norm(parts.strictly_lower) ** 2
        upper2 = np.linalg.norm(parts.strictly_upper) ** 2
        assert lower2 + upper2 <= sv.delta(m) ** 2 + 1e-12 * np.linalg.norm(m) ** 2

    def test_unitary_similarity_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            m = random_complex(rng, n)
            u = sv.random_unitary(n, rng)
            d0 = sv.delta(m)
            d1 = sv.delta(u.conj().T @ m @ u)
            assert abs(d1 - d0) <= 1e-10 * np.linalg.norm(m)

    def test_zero_iff_scalar_both_directions(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 10))
            mu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            m = mu * np.eye(n)
            scale = 1.0 + np.linalg.norm(m)
            assert sv.delta(m) < 1e-10 * scale
        for _ in range(50):
            n = int(rng.integers(2, 10))
            m = random_complex(rng, n)  # unit-scale entries, never scalar
            scale = 1.0 + np.linalg.norm(m)
            offscalar = np.max(np.abs(m - (np.trace(m) / n) * np.eye(n)))
            assert offscalar >= 1e-8 * scale
            assert sv.delta(m) >= 1e-10 * scale
            assert sv.delta(m) > 1e-6


class TestSplitDLU:
    def test_identity(self):
        parts = sv.split_dlu(np.eye(3))
        assert np.array_equal(parts.diagonal, np.eye(3))
        assert not parts.strictly_lower.any()
        assert not parts.strictly_upper.any()

    def test_two_by_two(self):
        parts = sv.split_dlu([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(parts.diagonal, np.diag([1.0, 4.0]))
        assert np.array_equal(parts.strictly_lower, [[0.0, 0.0], [3.0, 0.0]])
        assert np.array_equal(parts.strictly_upper, [[0.0, 2.0], [0.0, 0.0]])

    def test_strictly_upper_bidiagonal(self):
        om = np.diag([0.25, 0.25], k=1).astype(complex)
        parts = sv.split_dlu(om)
        assert not parts.diagonal.any()
        assert not parts.strictly_lower.any()
        assert np.array_equal(parts.strictly_upper, om)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_reconstruction_is_bitwise(self, m):
        parts = sv.split_dlu(m)
        total = parts.diagonal + parts.strictly_lower + parts.strictly_upper
        assert np.array_equal(total, np.asarray(m, dtype=np.complex128))

    def test_nonsquare_rejected(self):
        with pytest.raises(sv.DimensionError):
            sv.split_dlu(np.ones((3, 2)))


class TestKappa2:
    def test_unitary_is_one(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            assert sv.kappa2(sv.random_unitary(n, rng)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert sv.kappa2(np.diag([1.0, 10.0])) == pytest.approx(10.0, rel=1e-12)

    def test_cross_check_against_gram_eigenvalues(self):
        # independent oracle: singular values from the Hermitian eigensolver
        rng = np.random.default_rng(4)
        q = random_complex(rng, 5)
        ev = np.linalg.eigvalsh(q.conj().T @ q)
        expected = np.sqrt(ev[-1] / ev[0])
        assert sv.kappa2(q) == pytest.approx(expected, rel=1e-8)

    def test_singular_rejected(self):
        q = np.ones((3, 3))
        with pytest.raises(sv.SingularMatrixError):
            sv.kappa2(q)

    def test_at_least_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = random_complex(rng, 4)
            assert sv.kappa2(q) >= 1.0 - 1e-12


class TestPlumbing:
    @pytest.mark.parametrize("entry", NON_FINITE, ids=str)
    def test_non_finite_real_or_imaginary_part_rejected(self, entry):
        m = np.ones((2, 2), dtype=np.complex128)
        m[1, 0] = entry
        with pytest.raises(sv.NonFiniteError):
            sv.as_matrix(m)

    def test_solve_and_roundtrip(self):
        rng = np.random.default_rng(7)
        q = random_complex(rng, 5)
        b = random_complex(rng, 5, 3)
        x = sv.solve(q, b)
        assert np.allclose(q @ x, b, atol=1e-10)

    def test_solve_singular(self):
        with pytest.raises(sv.SingularMatrixError):
            sv.solve(np.zeros((2, 2)), np.eye(2))

    def test_solve_shape_mismatch(self):
        with pytest.raises(sv.DimensionError):
            sv.solve(np.eye(3), np.ones((2, 2)))


class TestLapackCalls:
    def test_bitwise_equal_to_numpy_on_sweep_qs(self):
        # solve and kappa2 are np.linalg.solve and np.linalg.svd(compute_uv=False)
        count = 0
        for profile in ("mixed", "single-jordan", "diagonalizable"):
            for kappa in (1.0, 10.0, 1e3, 1e6):
                cfg = sv.SweepConfig(seed=25, trials=6, n_range=(2, 24),
                                     block_profile=profile, target_kappa=kappa)
                for idx in range(cfg.trials):
                    inst = sv.gen_instance(cfg, idx)
                    q, eq = inst.spec.q, inst.e @ inst.spec.q
                    x = sv.solve(q, eq)
                    assert x.flags.c_contiguous
                    assert np.array_equal(x, np.linalg.solve(q, eq))
                    sigma = np.linalg.svd(q, compute_uv=False)
                    assert sv.kappa2(q) == float(sigma[0] / sigma[-1])
                    count += 1
        assert count == 72

    def test_singular_q_still_raises(self):
        q = random_complex(np.random.default_rng(26), 6)
        q[:, 2] = 0.0  # an exactly zero pivot
        with pytest.raises(sv.SingularMatrixError, match="Singular matrix"):
            sv.solve(q, np.eye(6))
        with pytest.raises(sv.SingularMatrixError):
            sv.kappa2(q)

    def test_svd_nonconvergence_raises(self, stall_lapack):
        stall_lapack("svd")  # zgesdd's bidiagonal iteration failed
        with pytest.raises(sv.EigensolverError, match="svd did not converge"):
            sv.kappa2(np.diag([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "shape", [(1, 1), (5, 5), (12, 12), (40, 40), (9, 4), (4, 9), (96, 12)]
    )
    def test_singular_values_bitwise_equal_to_numpy(self, shape):
        a = random_complex(np.random.default_rng(30), *shape)
        sigma = linalg.singular_values(a)
        assert sigma.tobytes() == np.linalg.svd(a, compute_uv=False).tobytes()
        assert sigma[0] == np.linalg.norm(a, 2)


class TestNormAndDelta:
    def test_pair_is_the_norm_and_delta(self):
        rng = np.random.default_rng(27)
        for n in (1, 2, 5, 12):
            m = random_complex(rng, n)
            norm, d = linalg.norm_and_delta(m)
            assert norm == float(np.linalg.norm(m))
            assert d == sv.delta(m)

    def test_huge_entries_keep_finite_norms(self):
        # the unscaled squares of 1e160 overflow: ||E||_F = 3e160 all the same
        e = np.full((3, 3), 1e160 + 0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.frobenius_norm(e) == pytest.approx(3e160, rel=1e-15)
            inst = sv.make_instance(sv.make_jordan_spec([(1.0, 2), (4.0, 1)]), e)
        assert inst.norm_e == linalg.frobenius_norm(e)
        assert inst.norm_eq == pytest.approx(3e160, rel=1e-15)
        assert inst.delta_eq == pytest.approx(math.sqrt(6) * 1e160, rel=1e-12)
        scale = 2.0 ** 600  # scaling by a power of two commutes with the norm
        assert linalg.frobenius_norm(e * 1e-160 * scale) == linalg.frobenius_norm(e * 1e-160) * scale

    @pytest.mark.parametrize("scale", [1e-150, 1e-170, 1e-250, 1e-300, 2.0 ** -1060])
    def test_tiny_entries_keep_their_norms(self, scale):
        # the squares underflow, wholly or in part: the matrix is scaled up
        # by a power of two, part by part (2^1060 itself would overflow)
        m = random_complex(np.random.default_rng(32), 5) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = linalg.frobenius_norm(m)
        assert norm == pytest.approx(math.hypot(*m.real.ravel(), *m.imag.ravel()),
                                     rel=8 * linalg.UNIT_ROUNDOFF)
        assert linalg.frobenius_norm(np.full((3, 3), 5e-324 + 0j)) == 1.5e-323

    @pytest.mark.parametrize("scale", [2.0 ** -470, 1e-100, 1.0, 1e100])
    def test_numpy_norm_bit_for_bit_in_between(self, scale):
        m = random_complex(np.random.default_rng(33), 7) * scale
        assert linalg.frobenius_norm(m) == float(np.linalg.norm(m))

    def test_make_instance_takes_each_frobenius_norm_once(self, monkeypatch):
        # ||E||_F, ||E_Q||_F and ||E_Q - (tr E_Q / n) I||_F: one call each
        cfg = sv.SweepConfig(seed=28, trials=1, n_range=(6, 6))
        inst = sv.gen_instance(cfg, 0)
        full_norm = np.linalg.norm
        calls = []

        def spy(x, *args, **kwargs):
            calls.append(x.shape)
            return full_norm(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", spy)
        again = sv.make_instance(inst.spec, inst.e)
        monkeypatch.setattr(np.linalg, "norm", full_norm)
        assert len(calls) == 3
        assert again.norm_eq == float(np.linalg.norm(again.e_q))
        assert again.delta_eq == sv.delta(again.e_q)
