"""Tests for the unitary block-structure computation."""

import time

import numpy as np
import pytest

import specvar as sv
from specvar import blocks
from specvar.bounds import plan
from specvar.jordan import scaled_similarity


def jordan_block(lam, size):
    j = lam * np.eye(size, dtype=complex)
    j += np.diag(np.ones(size - 1), k=1) if size > 1 else 0.0
    return j


def hidden(blocks_, rng):
    """diag(blocks_) conjugated by a random unitary."""
    n = sum(b.shape[0] for b in blocks_)
    m = np.zeros((n, n), dtype=complex)
    off = 0
    for b in blocks_:
        k = b.shape[0]
        m[off : off + k, off : off + k] = b
        off += k
    u = sv.random_unitary(n, rng)
    return u @ m @ u.conj().T


def gaussian(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_normal_matrix(n, rng):
    u = sv.random_unitary(n, rng)
    lams = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return u @ np.diag(lams) @ u.conj().T


class TestIsNormal:
    def test_hermitian_unitary_diagonal(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert sv.is_normal(g + g.conj().T)
        assert sv.is_normal(sv.random_unitary(5, rng))
        assert sv.is_normal(np.diag([1.0, 2j, -3.0]))

    def test_jordan_block_not_normal(self):
        assert not sv.is_normal(jordan_block(0.0, 2))

    def test_near_normal_within_tolerance(self):
        m = np.diag([1.0, 1.0 + 1e-14]).astype(complex)
        m[0, 1] = 1e-15
        assert sv.is_normal(m, tol=1e-10)


class TestCommutantBasis:
    def test_identity_has_full_commutant(self):
        for n in (2, 3, 4):
            assert len(sv.commutant_basis(np.eye(n))) == n * n

    def test_single_jordan_block_has_scalars_only(self):
        assert len(sv.commutant_basis(jordan_block(0.0, 2))) == 1
        assert len(sv.commutant_basis(jordan_block(1.5j, 4))) == 1

    def test_normal_distinct_eigenvalues_dimension_n(self):
        rng = np.random.default_rng(1)
        for n in (3, 5, 7):
            m = random_normal_matrix(n, rng)
            basis = sv.commutant_basis(m)
            assert len(basis) == n
            # every element commutes with both M and M*
            for b in basis:
                assert np.linalg.norm(m @ b - b @ m) < 1e-8
                ma = m.conj().T
                assert np.linalg.norm(ma @ b - b @ ma) < 1e-8

    def test_orthonormality(self):
        basis = sv.commutant_basis(jordan_block(0.0, 3) + np.eye(3))
        gram = np.array(
            [[np.vdot(x, y) for y in basis] for x in basis]
        )
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-12)

    def test_two_disjoint_blocks_dimension_two(self):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = jordan_block(0.0, 2)
        m[2:, 2:] = jordan_block(5.0, 2)
        assert len(sv.commutant_basis(m)) == 2

    def test_size_cap(self):
        with pytest.raises(sv.SizeLimitError):
            sv.commutant_basis(np.eye(41))


class TestSNumber:
    def test_normal_gives_n(self):
        rng = np.random.default_rng(2)
        for n in (2, 4, 6, 8):
            dec = sv.s_number(random_normal_matrix(n, rng))
            assert dec.s == n
            assert dec.block_sizes == (1,) * n

    def test_single_jordan_block_gives_one(self):
        assert sv.s_number(jordan_block(0.0, 2)).s == 1
        rng = np.random.default_rng(3)
        for size in (3, 5):
            u = sv.random_unitary(size, rng)
            m = u @ jordan_block(-0.5 + 2j, size) @ u.conj().T
            assert sv.s_number(m).s == 1

    def test_two_blocks_disjoint_spectra(self):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = jordan_block(0.0, 2)
        m[2:, 2:] = jordan_block(5.0, 2)
        dec = sv.s_number(m)
        assert dec.s == 2
        assert sorted(dec.block_sizes) == [2, 2]

    def test_repeated_irreducible_copies(self):
        # two copies of the same irreducible block still give s = 2
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        m[2, 3] = 1.0
        rng = np.random.default_rng(4)
        u = sv.random_unitary(4, rng)
        dec = sv.s_number(u @ m @ u.conj().T)
        assert dec.s == 2
        assert sorted(dec.block_sizes) == [2, 2]

    def test_constructed_block_recovery(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            k = int(rng.integers(2, 5))
            sizes, blocks = [], []
            for i in range(k):
                size = int(rng.integers(1, 4))
                sizes.append(size)
                # well-separated eigenvalues keep the spectra disjoint
                blocks.append(jordan_block(3.0 * i + 0.5j * i, size))
            n = sum(sizes)
            m = np.zeros((n, n), dtype=complex)
            off = 0
            for b in blocks:
                m[off : off + b.shape[0], off : off + b.shape[0]] = b
                off += b.shape[0]
            u = sv.random_unitary(n, rng)
            dec = sv.s_number(u @ m @ u.conj().T)
            assert dec.s == k
            assert sorted(dec.block_sizes) == sorted(sizes)

    def test_witness_invariants(self):
        rng = np.random.default_rng(6)
        m = np.zeros((5, 5), dtype=complex)
        m[:2, :2] = jordan_block(1.0, 2)
        m[2:, 2:] = jordan_block(-2.0, 3)
        u0 = sv.random_unitary(5, rng)
        m = u0 @ m @ u0.conj().T
        dec = sv.s_number(m)
        n = 5
        assert np.linalg.norm(dec.u.conj().T @ dec.u - np.eye(n)) <= 1e-8 * np.sqrt(n)
        assert sum(dec.block_sizes) == n
        assert 1 <= dec.s <= n
        res = sv.offblock_residual(m, dec.u, dec.block_sizes)
        assert res <= 1e-8 * np.linalg.norm(m)

    def test_unitary_similarity_invariance(self):
        rng = np.random.default_rng(7)
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = jordan_block(0.0, 2)
        m[2:, 2:] = jordan_block(4.0, 2)
        s0 = sv.s_number(m).s
        for seed in range(3):
            u = sv.random_unitary(4, np.random.default_rng(100 + seed))
            assert sv.s_number(u @ m @ u.conj().T).s == s0

    def test_s_n_iff_normal(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            m_normal = random_normal_matrix(n, rng)
            assert sv.is_normal(m_normal)
            assert sv.s_number(m_normal).s == n
        # non-normal: s < n
        m = jordan_block(0.0, 3)
        assert not sv.is_normal(m)
        assert sv.s_number(m).s < 3

    def test_seed_reproducibility(self):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = jordan_block(0.0, 2)
        m[2:, 2:] = jordan_block(5.0, 2)
        a = sv.s_number(m, seed=11)
        b = sv.s_number(m, seed=11)
        assert a.s == b.s
        assert a.block_sizes == b.block_sizes
        assert np.array_equal(a.u, b.u)


def differential_matrices():
    """Sweep matrices at every planned eps, A + E, and structured cases."""
    for profile in ("mixed", "single-jordan", "diagonalizable"):
        for kappa in (1.0, 10.0, 100.0):
            cfg = sv.SweepConfig(seed=11, trials=6, n_range=(2, 12),
                                 block_profile=profile, target_kappa=kappa)
            for idx in range(cfg.trials):
                inst = sv.gen_instance(cfg, idx)
                g = sv.jordan_matrix(inst.spec) + inst.e_q
                for step in plan(inst):
                    if step.eps > 0.0:
                        yield scaled_similarity(inst.spec, g, step.eps)
                yield inst.a + inst.e
    rng = np.random.default_rng(12)
    for n in (4, 8, 12):
        yield hidden([gaussian(2, rng) for _ in range(n // 2)], rng)
        yield hidden([gaussian(4, rng) for _ in range(n // 4)], rng)
        yield hidden([jordan_block(0.3 - 1j, n)], rng)
        b = gaussian(n // 2, rng)
        yield hidden([b, b], rng)
    yield hidden([np.diag([1.0, 1.0, 2.0])], rng)
    yield 3.0 * np.eye(5)
    yield np.zeros((4, 4))


class TestRestrictedCommutant:
    def test_matches_unrestricted_commutant(self, monkeypatch):
        # s_number restricted to the eigenspaces of H against the same draws
        # fed with the commutant over the whole matrix space
        restricted = []
        for m in differential_matrices():
            dec = sv.s_number(m)
            restricted.append((m, dec))
            res = sv.offblock_residual(m, dec.u, dec.block_sizes)
            assert res <= 1e-8 * np.linalg.norm(m)
        full = blocks.commutant_basis
        monkeypatch.setattr(
            blocks, "commutant_basis", lambda m, tol, **ansatz: full(m, tol)
        )
        assert len(restricted) > 100
        for m, dec in restricted:
            ref = sv.s_number(m)
            assert dec.s == ref.s
            assert sorted(dec.block_sizes) == sorted(ref.block_sizes)

    def test_restricted_basis_spans_the_commutant(self):
        rng = np.random.default_rng(13)
        b = gaussian(3, rng)
        m = hidden([b, b, np.diag([2.0 + 1j])], rng)
        ma = m.conj().T
        w, v = np.linalg.eigh(0.6 * (m + ma) + 0.8j * (m - ma))
        # eigenvalues of H come in pairs (one per copy of B)
        cuts = np.flatnonzero(np.diff(w) > 1e-6 * np.max(np.abs(w))) + 1
        sizes = np.diff([0, *cuts, w.size])
        assert sorted(sizes) == [1, 2, 2, 2]
        basis = sv.commutant_basis(m, v=v, sizes=sizes)
        # diag(B, B, c): commutant M_2(C) (x) I_3 + C, dimension 5
        assert len(basis) == len(sv.commutant_basis(m)) == 5
        gram = np.array([[np.vdot(x, y) for y in basis] for x in basis])
        assert np.allclose(gram, np.eye(5), atol=1e-12)
        for x in basis:
            assert np.linalg.norm(m @ x - x @ m) < 1e-8
            assert np.linalg.norm(ma @ x - x @ ma) < 1e-8

    def test_ansatz_must_cover_the_matrix(self):
        with pytest.raises(sv.DimensionError):
            sv.commutant_basis(np.eye(3), v=np.eye(3), sizes=[1, 1])
        with pytest.raises(sv.DimensionError):
            sv.commutant_basis(np.eye(3), v=np.eye(2), sizes=[1, 1])

    def test_order_64_past_the_old_cap(self):
        rng = np.random.default_rng(14)
        m = hidden([gaussian(4, rng) for _ in range(16)], rng)
        elapsed = []
        for _ in range(2):
            start = time.perf_counter()
            dec = sv.s_number(m)
            elapsed.append(time.perf_counter() - start)
        assert dec.s == 16
        assert dec.block_sizes == (4,) * 16
        assert np.linalg.norm(dec.u.conj().T @ dec.u - np.eye(64)) <= 1e-8 * 8
        assert sv.offblock_residual(m, dec.u, dec.block_sizes) <= 1e-8 * np.linalg.norm(m)
        assert min(elapsed) < 1.0
