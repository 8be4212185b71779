"""Tests for the unitary block-structure computation."""

import itertools
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
                for step in plan(sv.BoundInputs.of(inst)):
                    if step.eps > 0.0:
                        yield scaled_similarity(inst.spec, g, step.eps)
                yield sv.assemble(inst.spec) + inst.e
    rng = np.random.default_rng(12)
    for n in (4, 8, 12, 16, 24):
        yield hidden([gaussian(2, rng) for _ in range(n // 2)], rng)
        yield hidden([gaussian(4, rng) for _ in range(n // 4)], rng)
        yield hidden([jordan_block(0.3 - 1j, n)], rng)
        b = gaussian(n // 2, rng)
        yield hidden([b, b], rng)
    yield hidden([np.diag([1.0, 1.0, 2.0])], rng)
    yield 3.0 * np.eye(5)
    yield np.zeros((4, 4))


def near_diagonal_matrices():
    """D = diag(1, ..., n) plus dense non-normal noise with entries between
    1e-8 ||D||_2 / sqrt(n) and 1e-8 ||D||_F: each pair of H's eigenvectors
    couples near or below block_tol ||M||_F, the noise as a whole does not."""
    for n in (8, 12, 20):
        d = np.diag(np.arange(1.0, n + 1))
        lo, hi = 1e-8 * n / np.sqrt(n), 1e-8 * np.linalg.norm(d)
        for seed in range(4):
            rng = np.random.default_rng(100 * n + seed)
            for t in (0.0, 0.25, 0.5, 0.75, 1.0):
                g = rng.standard_normal((n, n))
                if seed % 2:
                    g = g + 1j * rng.standard_normal((n, n))
                yield d + lo * (hi / lo) ** t * g


def reference_merge(m, u, sizes, block_tol):
    """The pairwise form of the coupled-group merge: union-find over every
    group pair, U* M U recomputed after each pass."""
    thresh = block_tol * float(np.linalg.norm(m)) or block_tol
    while len(sizes) > 1:
        k = len(sizes)
        edges = np.cumsum([0, *sizes])
        b = u.conj().T @ m @ u
        parent = list(range(k))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        coupled = False
        for i in range(k):
            for j in range(i + 1, k):
                ri, rj = slice(edges[i], edges[i + 1]), slice(edges[j], edges[j + 1])
                c = np.linalg.norm(b[ri, rj]) ** 2 + np.linalg.norm(b[rj, ri]) ** 2
                pi, pj = find(i), find(j)
                if np.sqrt(c) > thresh and pi != pj:
                    parent[max(pi, pj)] = min(pi, pj)
                    coupled = True
        if not coupled:
            break
        groups: dict[int, list[int]] = {}
        for i in range(k):
            groups.setdefault(find(i), []).append(i)
        order = sorted(groups.values(), key=lambda g: g[0])
        u = u[:, np.concatenate(
            [np.arange(edges[i], edges[i + 1]) for g in order for i in g])]
        sizes = [sum(sizes[i] for i in g) for g in order]
    return u, sizes


def reference_s_number(m, tol=blocks.DEFAULT_TOL, seed=0):
    """s(M) from the commutant over the whole matrix space: three seeded
    random Hermitian elements, clustered and merged pairwise, must agree."""
    basis = blocks.commutant_basis(m, tol)
    draws = []
    for k in range(3):
        gamma = np.random.default_rng([seed, k]).standard_normal(len(basis))
        h = sum(g * (b + b.conj().T) / 2.0 for g, b in zip(gamma, basis))
        w, v = np.linalg.eigh(h)
        sizes = blocks._cluster_sizes(w, blocks.DEFAULT_CLUSTER_GAP)
        draws.append(reference_merge(m, v, sizes, blocks.DEFAULT_BLOCK_TOL)[1])
    assert len({len(sizes) for sizes in draws}) == 1
    return draws[0]


def computed_sweep_matrices():
    """What a kappa = 10 computed-s sweep hands to s_number: T^-1 (J + E_Q) T
    at every planned eps, for each of the three norms."""
    for amount in (0.01, 0.5, 2.0):
        cfg = sv.SweepConfig(seed=21, trials=30, block_profile="mixed",
                             target_kappa=10.0, amount=amount, s_mode="computed")
        for idx in range(cfg.trials):
            inst = sv.gen_instance(cfg, idx)
            for step in plan(sv.BoundInputs.of(inst)):
                if step.eps > 0.0:
                    yield scaled_similarity(inst.spec, inst.perturbed, step.eps)


def merge_without_exit(m, u, sizes, block_tol):
    """The coupled-group merge with every pass through the component
    labelling: U and the block sizes it ends with."""
    thresh = block_tol * (float(np.linalg.norm(m)) or 1.0)
    power = np.abs(u.conj().T @ m @ u) ** 2
    sizes = np.asarray(sizes)
    while sizes.size > 1:
        starts = np.cumsum(sizes) - sizes
        w = np.add.reduceat(np.add.reduceat(power, starts, axis=0), starts, axis=1)
        label = blocks._components(np.sqrt(w + w.T) > thresh)
        firsts = np.unique(label)
        if firsts.size == sizes.size:
            break
        cols = np.argsort(np.repeat(label, sizes), kind="stable")
        u = u[:, cols]
        power = power[np.ix_(cols, cols)]
        sizes = np.bincount(label, weights=sizes)[firsts].astype(int)
    return u, tuple(sizes.tolist())


def commutant_solves(monkeypatch):
    """Record the ansatz of every commutant_basis call (None: unrestricted)."""
    calls = []
    full = blocks.commutant_basis

    def spy(m, tol=blocks.DEFAULT_TOL, **ansatz):
        calls.append(ansatz.get("sizes"))
        return full(m, tol, **ansatz)

    monkeypatch.setattr(blocks, "commutant_basis", spy)
    return calls


class TestMergeCoupled:
    def test_merging_repeats_until_stable(self):
        # A-B couple at 10x the threshold, A-C and B-C at 0.8x each: once
        # A and B are one group, its coupling to C is sqrt(2) 0.8x = 1.13x
        rng = np.random.default_rng(16)
        m = np.zeros((6, 6), dtype=complex)
        for k in range(3):
            m[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = gaussian(2, rng) + 4.0 * k
        thresh = blocks.DEFAULT_BLOCK_TOL * np.linalg.norm(m)
        m[0, 2] = 10.0 * thresh
        m[1, 4] = 0.8 * thresh
        m[3, 5] = 0.8 * thresh
        dec = blocks._merge_coupled(m, np.eye(6), [2, 2, 2], blocks.DEFAULT_BLOCK_TOL)
        assert dec.s == 1
        assert np.array_equal(dec.u, np.eye(6))
        # below the threshold on every pair, nothing merges
        m[0, 2] = 0.8 * thresh
        dec = blocks._merge_coupled(m, np.eye(6), [2, 2, 2], blocks.DEFAULT_BLOCK_TOL)
        assert dec.block_sizes == (2, 2, 2)

    def test_merged_groups_in_order_of_first_member(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
        m[0, 3] = m[1, 4] = 1.0
        dec = blocks._merge_coupled(m, np.eye(5), [1] * 5, blocks.DEFAULT_BLOCK_TOL)
        assert dec.block_sizes == (2, 2, 1)
        assert np.array_equal(dec.u, np.eye(5)[:, [0, 3, 1, 4, 2]])

    def test_components_of_long_paths(self):
        # a path through 280 nodes in shuffled order and one through the
        # other 20: the closure takes several squarings
        order = np.random.default_rng(20).permutation(300)
        adj = np.zeros((300, 300), dtype=bool)
        for path in (order[:280], order[280:]):
            adj[path[:-1], path[1:]] = adj[path[1:], path[:-1]] = True
        first = np.isin(np.arange(300), order[:280])
        want = np.where(first, order[:280].min(), order[280:].min())
        assert np.array_equal(blocks._components(adj), want)


class TestMergeEarlyExit:
    def test_exit_matches_the_full_merge(self, monkeypatch):
        # every merge s_number runs (simple route and commutant draws alike)
        # is checked against the pairwise reference and, bit for bit,
        # against the merge without the early exit
        merge = blocks._merge_coupled
        exits = splits = 0

        def checked(m, u, sizes, block_tol):
            nonlocal exits, splits
            dec = merge(m, u, sizes, block_tol)
            ref_sizes = reference_merge(m, u, list(sizes), block_tol)[1]
            assert dec.block_sizes == tuple(ref_sizes)
            assert dec.s == len(ref_sizes)
            full_u, full_sizes = merge_without_exit(m, u, sizes, block_tol)
            assert dec.block_sizes == full_sizes
            assert np.array_equal(dec.u, full_u)
            exits += dec.s == 1 and len(sizes) > 1
            splits += dec.s > 1
            return dec

        monkeypatch.setattr(blocks, "_merge_coupled", checked)
        sweep = list(computed_sweep_matrices())
        assert len(sweep) >= 200
        for m in itertools.chain(differential_matrices(), near_diagonal_matrices(), sweep):
            sv.s_number(m)
        assert exits > 200 and splits > 50

    def test_connected_graph_skips_the_labelling(self, monkeypatch):
        calls = []
        components = blocks._components

        def spy(adjacency):
            calls.append(adjacency.shape[0])
            return components(adjacency)

        monkeypatch.setattr(blocks, "_components", spy)
        rng = np.random.default_rng(22)
        assert sv.s_number(gaussian(12, rng)).s == 1
        assert calls == []
        assert sv.s_number(hidden([gaussian(4, rng), gaussian(4, rng)], rng)).s == 2
        assert calls


class TestHWeights:
    @pytest.mark.parametrize("seed", [0, 1, 3, 21, 2**40 + 7])
    def test_weights_are_the_seed_stream(self, seed):
        want = np.random.default_rng([seed, 3]).standard_normal(2)
        got = blocks._h_weights(seed)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == want.tobytes()

    def test_interleaved_seeds_repeat_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(23)
        b = gaussian(3, rng)
        mats = [gaussian(6, rng), hidden([gaussian(3, rng), gaussian(2, rng)], rng),
                hidden([b, b], rng)]
        blocks._h_weights.cache_clear()
        seen = {}
        for seed in (4, 9, 4, 0, 9, 4, 0):
            for i, m in enumerate(mats):
                dec = sv.s_number(m, seed=seed)
                first = seen.setdefault((i, seed), dec)
                assert (dec.s, dec.block_sizes) == (first.s, first.block_sizes)
                assert np.array_equal(dec.u, first.u)
        # drawn afresh on every call, the weights give the same witnesses
        monkeypatch.setattr(blocks, "_h_weights", blocks._h_weights.__wrapped__)
        for (i, seed), first in seen.items():
            assert np.array_equal(sv.s_number(mats[i], seed=seed).u, first.u)


class TestResidualCheck:
    @pytest.mark.parametrize("where, two_norm, solved", [
        ("below-frobenius-bound", False, False),
        ("between-bounds", True, False),
        ("above-two-norm-cutoff", True, True),
    ])
    def test_two_norm_svd_only_when_the_cheap_bound_fails(
        self, where, two_norm, solved, monkeypatch
    ):
        # two blocks, one dominant so that ||M||_F / sqrt(n) lies well below
        # ||M||_2, coupled in one direction at scale t.  The residual r of
        # the split is linear in t to first order (H's eigenvectors turn
        # with the coupling), so one small-t call calibrates t for the
        # wanted r, which stays below block_tol ||M||_F: the merge keeps the
        # two blocks apart and the residual check decides
        rng = np.random.default_rng(24)
        m0 = np.zeros((6, 6), dtype=complex)
        m0[:3, :3] = gaussian(3, rng) + 10.0 * (1.0 + 1.0j) * np.eye(3)
        m0[3:, 3:] = gaussian(3, rng)
        c = gaussian(3, rng)
        c /= np.linalg.norm(c)
        w = sv.random_unitary(6, rng)

        def coupled(t):
            m = m0.copy()
            m[:3, 3:] = t * c
            return w @ m @ w.conj().T

        def residual(m):
            dec = sv.s_number(m)
            assert dec.s == 2
            return sv.offblock_residual(m, dec.u, dec.block_sizes)

        tol = blocks.DEFAULT_TOL
        lo = tol * np.linalg.norm(m0) / np.sqrt(6)
        hi = tol * np.linalg.norm(m0, 2)
        cap = blocks.DEFAULT_BLOCK_TOL * np.linalg.norm(m0)
        assert hi > 1.3 * lo and cap > 1.3 * hi
        want = {"below-frobenius-bound": 0.5 * lo,
                "between-bounds": np.sqrt(lo * hi),
                "above-two-norm-cutoff": np.sqrt(hi * cap)}[where]
        m = coupled(want * 0.1 * lo / residual(coupled(0.1 * lo)))
        norms = []
        full_norm = np.linalg.norm

        def spy(x, ord=None, **kwargs):
            norms.append(ord)
            return full_norm(x, ord, **kwargs)

        calls = commutant_solves(monkeypatch)
        monkeypatch.setattr(np.linalg, "norm", spy)
        dec = sv.s_number(m)
        monkeypatch.setattr(np.linalg, "norm", full_norm)
        assert (2 in norms) == two_norm
        assert (len(calls) == 1) == solved
        if not solved:
            assert dec.s == 2
            r = sv.offblock_residual(m, dec.u, dec.block_sizes)
            assert r == pytest.approx(want, rel=1e-2)


class TestRestrictedCommutant:
    def test_matches_unrestricted_commutant(self, monkeypatch):
        # s_number (either route) against the commutant over the whole
        # matrix space, fed to three draws and the pairwise merge
        calls = commutant_solves(monkeypatch)
        count = 0
        for m in differential_matrices():
            dec = sv.s_number(m)
            res = sv.offblock_residual(m, dec.u, dec.block_sizes)
            assert res <= 1e-8 * np.linalg.norm(m)
            ref = reference_s_number(m)
            assert dec.s == len(ref)
            assert sorted(dec.block_sizes) == sorted(ref)
            count += 1
        assert count > 100
        assert calls.count(None) == count

    def test_simple_spectrum_skips_the_commutant_solve(self, monkeypatch):
        calls = commutant_solves(monkeypatch)
        rng = np.random.default_rng(15)
        assert sv.s_number(hidden([gaussian(3, rng) for _ in range(4)], rng)).s == 4
        assert sv.s_number(hidden([jordan_block(0.5j, 6)], rng)).s == 1
        assert calls == []
        b = gaussian(4, rng)
        assert sv.s_number(hidden([b, b], rng)).s == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("twin", [False, True], ids=["simple-h", "clustered-h"])
    def test_coupling_cutoff_on_both_routes(self, twin, monkeypatch):
        # two blocks of order 3 coupled at 10x above or below block_tol ||M||_F;
        # the twin pair diag(B, B) takes the clustered route.  The blocks'
        # spectra lie far apart, so H's eigenvectors hardly rotate under the
        # coupling and the cutoff alone decides s.
        rng = np.random.default_rng(17)
        b = gaussian(3, rng)
        m0 = np.zeros((6, 6), dtype=complex)
        m0[:3, :3] = b
        m0[3:, 3:] = b if twin else b + 10.0 * (1.0 + 1.0j) * np.eye(3)
        c = gaussian(3, rng)
        w = sv.random_unitary(6, rng)
        calls = commutant_solves(monkeypatch)
        for factor, s in ((10.0, 1), (0.1, 2)):
            m = m0.copy()
            m[:3, 3:] = factor * blocks.DEFAULT_BLOCK_TOL * np.linalg.norm(m0) * c / np.linalg.norm(c)
            assert sv.s_number(w @ m @ w.conj().T).s == s
        assert len(calls) == (2 if twin else 0)

    def test_near_diagonal_noise_is_not_split_past_the_cutoff(self, monkeypatch):
        # many sub-threshold pair couplings can add up to a large residual;
        # the simple route keeps its split only when the residual is within
        # tol ||M||_2 and leaves the rest to the commutant solve.  s never
        # exceeds the whole-space commutant's: an over-reported s would make
        # the UP2 bounds tighter than they are (it may fall below, see the
        # xfail below)
        calls = commutant_solves(monkeypatch)
        kept = solved = 0
        for m in near_diagonal_matrices():
            before = len(calls)
            dec = sv.s_number(m)
            if len(calls) == before:
                res = sv.offblock_residual(m, dec.u, dec.block_sizes)
                assert res <= blocks.DEFAULT_TOL * np.linalg.norm(m, 2)
                kept += 1
            else:
                solved += 1
            assert dec.s <= len(reference_s_number(m))
        assert kept > 0 and solved > 0

    @pytest.mark.xfail(strict=True, reason=(
        "H's eigenvectors rotate a coupling between blocks with nearby H "
        "spectra by up to ||M|| / gap(H), so a coupling below the cutoff can "
        "read above it and s comes out 1 where the whole-space commutant gives 2"))
    def test_subthreshold_coupling_of_generic_blocks(self):
        rng = np.random.default_rng(19)
        found = []
        for _ in range(20):
            m0 = np.zeros((4, 4), dtype=complex)
            m0[:2, :2] = gaussian(2, rng)
            m0[2:, 2:] = gaussian(2, rng)
            c = gaussian(2, rng)
            m0[:2, 2:] = 0.1 * blocks.DEFAULT_BLOCK_TOL * np.linalg.norm(m0) * c / np.linalg.norm(c)
            w = sv.random_unitary(4, rng)
            m = w @ m0 @ w.conj().T
            assert len(reference_s_number(m)) == 2
            found.append(sv.s_number(m).s)
        assert found == [2] * 20

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

    def test_order_300_past_the_size_cap(self):
        # only the commutant solve is capped, and a simple H never runs it
        rng = np.random.default_rng(18)
        m = hidden([gaussian(4, rng) for _ in range(75)], rng)
        dec = sv.s_number(m)
        assert dec.s == 75
        assert dec.block_sizes == (4,) * 75
        assert sv.offblock_residual(m, dec.u, dec.block_sizes) <= 1e-8 * np.linalg.norm(m)
