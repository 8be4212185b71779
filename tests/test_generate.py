"""Tests for the seeded random-matrix generators and the sweep instances
``harness.gen_instance`` builds from them."""

import itertools

import numpy as np
import pytest

import specvar as sv
from specvar import generate, harness


def phase_corrected_numpy_qr(n, rng):
    """The Haar unitary through ``np.linalg.qr``: the reference
    ``random_unitary`` must reproduce bit for bit."""
    q, r = np.linalg.qr(sv.complex_gaussian(n, n, rng))
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


class TestRandomUnitary:
    def test_bitwise_equal_to_numpy_qr(self):
        # 2,000 matrices, n = 1..40.  A failure means the phase correction
        # or the Gaussian draw changed, and every sweep instance with it.
        for n in range(1, 41):
            for k in range(50):
                got = sv.random_unitary(n, np.random.default_rng([n, k]))
                want = phase_corrected_numpy_qr(n, np.random.default_rng([n, k]))
                assert np.array_equal(got, want), (n, k)

    def test_order_checked(self):
        with pytest.raises(sv.DimensionError):
            sv.random_unitary(0, np.random.default_rng(0))

    @pytest.mark.parametrize("kappa", [1.0, 10.0, 1e3])
    def test_conditioned_draw_equals_two_sequential_unitaries(self, kappa):
        # random_conditioned takes u and v from one stacked QR, bit for bit
        # two sequential random_unitary calls on the same generator
        for n in range(1, 41):
            drawn = np.random.default_rng([n, 7])
            got = sv.random_conditioned(n, kappa, drawn)
            rng = np.random.default_rng([n, 7])
            u = sv.random_unitary(n, rng)
            if kappa == 1.0 or n == 1:
                want = u
            else:
                v = sv.random_unitary(n, rng)
                want = (u * np.geomspace(kappa, 1.0, n)[None, :]) @ v.conj().T
            assert got.tobytes() == want.tobytes(), (n, kappa)
            assert drawn.bit_generator.state == rng.bit_generator.state


class TestRandomConditioned:
    def test_singular_values_are_read_only_and_computed_once(self):
        sigma = generate._log_spaced(1e4, 7)
        assert generate._log_spaced(1e4, 7) is sigma
        assert np.array_equal(sigma, np.geomspace(1e4, 1.0, 7))
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0] = 1.0

    def test_meets_the_prescribed_condition_number(self):
        # the SVD's absolute error O(u sigma_max) on sigma_min = 1 grows the
        # relative error of kappa2 like kappa u, so 1e-12 holds to kappa = 100
        rng = np.random.default_rng(12)
        for kappa in (1.0, 10.0, 100.0):
            for n in range(2, 25):
                q = sv.random_conditioned(n, kappa, rng)
                assert sv.kappa2(q) == pytest.approx(kappa, rel=1e-12), (kappa, n)

    def test_kappa_below_one_rejected(self):
        with pytest.raises(sv.DimensionError):
            sv.random_conditioned(3, 0.5, np.random.default_rng(0))


def _reference_lambda(rng, real):
    re = rng.uniform(-2.0, 2.0)
    im = 0.0 if real else rng.uniform(-2.0, 2.0)
    return complex(re, im)


def reference_gen_instance(config, trial_index):
    """The slow oracle for ``gen_instance``, in plain arithmetic:
    ``np.linalg.qr`` unitaries, ``np.geomspace`` per call, scalar draws per
    block, and every derived field of the instance recomputed here (the
    eigenvalues concatenated per block, delta in its ``np.eye`` form)."""
    rng = np.random.default_rng([config.seed, trial_index])
    if config.block_profile == "user-file":
        spec = sv.read_jordan_spec(config.jordan_file)
        blocks, q, n = spec.blocks, spec.q, spec.n
    else:
        lo, hi = config.n_range
        n = int(rng.integers(lo, hi + 1))
        if config.block_profile == "diagonalizable":
            sizes = [1] * n
        elif config.block_profile == "single-jordan":
            sizes = [n]
        else:
            sizes, remaining = [], n
            while remaining > 0:
                sizes.append(int(rng.integers(1, min(3, remaining) + 1)))
                remaining -= sizes[-1]
        blocks = tuple((_reference_lambda(rng, config.real_eigenvalues), size)
                       for size in sizes)
        q = phase_corrected_numpy_qr(n, rng)
        if config.target_kappa != 1.0 and n > 1:
            v = phase_corrected_numpy_qr(n, rng)
            q = (q * np.geomspace(config.target_kappa, 1.0, n)[None, :]) @ v.conj().T
    if config.perturbation == "scalar":
        e = config.amount * np.eye(n, dtype=np.complex128)
    elif config.perturbation == "rank1":
        e = config.amount * sv.rank_one(n, rng)
    else:
        g = sv.complex_gaussian(n, n, rng)
        e = g * (config.amount / np.linalg.norm(g))
    eigenvalues = np.concatenate(
        [np.full(size, lam, dtype=np.complex128) for lam, size in blocks])
    j, start = np.diag(eigenvalues), 0
    for _, size in blocks:
        for i in range(start, start + size - 1):
            j[i, i + 1] = 1.0
        start += size
    scalar = np.array_equal(e, e[0, 0] * np.eye(n))  # also every 1 x 1 E
    e_q = e.copy() if scalar else np.linalg.solve(q, e @ q)
    dev = e_q - (np.trace(e_q) / n) * np.eye(n)
    sigma = np.linalg.svd(q, compute_uv=False)
    return dict(
        blocks=blocks, q=q, e=e, e_q=e_q, perturbed=j + e_q, eigenvalues=eigenvalues,
        kappa_q=float(sigma[0] / sigma[-1]),
        norm_e=float(np.linalg.norm(e)), norm_eq=float(np.linalg.norm(e_q)),
        delta_eq=0.0 if scalar else min(float(np.linalg.norm(dev)),
                                        float(np.linalg.norm(e_q))),
        trace_e=complex(np.trace(e)),
    )


class TestGenInstanceDifferential:
    """``gen_instance`` against :func:`reference_gen_instance`, bit for
    bit: the LAPACK QR, the cached singular values, the one-call eigenvalue
    draw and the derived ``JordanSpec`` data change no instance."""

    @staticmethod
    def assert_same(cfg, trial):
        inst = sv.gen_instance(cfg, trial)
        ref = reference_gen_instance(cfg, trial)
        where = (cfg, trial)
        assert inst.spec.blocks == ref["blocks"], where
        for name in ("q", "eigenvalues"):
            assert np.array_equal(getattr(inst.spec, name), ref[name]), (name, where)
        for name in ("e", "e_q", "perturbed"):
            assert np.array_equal(getattr(inst, name), ref[name]), (name, where)
        assert inst.spec.kappa_q == ref["kappa_q"], where
        for name in ("norm_e", "norm_eq", "delta_eq", "trace_e"):
            assert getattr(inst, name) == ref[name], (name, where)
        ref_inst = sv.make_instance(sv.make_jordan_spec(ref["blocks"], ref["q"]), ref["e"])
        assert harness.instance_digest(inst) == harness.instance_digest(ref_inst), where

    def test_generated_profiles(self):
        # 120 configs x 9 trials = 1,080 instances, n from 1 to 24
        cases = itertools.product(
            ("diagonalizable", "single-jordan", "mixed"), ("gaussian", "scalar", "rank1"),
            (False, True), (1.0, 10.0, 1e4, 1e6), ((2, 24), (1, 6)),
        )
        count = 0
        for profile, perturbation, real, kappa, n_range in cases:
            if profile == "single-jordan" and n_range[0] < 2:
                continue
            cfg = sv.SweepConfig(seed=17, n_range=n_range, block_profile=profile,
                                 perturbation=perturbation, amount=0.5,
                                 target_kappa=kappa, real_eigenvalues=real)
            for trial in range(9):
                self.assert_same(cfg, trial)
                count += 1
        assert count == 1080

    def test_user_file_profile(self, tmp_path):
        path = tmp_path / "spec.json"
        sv.write_jordan_spec(path, sv.make_jordan_spec([(1.0, 2), (4.0 - 1j, 1)]))
        cfg = sv.SweepConfig(seed=1, block_profile="user-file", jordan_file=str(path))
        for trial in range(4):
            self.assert_same(cfg, trial)

    @pytest.mark.parametrize("fields, trial", [
        (dict(seed=2005103, block_profile="diagonalizable", target_kappa=1.0,
              real_eigenvalues=True), 2),
        (dict(seed=152, block_profile="diagonalizable", target_kappa=1.0,
              real_eigenvalues=True, perturbation="scalar"), 2),
        (dict(seed=1, block_profile="diagonalizable", amount=1e-10, target_kappa=1e6), 10),
    ])
    def test_pinned_repro_instances(self, fields, trial):
        self.assert_same(sv.SweepConfig(**fields), trial)
