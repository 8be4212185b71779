"""Seeded random test-matrix generators.

All generators take an explicit ``numpy.random.Generator`` so that callers
own determinism: the same generator state always yields the same matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .exceptions import DimensionError


def complex_gaussian(n_rows: int, n_cols: int, rng: np.random.Generator, stack=()) -> np.ndarray:
    """Standard complex Gaussian matrix (unit-variance entries); a ``stack``
    shape draws a stack of them at once, in the stream of one call each."""
    z = rng.standard_normal((*stack, 2, n_rows, n_cols))
    return (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)


def _haar(g: np.ndarray) -> np.ndarray:
    """Phase-corrected Q of the QR factorization of each matrix in ``g``
    (one ``np.linalg.qr`` over the stack, bit for bit per matrix)."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-corrected QR of a complex
    Gaussian matrix (Mezzadri 2007), with ``np.linalg.qr``."""
    if n < 1:
        raise DimensionError(f"order must be >= 1, got {n}")
    return _haar(complex_gaussian(n, n, rng))


@lru_cache(maxsize=256)
def _log_spaced(kappa: float, n: int) -> np.ndarray:
    """Read-only ``np.geomspace(kappa, 1, n)``, computed once per (kappa, n)."""
    sigma = np.geomspace(kappa, 1.0, n)
    sigma.flags.writeable = False
    return sigma


def random_conditioned(n: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Random matrix with prescribed spectral condition number.

    SVD surgery: two independent Haar unitaries around log-spaced singular
    values running from kappa down to 1, so kappa2 of the result equals
    ``kappa`` exactly (up to rounding).  kappa = 1 returns a unitary.
    """
    if kappa < 1.0:
        raise DimensionError(f"target condition number must be >= 1, got {kappa}")
    if kappa == 1.0 or n <= 1:
        return random_unitary(n, rng)
    # the stream of two random_unitary calls (u, then v), in one draw
    u, v = _haar(complex_gaussian(n, n, rng, (2,)))
    return (u * _log_spaced(kappa, n)[None, :]) @ v.conj().T


def rank_one(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-one matrix u v* with unit Frobenius norm."""
    u = complex_gaussian(n, 1, rng)
    v = complex_gaussian(n, 1, rng)
    m = u @ v.conj().T
    return m / np.linalg.norm(m)
