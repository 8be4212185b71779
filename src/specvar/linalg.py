"""Dense complex-matrix primitives.

Validation, solves, triangular splits, the trace-deflated measure
``delta``, the spectral condition number ``kappa2`` and the singular
values behind it, all through ``np.linalg``.  Every function here is
pure: inputs are validated (``checked=True`` trusts an :func:`as_matrix`
result, as :func:`singular_values` always does), never mutated, and
results depend on nothing but the arguments, so values are freely
shareable across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    EigensolverError,
    NonFiniteError,
    SingularMatrixError,
)

# Unit roundoff of binary64 (half the machine epsilon).
UNIT_ROUNDOFF = float(np.finfo(np.float64).eps) / 2.0

# Below this ||M||_F, frobenius_norm rescales: its squares may underflow.
NORM_RESCALE_BELOW = math.ldexp(1.0, -480)


def as_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as a dense complex128 matrix.

    Rejects non-numeric input (strings, objects, ragged rows), non-2-D
    input, empty dimensions, non-finite entries and, with ``square=True``,
    rectangular shapes.  No copy is made when ``a`` is already complex128.
    """
    try:
        m = np.asarray(a, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"{name} is not a numeric array: {exc}") from exc
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"{name} must be nonempty, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{name} contains NaN/Inf entries")
    return m


def solve(q, b, *, checked: bool = False) -> np.ndarray:
    """Solve Q X = B for X (i.e. return Q^-1 B) via LU with partial pivoting.

    ``np.linalg.solve`` (LAPACK's zgesv); an exactly zero pivot raises
    ``SingularMatrixError``.
    """
    if not checked:
        q = as_matrix(q, square=True, name="coefficient matrix")
        b = as_matrix(b, name="right-hand side")
    if q.shape[0] != b.shape[0]:
        raise DimensionError(
            f"incompatible shapes for solve: {q.shape} vs {b.shape}"
        )
    try:
        return np.linalg.solve(q, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular coefficient matrix: {exc}") from exc


def delta(m) -> float:
    """Trace-deflated Frobenius norm  (||M||_F^2 - |tr M|^2 / n)^(1/2).

    Zero exactly on scalar matrices mu*I, equal to ||M||_F exactly when
    tr M = 0.  Evaluated in the algebraically identical deviation form
    ||M - (tr M / n) I||_F, which is nonnegative by construction and free
    of the cancellation that makes the radicand form lose half the digits
    near scalar matrices; the result is clamped at ||M||_F (Pythagoras
    gives delta <= ||M||_F exactly, rounding can break it by one ulp).
    """
    return norm_and_delta(m)[1]


def norm_and_delta(m, *, checked: bool = False) -> tuple[float, float]:
    """(||M||_F, delta(M)), with the norm that clamps delta computed once."""
    if not checked:
        m = as_matrix(m, square=True)
    n = m.shape[0]
    dev = m.copy()
    dev.reshape(-1)[:: n + 1] -= np.trace(m) / n  # the diagonal, as a view
    norm = frobenius_norm(m)
    return norm, min(frobenius_norm(dev), norm)


def frobenius_norm(m: np.ndarray) -> float:
    """||M||_F of a finite matrix, ``np.linalg.norm`` bit for bit while the
    sum of squares it forms stays finite and above 2^-960, where the
    squares that underflow move it by less than a rounding (||M||_F from
    2^-480 ~ 3e-145 to ~1.3e154).  Past either end, each real and imaginary
    part is scaled by 2^-k, exactly, with 2^k above every part, and the
    norm of the scaled matrix by 2^k; each part is scaled with ``np.ldexp``
    because 2^-k itself overflows once the largest part is below 2^-1023."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
        if not NORM_RESCALE_BELOW <= norm < math.inf:
            k = math.frexp(max(np.abs(m.real).max(), np.abs(m.imag).max()))[1]
            scaled = np.ldexp(m.real, -k) + 1j * np.ldexp(m.imag, -k)
            norm = float(np.ldexp(np.linalg.norm(scaled), k))
    return norm


@dataclass(frozen=True, eq=False)
class TriangularSplit:
    """Exact entrywise partition of a square matrix into its diagonal,
    strictly lower and strictly upper triangular parts."""

    diagonal: np.ndarray
    strictly_lower: np.ndarray
    strictly_upper: np.ndarray


def split_dlu(m) -> TriangularSplit:
    """Split M into diagonal + strictly lower + strictly upper parts.

    The three parts have disjoint supports, so the reconstruction
    D + L + U == M holds bitwise.
    """
    m = as_matrix(m, square=True)
    return TriangularSplit(
        diagonal=np.diag(np.diag(m)),
        strictly_lower=np.tril(m, -1),
        strictly_upper=np.triu(m, 1),
    )


def singular_values(a) -> np.ndarray:
    """Descending singular values, ``np.linalg.svd(a, compute_uv=False)``
    (the first is ``np.linalg.norm(a, 2)``); non-convergence raises
    ``EigensolverError``."""
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"singular value iteration failed: {exc}") from exc


def kappa2(q, *, checked: bool = False) -> float:
    """Spectral condition number  kappa_2(Q) = ||Q||_2 ||Q^-1||_2.

    Computed as the ratio of extreme :func:`singular_values`.  Raises
    ``SingularMatrixError`` when sigma_min <= n * u * sigma_max
    (u = unit roundoff), i.e. when Q is singular to working precision.
    """
    if not checked:
        q = as_matrix(q, square=True, name="Q")
    sigma = singular_values(q)
    if sigma[-1] <= q.shape[0] * UNIT_ROUNDOFF * sigma[0]:
        raise SingularMatrixError(
            f"Q is numerically singular (sigma_min={sigma[-1]:.3e}, "
            f"sigma_max={sigma[0]:.3e})"
        )
    return float(sigma[0] / sigma[-1])
