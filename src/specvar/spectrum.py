"""Spectra and the optimal matching distances D2 / Dinf.

A spectrum is the eigenvalue multiset of a square matrix, stored in a
canonical order (lexicographic by real part, then imaginary part) so that
multiset semantics survive serialization.  ``optimal_match`` returns the
permutation minimizing the sum of squared distances between two spectra,
which is the quantity every perturbation bound in this package is checked
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .exceptions import DimensionError, EigensolverError, SizeLimitError
from .linalg import as_matrix

BF_MAX_SIZE = 8  # factorial enumeration cap for the brute-force oracle


def canonical_order(values: np.ndarray) -> np.ndarray:
    """Sort complex values lexicographically by (re, im).  Idempotent."""
    v = np.asarray(values, dtype=np.complex128).ravel()
    return v[np.lexsort((v.imag, v.real))]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalue multiset in canonical (re, im)-lexicographic order."""

    values: np.ndarray

    def __post_init__(self):
        v = canonical_order(self.values)
        if v.size < 1:
            raise DimensionError("spectrum must contain at least one value")
        if not np.isfinite(v).all():
            raise DimensionError("spectrum contains NaN/Inf values")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class Matching:
    """An eigenvalue pairing: permutation pi with its l2 and max distances.

    d2^2 = sum_i |b[pi(i)] - a[i]|^2 and d_inf = max_i |b[pi(i)] - a[i]|
    for the stored pi, hence d_inf <= d2 always.
    """

    permutation: np.ndarray
    d2: float
    d_inf: float


def eigenvalues(m) -> Spectrum:
    """Eigenvalues of a square matrix, with multiplicity.

    ``np.linalg.eigvals``: LAPACK's zgeev (balancing, then the nonsymmetric
    QR iteration).  It is backward stable: each returned value is an exact
    eigenvalue of M + dM with ||dM||_F = O(n u ||M||_F).  Non-convergence
    raises ``EigensolverError``.
    """
    m = as_matrix(m, square=True)
    try:
        w = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigenvalue iteration failed: {exc}") from exc
    return Spectrum(w)


def _as_spectrum(s) -> Spectrum:
    return s if isinstance(s, Spectrum) else Spectrum(np.asarray(s))


def _matching_from_permutation(a, b, perm) -> Matching:
    dists = np.abs(b[perm] - a)
    return Matching(
        permutation=np.asarray(perm, dtype=np.intp),
        d2=float(np.sqrt(np.sum(dists**2))),
        d_inf=float(np.max(dists)),
    )


def optimal_match(a, b) -> Matching:
    """Optimal l2 matching of two equal-size spectra.

    Solves the assignment problem on the cost matrix c[i, j] =
    |b[j] - a[i]|^2 exactly (Jonker-Volgenant), so the returned d2 is the
    global minimum over all permutations -- never an overestimate that
    could fake a bound violation.
    """
    a, b = _as_spectrum(a), _as_spectrum(b)
    if len(a) != len(b):
        raise DimensionError(f"spectra sizes differ: {len(a)} vs {len(b)}")
    cost = np.abs(b.values[None, :] - a.values[:, None]) ** 2
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(a), dtype=np.intp)
    perm[rows] = cols
    return _matching_from_permutation(a.values, b.values, perm)


def brute_force_match(a, b) -> Matching:
    """Exhaustive matching oracle: minimum over all n! permutations.

    Only meant for tests (n <= 8); ties resolve to the lexicographically
    smallest permutation.
    """
    a, b = _as_spectrum(a), _as_spectrum(b)
    if len(a) != len(b):
        raise DimensionError(f"spectra sizes differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n > BF_MAX_SIZE:
        raise SizeLimitError(
            f"brute-force matching enumerates n! permutations; n={n} exceeds "
            f"the cap of {BF_MAX_SIZE}"
        )
    best_perm, best_cost = None, np.inf
    for perm in itertools.permutations(range(n)):
        c = float(np.sum(np.abs(b.values[list(perm)] - a.values) ** 2))
        if c < best_cost:
            best_perm, best_cost = perm, c
    return _matching_from_permutation(a.values, b.values, list(best_perm))
