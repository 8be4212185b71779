"""Spectra and the optimal matching distances D2 / Dinf.

A spectrum is the eigenvalue multiset of a square matrix, stored in a
canonical order (lexicographic by real part, then imaginary part) so that
multiset semantics survive serialization.  ``optimal_match`` returns the
permutation minimizing the sum of squared distances between two spectra,
which is the quantity every perturbation bound in this package is checked
against.  It solves that assignment problem itself, exactly, with
shortest augmenting paths (Jonker & Volgenant 1987, in the form of Crouse
2016), so the package needs numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, EigensolverError, NonFiniteError, SizeLimitError
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


def _matching_from_permutation(a, b, perm, k: int = 0) -> Matching:
    """The matching ``perm`` of a and b, given scaled by 2^-k; its
    distances are scaled back by 2^k."""
    perm = np.asarray(perm, dtype=np.intp)
    dists = np.abs(b[perm] - a)
    return Matching(
        permutation=perm,
        d2=math.ldexp(math.sqrt((dists**2).sum()), k),
        d_inf=math.ldexp(dists.max(), k),
    )


def _assignment(cost: np.ndarray) -> list[int]:
    """Exact minimum-cost assignment of a square, finite cost matrix:
    ``perm[i]`` is the column of row i.

    Shortest augmenting paths with dual potentials u (rows) and v
    (columns), which keep every reduced cost c[i][j] - u[i] - v[j]
    nonnegative and zero on every assigned pair: that is the optimality
    certificate.  Column reduction starts it: v[j] is column j's minimum,
    and each column takes a free row attaining it if one does (the equal
    rows of a repeated eigenvalue tie there).  Each row still free is
    then joined by one Dijkstra search over the reduced costs.  Every
    search ends at a free column within n steps, so the result is always
    a permutation.  Plain Python over ``cost.tolist()``: at the n <= 12
    of sweeps, numpy's per-call overhead would dominate.
    """
    if not np.isfinite(cost).all():
        raise NonFiniteError("assignment costs must be finite")
    c = cost.tolist()
    n = len(c)
    cols = list(zip(*c))
    v = [min(col) for col in cols]
    u = [0.0] * n
    row4col, col4row = [-1] * n, [-1] * n
    for j, col in enumerate(cols):
        i = col.index(v[j])
        while col4row[i] >= 0 and v[j] in col[i + 1:]:  # a tied free row
            i = col.index(v[j], i + 1)
        if col4row[i] < 0:
            col4row[i], row4col[j] = j, i
    for free in range(n):
        if col4row[free] >= 0:
            continue
        dist, pred = [math.inf] * n, [free] * n
        todo, scanned = list(range(n)), []
        i, h = free, 0.0
        while i >= 0:  # scan row i; h is the distance it was reached at
            row, base = c[i], h - u[i]
            for j in todo:
                r = base + row[j] - v[j]
                if r < dist[j]:
                    dist[j], pred[j] = r, i
            j = min(todo, key=dist.__getitem__)
            todo.remove(j)
            scanned.append(j)
            h, i = dist[j], row4col[j]
        # j is the free column reached; shift the potentials by each
        # scanned column's slack so the path's reduced costs become zero
        for k in scanned:
            t = h - dist[k]
            v[k] -= t
            if row4col[k] >= 0:
                u[row4col[k]] += t
        u[free] += h
        while i != free:  # flip the path's pairs, from j back to the free row
            i = pred[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return col4row


def optimal_match(a, b) -> Matching:
    """Optimal l2 matching of two equal-size spectra.

    Solves the assignment problem on the cost matrix c[i, j] =
    |b[j] - a[i]|^2 exactly (:func:`_assignment`), so the returned d2 is
    the global minimum over all permutations -- never an overestimate
    that could fake a bound violation.  Both spectra are first scaled by
    2^-k, with 2^k above every real and imaginary part, so no |b - a|^2
    overflows; d2 and d_inf are scaled back by 2^k.  Power-of-two scaling
    is exact away from underflow, so for ordinary spectra the costs, the
    permutation and both distances are those of the unscaled values.
    When ``a`` is one value (its first and last entries in canonical order
    are equal), every permutation costs the same; the solve is skipped for
    the identity, which :func:`_assignment` returns on such equal rows.
    """
    a, b = _as_spectrum(a), _as_spectrum(b)
    if len(a) != len(b):
        raise DimensionError(f"spectra sizes differ: {len(a)} vs {len(b)}")
    parts = np.concatenate((a.values, b.values)).view(np.float64)  # (re, im) pairs
    k = math.frexp(np.abs(parts).max())[1]  # 2^k > every part
    both = np.ldexp(parts, -k).view(np.complex128)
    a_k, b_k = both[: len(a)], both[len(a):]
    if a.values[0] == a.values[-1]:
        perm = np.arange(len(a))
    else:
        perm = _assignment(np.abs(b_k[None, :] - a_k[:, None]) ** 2)
    return _matching_from_permutation(a_k, b_k, perm, k)


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
