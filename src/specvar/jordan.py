"""Jordan-structured test instances and the scaled-similarity envelope.

Instances are *constructed* from prescribed data: an ordered list of
(eigenvalue, block size) pairs and a nonsingular transform Q define
A = Q diag(J_1, ..., J_p) Q^-1 exactly.  The library never attempts to
compute a Jordan form of an arbitrary floating-point matrix -- that
problem is discontinuous and ill-posed; the one convenience path
(``spec_from_matrix``) only accepts matrices with well-separated
eigenvalues and builds the diagonalizable p = n case.

The diagonal scaling T(eps) = diag(1, eps, ..., eps^(m_i - 1)) per block
shrinks the Jordan superdiagonal to eps, and phi(eps) is the closed-form
envelope bounding || T^-1 Q^-1 (A+E) Q T - Lambda ||_F^2 from which every
bound in :mod:`specvar.bounds` is derived.  ``envelope_margins`` checks
that inequality, and the three estimates behind it, on a whole eps grid
at once: the deviation is T^-1 E_Q T + Omega (Omega the in-block
superdiagonal, every entry eps), evaluated as one (k, n, n) broadcast from
the cached E_Q and the block positions ``JordanSpec`` derives once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    NotApplicableError,
)
from .linalg import as_matrix, delta, kappa2, solve

# minimum relative eigenvalue gap for the diagonalizable convenience path
MIN_EIG_GAP = 1e-6


def _frozen_copy(m: np.ndarray) -> np.ndarray:
    c = np.array(m, dtype=np.complex128)
    c.flags.writeable = False
    return c


@dataclass(frozen=True)
class JordanSpec:
    """Prescribed Jordan data: ordered (eigenvalue, size) blocks plus the
    similarity transform Q and its condition number kappa2(Q).  Block order
    is the user's order and is never re-sorted; it fixes the correspondence
    with Lambda.

    The structure is derived once, at construction: the order ``n``, the
    block count ``p``, the largest block ``m`` and ``positions``, each
    index's place inside its block (0, 1, ..., size-1 per block, float64,
    read-only), which is the exponent of eps in T(eps)."""

    blocks: tuple[tuple[complex, int], ...]
    q: np.ndarray
    kappa_q: float
    n: int = field(init=False)
    p: int = field(init=False)
    m: int = field(init=False)
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = [size for _, size in self.blocks]
        positions = np.concatenate([np.arange(size, dtype=np.float64) for size in sizes])
        positions.flags.writeable = False
        object.__setattr__(self, "n", sum(sizes))
        object.__setattr__(self, "p", len(sizes))
        object.__setattr__(self, "m", max(sizes))
        object.__setattr__(self, "positions", positions)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.blocks)

    @property
    def eigenvalues(self) -> np.ndarray:
        """All n eigenvalues with multiplicity, in block order."""
        return np.concatenate(
            [np.full(size, lam, dtype=np.complex128) for lam, size in self.blocks]
        )

    def has_real_spectrum(self, tol: float = 1e-12) -> bool:
        """True iff every prescribed eigenvalue is real within
        tol * (1 + |lambda|)."""
        lams = np.array([lam for lam, _ in self.blocks])
        return bool(np.all(np.abs(lams.imag) <= tol * (1.0 + np.abs(lams))))


def make_jordan_spec(blocks, q=None) -> JordanSpec:
    """Validate and build a JordanSpec.

    ``q`` may be a matrix, None, or the string "identity".  Q must be
    square of the total block size and nonsingular (kappa2 check).
    """
    blocks = tuple((complex(lam), int(size)) for lam, size in blocks)
    if not blocks:
        raise DimensionError("at least one Jordan block is required")
    for lam, size in blocks:
        if size < 1:
            raise DimensionError(f"block size must be >= 1, got {size}")
        if not (np.isfinite(lam.real) and np.isfinite(lam.imag)):
            raise DimensionError("block eigenvalues must be finite")
    n = sum(size for _, size in blocks)
    if q is None or (isinstance(q, str) and q == "identity"):
        q = np.eye(n, dtype=np.complex128)
    q = as_matrix(q, square=True, name="Q")
    if q.shape[0] != n:
        raise DimensionError(
            f"Q has order {q.shape[0]} but blocks sum to {n}"
        )
    q = _frozen_copy(q)
    # kappa2 raises SingularMatrixError if Q is singular to working precision
    return JordanSpec(blocks=blocks, q=q, kappa_q=kappa2(q))


def _superdiagonal_rows(spec: JordanSpec) -> np.ndarray:
    """Rows i whose superdiagonal entry (i, i+1) lies inside a block."""
    return np.flatnonzero(spec.positions[1:])


def jordan_matrix(spec: JordanSpec) -> np.ndarray:
    """J = diag(J_1, ..., J_p): each block upper bidiagonal with the
    eigenvalue on the diagonal and 1 on the superdiagonal."""
    j = np.diag(spec.eigenvalues)
    sup = _superdiagonal_rows(spec)
    j[sup, sup + 1] = 1.0
    return j


def assemble(spec: JordanSpec) -> np.ndarray:
    """A = Q J Q^-1.  Its exact eigenvalues are the prescribed ones."""
    x = spec.q @ jordan_matrix(spec)
    # X Q^-1 computed as a transposed solve, no explicit inverse
    return solve(spec.q.T, x.T).T


def _scaling_vector(spec: JordanSpec, eps: float) -> np.ndarray:
    if not (0.0 < eps <= 1.0):
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    return eps ** spec.positions


def scaling_matrix(spec: JordanSpec, eps: float) -> np.ndarray:
    """T = diag(T_1, ..., T_p) with T_i = diag(1, eps, ..., eps^(m_i-1))."""
    return np.diag(_scaling_vector(spec, eps)).astype(np.complex128)


def scalar_shift(e) -> complex | None:
    """The t with E == t*I bitwise, else None.

    Scalar matrices commute with every Q, so Q^-1 (tI) Q = tI holds exactly
    and callers can skip the solve (whose rounding would otherwise turn
    delta(E_Q) = 0 into ~sqrt(u) ||E_Q|| via cancellation).
    """
    e = np.asarray(e)
    t = e[0, 0]
    if np.array_equal(e, t * np.eye(e.shape[0], dtype=e.dtype)):
        return complex(t)
    return None


@dataclass(frozen=True)
class PerturbationInstance:
    """A (JordanSpec, E) pair with the derived quantities every bound needs.

    Immutable after construction; cached scalars therefore never go stale.
    ``e_q`` is Q^-1 E Q, the perturbation transported to the Jordan basis.
    """

    spec: JordanSpec
    e: np.ndarray
    a: np.ndarray = field(repr=False)
    e_q: np.ndarray = field(repr=False)
    norm_e: float
    norm_eq: float
    delta_eq: float
    trace_e: complex


def make_instance(spec: JordanSpec, e) -> PerturbationInstance:
    """Build a PerturbationInstance, computing A, E_Q and cached scalars."""
    e = as_matrix(e, square=True, name="E")
    if e.shape[0] != spec.n:
        raise DimensionError(
            f"E has order {e.shape[0]} but the spec has order {spec.n}"
        )
    shift = scalar_shift(e)
    e_q = e.copy() if shift is not None else solve(spec.q, e @ spec.q)
    return PerturbationInstance(
        spec=spec,
        e=_frozen_copy(e),
        a=_frozen_copy(assemble(spec)),
        e_q=_frozen_copy(e_q),
        norm_e=float(np.linalg.norm(e)),
        norm_eq=float(np.linalg.norm(e_q)),
        # delta(t I) = 0 analytically; skip the float evaluation's ulp noise
        delta_eq=0.0 if shift is not None else delta(e_q),
        trace_e=complex(np.trace(e)),
    )


def phi(inst: PerturbationInstance, eps):
    """Envelope value

        phi(eps) = eps^(2(1-m)) delta(E_Q)^2
                   + 2 eps^2 sqrt(n-p) delta(E_Q)
                   + (n-p) eps^2 + |tr E|^2 / n.

    For m = 1 the first exponent is 0, i.e. the coefficient is
    delta(E_Q)^2 itself.  ``eps`` is a float or an array of them; the
    value has its shape.
    """
    if not np.all((0.0 < eps) & (eps <= 1.0)):
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    n, p, m = inst.spec.n, inst.spec.p, inst.spec.m
    d = inst.delta_eq
    return (
        eps ** (2 * (1 - m)) * d * d
        + 2.0 * eps * eps * np.sqrt(n - p) * d
        + (n - p) * eps * eps
        + abs(inst.trace_e) ** 2 / n
    )


def optimal_epsilon(inst: PerturbationInstance) -> float:
    """Minimizer of phi over (0, 1] for a non-diagonalizable instance.

    Returns ((m-1) delta^2 / (n - p + 2 sqrt(n-p) delta))^(1/(2m)) when
    that interior stationary point lies inside (0, 1) -- the sign of phi'
    flips there -- and 1 otherwise.  Requires m >= 2 (callers must use the
    diagonalizable path when m = 1) and delta(E_Q) > 0.
    """
    n, p, m = inst.spec.n, inst.spec.p, inst.spec.m
    if m < 2 or n == p:
        raise NotApplicableError(
            "optimal_epsilon applies only to non-diagonalizable instances "
            "(m >= 2); the diagonalizable case uses eps = 1"
        )
    d = inst.delta_eq
    if d <= 0.0:
        raise DomainError("optimal_epsilon requires delta(E_Q) > 0")
    drift = n - p + 2.0 * np.sqrt(n - p) * d
    curb = (m - 1) * d * d
    if drift > curb:
        return float((curb / drift) ** (1.0 / (2 * m)))
    return 1.0


def scaled_similarity(spec: JordanSpec, m, eps: float) -> np.ndarray:
    """T^-1 M T for T = T(eps), evaluated entrywise as M_ij t_j / t_i."""
    t = _scaling_vector(spec, eps)
    return m * (t[None, :] / t[:, None])


def _sum_squares(stack: np.ndarray) -> np.ndarray:
    """||X_k||_F^2 for each matrix of a (k, n, n) stack."""
    v = np.ascontiguousarray(stack).view(np.float64)  # complex as (re, im) pairs
    return np.einsum("kij,kij->k", v, v)


def envelope_margins(inst: PerturbationInstance, eps) -> dict[str, np.ndarray]:
    """phi and the margins of the inequalities behind it, for an array of
    k eps values, from one broadcast over a (k, n, n) stack.

    With S = T^-1 E_Q T (from the cached transport, entrywise as in
    :func:`scaled_similarity`) and Omega the in-block superdiagonal (every
    entry eps), T^-1 Q^-1 (A+E) Q T - Lambda = S + Omega exactly.  Forming
    the deviation this way never subtracts Lambda from lambda + e_ii, a
    cancellation that would swamp a tiny E.  Returns arrays of shape (k,):

    - ``phi``: phi(eps),
    - ``envelope_margin``: phi(eps) - ||S + Omega||_F^2,
    - ``scaled_norm_margin``: eps^(2(1-m)) delta^2 + |tr E|^2/n - ||S||_F^2,
    - ``cross_term_margin``: eps^2 sqrt(n-p) delta - Re tr(Omega* S),
    - ``superdiag_norm_error``: | ||Omega||_F^2 - (n-p) eps^2 |.

    The three margins are nonnegative up to rounding; the last is an exact
    identity.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=np.float64))
    value = phi(inst, eps)
    spec = inst.spec
    n, p, m = spec.n, spec.p, spec.m
    d = inst.delta_eq
    t = eps[:, None] ** spec.positions  # row k: the diagonal of T(eps_k)
    s = inst.e_q * (t[:, None, :] / t[:, :, None])
    omega = np.zeros(s.shape)
    sup = _superdiagonal_rows(spec)
    omega[:, sup, sup + 1] = eps[:, None]
    return {
        "phi": value,
        "envelope_margin": value - _sum_squares(s + omega),
        "scaled_norm_margin": (
            eps ** (2 * (1 - m)) * d * d + abs(inst.trace_e) ** 2 / n - _sum_squares(s)
        ),
        "cross_term_margin": (
            eps * eps * np.sqrt(n - p) * d - np.einsum("kij,kij->k", omega, s.real)
        ),
        "superdiag_norm_error": np.abs(_sum_squares(omega) - (n - p) * eps * eps),
    }


def eq_norm_majorant(inst: PerturbationInstance) -> float:
    """Computable majorant of ||E_Q||_F that avoids committing to a
    particular Q:  min( sqrt(rank E) ||E_Q||_2,  kappa2(Q) ||E||_F )."""
    rank = int(np.linalg.matrix_rank(inst.e))
    if rank == 0:
        return 0.0
    return float(
        min(
            np.sqrt(rank) * np.linalg.norm(inst.e_q, 2),
            inst.spec.kappa_q * inst.norm_e,
        )
    )


def spec_from_matrix(a, min_gap: float = MIN_EIG_GAP) -> JordanSpec:
    """Diagonalizable JordanSpec (p = n) from a matrix with well-separated
    eigenvalues.

    Refuses (``NotApplicableError``) when the minimum pairwise eigenvalue
    gap is <= min_gap * ||A||_F: close eigenvalues may hide a defective
    structure that floating point cannot resolve.
    """
    a = as_matrix(a, square=True)
    w, v = np.linalg.eig(a)
    n = a.shape[0]
    scale = float(np.linalg.norm(a))
    if n > 1:
        gap = min(
            abs(w[i] - w[j]) for i in range(n) for j in range(i + 1, n)
        )
        if gap <= min_gap * scale:
            raise NotApplicableError(
                f"eigenvalue gap {gap:.3e} <= {min_gap:.1e} * ||A||_F; "
                "prescribe the Jordan data explicitly instead"
            )
    return make_jordan_spec([(lam, 1) for lam in w], v)
