"""Jordan-structured test instances and the scaled-similarity envelope.

Instances are *constructed* from prescribed data: an ordered list of
(eigenvalue, block size) pairs and a nonsingular transform Q define
A = Q diag(J_1, ..., J_p) Q^-1 exactly.  A perturbed instance holds the
problem in the Jordan basis only: E_Q = Q^-1 E Q and J + E_Q, whose
spectrum is that of A + E.  A itself is never formed on the way to a
verdict (``assemble`` builds it on request): its O(u kappa2(Q)^2)
rounding would feed into D2.  The library never attempts to
compute a Jordan form of an arbitrary floating-point matrix -- that
problem is discontinuous and ill-posed.

The diagonal scaling T(eps) = diag(1, eps, ..., eps^(m_i - 1)) per block
shrinks the Jordan superdiagonal to eps, and phi(eps) is the closed-form
envelope bounding || T^-1 Q^-1 (A+E) Q T - Lambda ||_F^2 from which every
bound in :mod:`specvar.bounds` is derived.  ``envelope_margins`` checks
that inequality, and the three estimates behind it, on a whole eps grid
at once: the deviation is T^-1 E_Q T + Omega (Omega the in-block
superdiagonal, every entry eps), whose squared norm is a polynomial in
eps with one coefficient per exponent, summed once from the cached E_Q and
the block positions ``JordanSpec`` derives once.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    NotApplicableError,
)
from .linalg import NORM_RESCALE_BELOW, as_matrix, frobenius_norm, kappa2, norm_and_delta, solve
from .spectrum import Spectrum


def _frozen_copy(m: np.ndarray) -> np.ndarray:
    c = np.array(m, dtype=np.complex128)
    c.flags.writeable = False
    return c


@dataclass(frozen=True, eq=False)
class JordanSpec:
    """Prescribed Jordan data: ordered (eigenvalue, size) blocks plus the
    similarity transform Q and its condition number kappa2(Q).  Block order
    is the user's order and is never re-sorted; it fixes the correspondence
    with Lambda.

    The structure is derived once, at construction, into read-only
    attributes: the order ``n``, the block count ``p``, the largest block
    ``m``, ``eigenvalues`` (all n with multiplicity, in block order),
    ``positions``, each index's place inside its block (0, 1, ..., size-1
    per block, float64), which is the exponent of eps in T(eps), and
    ``superdiagonal``, the rows i whose entry (i, i+1) lies inside a block,
    ``spectrum``, the eigenvalues as a canonical :class:`Spectrum`, and
    ``real_spectrum``, true iff every eigenvalue is real within
    1e-12 (1 + |lambda|).
    Equality is identity."""

    blocks: tuple[tuple[complex, int], ...]
    q: np.ndarray
    kappa_q: float
    n: int = field(init=False)
    p: int = field(init=False)
    m: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    positions: np.ndarray = field(init=False, repr=False)
    superdiagonal: np.ndarray = field(init=False, repr=False)
    spectrum: Spectrum = field(init=False, repr=False)
    real_spectrum: bool = field(init=False)

    def __post_init__(self):
        lams, sizes = zip(*self.blocks)
        eigenvalues = np.repeat(np.array(lams, dtype=np.complex128), sizes)
        places = [k for size in sizes for k in range(size)]
        positions = np.array(places, dtype=np.float64)
        superdiagonal = np.array([i for i, k in enumerate(places[1:]) if k], dtype=np.intp)
        for derived in (eigenvalues, positions, superdiagonal):
            derived.flags.writeable = False
        object.__setattr__(self, "n", sum(sizes))
        object.__setattr__(self, "p", len(sizes))
        object.__setattr__(self, "m", max(sizes))
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "superdiagonal", superdiagonal)
        object.__setattr__(self, "spectrum", Spectrum(eigenvalues))
        real = all(abs(lam.imag) <= 1e-12 * (1.0 + abs(lam)) for lam in lams)
        object.__setattr__(self, "real_spectrum", real)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.blocks)


def make_jordan_spec(blocks, q=None) -> JordanSpec:
    """Validate and build a JordanSpec.

    ``q`` may be a matrix or None (the identity).  Q must be square of
    the total block size and nonsingular (kappa2 check).
    """
    blocks = tuple((complex(lam), int(size)) for lam, size in blocks)
    if not blocks:
        raise DimensionError("at least one Jordan block is required")
    for lam, size in blocks:
        if size < 1:
            raise DimensionError(f"block size must be >= 1, got {size}")
        if not cmath.isfinite(lam):
            raise DimensionError("block eigenvalues must be finite")
    n = sum(size for _, size in blocks)
    if q is None:
        q = np.eye(n, dtype=np.complex128)
    q = as_matrix(q, square=True, name="Q")
    if q.shape[0] != n:
        raise DimensionError(
            f"Q has order {q.shape[0]} but blocks sum to {n}"
        )
    q = _frozen_copy(q)
    # kappa2 raises SingularMatrixError if Q is singular to working precision
    return JordanSpec(blocks=blocks, q=q, kappa_q=kappa2(q, checked=True))


def jordan_matrix(spec: JordanSpec) -> np.ndarray:
    """J = diag(J_1, ..., J_p): each block upper bidiagonal with the
    eigenvalue on the diagonal and 1 on the superdiagonal."""
    j = np.diag(spec.eigenvalues)
    sup = spec.superdiagonal
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
    """The t with E == t*I bitwise (E finite and square), else None.

    Scalar matrices commute with every Q, so Q^-1 (tI) Q = tI holds exactly
    and callers can skip the solve (whose rounding would otherwise turn
    delta(E_Q) = 0 into ~sqrt(u) ||E_Q|| via cancellation).
    """
    e = np.asarray(e)
    t = e[0, 0]
    diagonal = e.diagonal()
    if (diagonal == t).all() and np.count_nonzero(e) == np.count_nonzero(diagonal):
        return complex(t)
    return None


@dataclass(frozen=True, eq=False)
class PerturbationInstance:
    """A (JordanSpec, E) pair with the derived quantities every bound needs.

    Immutable after construction; cached scalars therefore never go stale.
    ``e_q`` is Q^-1 E Q, the perturbation transported to the Jordan basis,
    and ``perturbed`` is J + E_Q = Q^-1 (A+E) Q, the perturbed matrix in
    the Jordan basis: the one matrix every consumer (eigensolve, s-values,
    the normal family) reads.  All three are read-only arrays that share
    no memory with the caller's E or Q.
    """

    spec: JordanSpec
    e: np.ndarray
    e_q: np.ndarray = field(repr=False)
    perturbed: np.ndarray = field(repr=False)
    norm_e: float
    norm_eq: float
    delta_eq: float
    trace_e: complex


def make_instance(spec: JordanSpec, e) -> PerturbationInstance:
    """Build a PerturbationInstance, computing E_Q, J + E_Q and cached
    scalars.  A bitwise-scalar E = tI gives E_Q = tI exactly, so J + tI is
    upper triangular and its spectrum is the prescribed one shifted by t."""
    e = as_matrix(e, square=True, name="E")
    if e.shape[0] != spec.n:
        raise DimensionError(
            f"E has order {e.shape[0]} but the spec has order {spec.n}"
        )
    e = _frozen_copy(e)
    shift = scalar_shift(e)
    e_q = e if shift is not None else solve(spec.q, e @ spec.q, checked=True)
    perturbed = jordan_matrix(spec)
    perturbed += e_q
    e_q.flags.writeable = perturbed.flags.writeable = False
    if shift is None:
        norm_eq, delta_eq = norm_and_delta(e_q, checked=True)
    else:
        # delta(t I) = 0 analytically; skip the float evaluation's ulp noise
        norm_eq, delta_eq = frobenius_norm(e_q), 0.0
    return PerturbationInstance(
        spec=spec,
        e=e,
        e_q=e_q,
        perturbed=perturbed,
        norm_e=frobenius_norm(e),
        norm_eq=norm_eq,
        delta_eq=delta_eq,
        trace_e=complex(np.trace(e)),
    )


def _phi_terms(inst: PerturbationInstance, eps):
    # phi(eps), then its terms: eps^(2(1-m)) delta^2, half the cross term
    # eps^2 sqrt(n-p) delta, (n-p) eps^2 and |tr E|^2 / n
    if not np.all((0.0 < eps) & (eps <= 1.0)):
        raise DomainError(f"eps must lie in (0, 1], got {eps}")
    n, p, m = inst.spec.n, inst.spec.p, inst.spec.m
    d = inst.delta_eq
    first, half_cross = eps ** (2 * (1 - m)) * d * d, eps * eps * np.sqrt(n - p) * d
    superdiag, trace = (n - p) * eps * eps, abs(inst.trace_e) ** 2 / n
    return first + 2.0 * half_cross + superdiag + trace, first, half_cross, superdiag, trace


def phi(inst: PerturbationInstance, eps):
    """Envelope value

        phi(eps) = eps^(2(1-m)) delta(E_Q)^2
                   + 2 eps^2 sqrt(n-p) delta(E_Q)
                   + (n-p) eps^2 + |tr E|^2 / n.

    For m = 1 the first exponent is 0, i.e. the coefficient is
    delta(E_Q)^2 itself.  ``eps`` is a float or an array of them; the
    value has its shape.
    """
    return _phi_terms(inst, eps)[0]


def optimal_epsilon(inst: PerturbationInstance) -> float:
    """Minimizer of phi over (0, 1] for a non-diagonalizable instance.

    Returns ((m-1) delta^2 / (n - p + 2 sqrt(n-p) delta))^(1/(2m)) when
    that interior stationary point lies inside (0, 1) -- the sign of phi'
    flips there -- and 1 otherwise.  Below ||E_Q||_F = 2^-480, where the
    square (m-1) delta^2 may underflow, the point is taken from unsquared
    parts as (sqrt(m-1) delta / sqrt(drift))^(1/m), as
    :func:`specvar.bounds.plan` takes it.  Requires m >= 2 (callers must
    use the diagonalizable path when m = 1) and delta(E_Q) > 0.
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
    if drift <= curb:
        return 1.0
    if inst.norm_eq < NORM_RESCALE_BELOW:
        return float((np.sqrt(m - 1) * d / np.sqrt(drift)) ** (1.0 / m))
    return float((curb / drift) ** (1.0 / (2 * m)))


def scaled_similarity(spec: JordanSpec, m, eps: float) -> np.ndarray:
    """T^-1 M T for T = T(eps), evaluated entrywise as M_ij t_j / t_i."""
    t = _scaling_vector(spec, eps)
    return m * (t[None, :] / t[:, None])


def envelope_margins(inst: PerturbationInstance, eps) -> dict[str, np.ndarray]:
    """phi and the margins of the inequalities behind it, for an array of
    k eps values.

    With S = T^-1 E_Q T and Omega the in-block superdiagonal (every entry
    eps), T^-1 (J + E_Q) T - Lambda = S + Omega exactly.  Forming the
    deviation this way never subtracts Lambda from lambda + e_ii, a
    cancellation that would swamp a tiny E.  Entry (i, j) of S is
    E_Q[i, j] eps^(pos_j - pos_i), so ||S||_F^2 = sum_d w_d eps^(2d), where
    w_d sums |E_Q[i, j]|^2 over the entries with pos_j - pos_i = d, and
    Re tr(Omega* S) = eps^2 sum Re E_Q[i, i+1] over the in-block
    superdiagonal; ||S + Omega||_F^2 is ||S||^2 + 2 Re tr(Omega* S) +
    ||Omega||^2.  Returns arrays of shape (k,):

    - ``phi``: phi(eps),
    - ``envelope_margin``: phi(eps) - ||S + Omega||_F^2,
    - ``scaled_norm_margin``: eps^(2(1-m)) delta^2 + |tr E|^2/n - ||S||_F^2,
    - ``cross_term_margin``: eps^2 sqrt(n-p) delta - Re tr(Omega* S),
    - ``superdiag_norm_error``: | ||Omega||_F^2 - (n-p) eps^2 |.

    The three margins are nonnegative up to rounding; the last is an exact
    identity.
    """
    eps = np.array(eps, dtype=np.float64, ndmin=1)
    value, first, half_cross, superdiag, trace = _phi_terms(inst, eps)
    spec = inst.spec
    m, sup = spec.m, spec.superdiagonal
    # w_d at index m-1-d = pos_i - pos_j + m-1, from the (re, im) parts' squares
    place = spec.positions.astype(np.intp)
    offsets = np.subtract.outer(place + (m - 1), place).repeat(2)
    parts = np.ascontiguousarray(inst.e_q).view(np.float64)
    weights = np.bincount(offsets, weights=(parts * parts).ravel(), minlength=2 * m - 1)
    squared = eps * eps
    norm_s = (squared[:, None] ** np.arange(m - 1, -m, -1, dtype=np.float64)) @ weights
    cross = squared * inst.e_q.diagonal(1).real[sup].sum()
    return {
        "phi": value,
        "envelope_margin": value - (norm_s + 2.0 * cross + superdiag),
        "scaled_norm_margin": first + trace - norm_s,
        "cross_term_margin": half_cross - cross,
        "superdiag_norm_error": np.abs(sup.size * squared - superdiag),
    }
