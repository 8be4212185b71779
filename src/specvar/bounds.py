"""Every spectral-variation upper bound evaluated by this package.

The classical bounds for (near-)normal matrices (Hoffman-Wielandt, Sun,
Li-Sun, the trace-deflated refinements) and the Jordan-based families:
Song's and Li-Chen's estimates plus the six envelope-derived bounds UP1_*
(factor n), UP2_* (factor n+1-s(.)) and the real-spectrum family UP3_*
(factor 2).  Each UP bound is sqrt(K * core(eps) + |tr E|^2 / n) where
core(eps) is the envelope of :func:`specvar.jordan.phi` minus its trace
term, evaluated in closed form at one of three eps choices:

- eps = ||E_Q||_F^(1/m)  (when ||E_Q||_F < 1),
- eps = delta(E_Q)^(1/m) (when delta(E_Q) < 1),
- eps at the interior stationary point of phi (condition C1),

falling back to eps = 1 otherwise.  The case splits are the main
correctness hazard: :func:`plan` alone makes them, and every result
records the branch it took.

The Jordan family is a function of seven numbers, a :class:`BoundInputs`,
plus the injected s-values: :func:`plan` and :func:`jordan_bounds` read
nothing else, so a trial record holds all they need.  This module is a
pure formula layer: the tolerance-laden s(.) values are injected by the
caller (see :mod:`specvar.harness`), never computed here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blocks import is_normal
from .exceptions import DimensionError, DomainError
from .jordan import PerturbationInstance
from .linalg import as_matrix, delta


class BoundId(enum.Enum):
    """Closed set of bound identifiers; each maps to exactly one formula
    and one applicability predicate."""

    HW = "HW"
    SUN = "SUN"
    LI_SUN = "LI_SUN"
    XU1 = "XU1"
    XU2 = "XU2"
    XU_HERMITIAN = "XU_HERMITIAN"
    SONG = "SONG"
    LI_CHEN = "LI_CHEN"
    UP1_1 = "UP1_1"
    UP1_2 = "UP1_2"
    UP1_3 = "UP1_3"
    UP2_1 = "UP2_1"
    UP2_2 = "UP2_2"
    UP2_3 = "UP2_3"
    UP3_1 = "UP3_1"
    UP3_2 = "UP3_2"
    UP3_3 = "UP3_3"


BOUND_NAMES = {bid: bid.name for bid in BoundId}  # BoundId.name is a property lookup


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound: value, branch taken, and the inputs it read
    that its trial record does not hold (the s-values, and the normal
    family's delta(E)).

    ``applicable=False`` carries a reason and a zero placeholder value that
    must never be compared against D2.
    """

    id: BoundId
    value: float
    branch: str
    applicable: bool = True
    reason: str = ""
    inputs: dict = field(default_factory=dict)


BRANCH_NORM_SMALL = "||E_Q||_F < 1"
BRANCH_NORM_LARGE = "||E_Q||_F >= 1"
BRANCH_DELTA_SMALL = "delta(E_Q) < 1"
BRANCH_DELTA_LARGE = "delta(E_Q) >= 1"
BRANCH_C1 = "C1"
BRANCH_C2 = "C2"
BRANCH_ZERO = "zero-perturbation"
BRANCH_SINGLE = "single"

S_KEYS = ("s1", "s2", "s3", "s4")


# ---------------------------------------------------------------------------
# the branch planner and the envelope cores


class BoundInputs(NamedTuple):
    """The seven numbers the Jordan family reads: the block layout
    (n, p, m), ||E_Q||_F, delta(E_Q), |tr E| and whether every prescribed
    eigenvalue is real.  A trial record holds the first six."""

    n: int
    p: int
    m: int
    norm_eq: float
    delta_eq: float
    trace_abs: float
    real_spectrum: bool

    @classmethod
    def of(cls, inst: PerturbationInstance) -> BoundInputs:
        spec = inst.spec
        return cls(spec.n, spec.p, spec.m, inst.norm_eq, inst.delta_eq,
                   abs(inst.trace_e), spec.real_spectrum)


class Step(NamedTuple):
    """How one envelope variant is evaluated: the branch label, the s-key
    (``s1``..``s4``) whose value the UP2 bound reads as its factor, and the
    eps at which phi is evaluated.  eps = 0 stands for the eps -> 0 limit,
    reached when delta(E_Q) = 0; the zero-perturbation step reads no s."""

    branch: str
    s_key: str | None
    eps: float


def plan(x: BoundInputs) -> tuple[Step, Step, Step]:
    """The single decision of branch and eps for the three envelope
    variants: (||E_Q||_F, delta(E_Q), stationary point), in that order.

    Every eps = 1 fallback reads ``s2``.  C1 (drift = n - p + 2 sqrt(n-p)
    delta > curb = (m-1) delta^2) needs m >= 2; the m = 1 case is routed
    to C2, whose eps = 1 formula contains the diagonalizable case.  Under
    C1 the stationary eps is (curb/drift)^(1/(2m)), the minimiser
    :func:`specvar.jordan.optimal_epsilon` returns; at delta = 0 it is the
    eps -> 0 limit.
    """
    n, p, m, norm_eq, d = x[:5]
    if norm_eq == 0.0:
        return (Step(BRANCH_ZERO, None, 0.0),) * 3
    if norm_eq < 1.0:
        by_norm = Step(BRANCH_NORM_SMALL, "s1", norm_eq ** (1.0 / m))
    else:
        by_norm = Step(BRANCH_NORM_LARGE, "s2", 1.0)
    if d < 1.0:
        by_delta = Step(BRANCH_DELTA_SMALL, "s3", d ** (1.0 / m))
    else:
        by_delta = Step(BRANCH_DELTA_LARGE, "s2", 1.0)
    drift = n - p + 2.0 * math.sqrt(n - p) * d
    curb = (m - 1) * d * d
    if m >= 2 and drift > curb:
        stationary = Step(BRANCH_C1, "s4", (curb / drift) ** (1.0 / (2 * m)))
    else:
        stationary = Step(BRANCH_C2, "s2", 1.0)
    return by_norm, by_delta, stationary


def _core(x: BoundInputs, branch: str) -> float:
    """phi minus its |tr E|^2/n term, in closed form, on a planned
    non-zero branch.

    The closed forms hold the eps -> 0 limits at delta = 0 exactly, where
    phi(eps) itself cannot be evaluated."""
    n, p, m, norm_eq, d = x[:5]
    root = math.sqrt(n - p)
    drift = n - p + 2.0 * root * d
    if branch == BRANCH_NORM_SMALL:
        return (drift + d * d / (norm_eq * norm_eq)) * norm_eq ** (2.0 / m)
    if branch == BRANCH_DELTA_SMALL:
        return (drift + 1.0) * d ** (2.0 / m)
    if branch == BRANCH_C1:
        # interior minimum of phi; only reachable under C1 with m >= 2
        return m * (drift / (m - 1)) ** (1.0 - 1.0 / m) * d ** (2.0 / m)
    return (root + d) ** 2


def _check_s(name: str, value: int, n: int) -> int:
    value = int(value)
    if not 1 <= value <= n:
        raise DomainError(f"{name} must lie in [1, {n}], got {value}")
    return value


# ---------------------------------------------------------------------------
# bounds for a normal original matrix

def normal_bounds(e, a_tilde, hermitian_a: bool, s_tilde: int) -> list[BoundResult]:
    """The bound family that presumes A normal (caller's responsibility).

    HW, SUN and their s(.)-refined / trace-deflated descendants, all in
    terms of E directly; ``s_tilde`` is s(A+E) computed by the caller.
    HW is marked inapplicable unless ``a_tilde`` = A + E is normal too,
    the Hermitian refinement unless ``hermitian_a``.  Any unitary
    similarity of the pair works: the harness passes E_Q and J + E_Q.
    """
    e = as_matrix(e, square=True, name="E")
    a_tilde = as_matrix(a_tilde, square=True, name="A+E")
    if e.shape != a_tilde.shape:
        raise DimensionError(f"shape mismatch: {e.shape} vs {a_tilde.shape}")
    n = e.shape[0]
    s_tilde = _check_s("s_tilde", s_tilde, n)
    fro = float(np.linalg.norm(e))
    d = delta(e)
    inputs = {"delta_e": d, "s_tilde": s_tilde}

    def res(bid, value, applicable=True, reason=""):
        return BoundResult(
            id=bid,
            value=float(value) if applicable else 0.0,
            branch=BRANCH_SINGLE,
            applicable=applicable,
            reason=reason,
            inputs=inputs,
        )

    hw_applies = is_normal(a_tilde)
    return [
        res(BoundId.HW, fro, hw_applies, "" if hw_applies else "A + E is not normal"),
        res(BoundId.SUN, math.sqrt(n) * fro),
        res(BoundId.LI_SUN, math.sqrt(n - s_tilde + 1) * fro),
        res(BoundId.XU1, math.sqrt(fro * fro + (n - 1) * d * d)),
        res(BoundId.XU2, math.sqrt(fro * fro + (n - s_tilde) * d * d)),
        res(
            BoundId.XU_HERMITIAN,
            math.sqrt(fro * fro + d * d) if hermitian_a else 0.0,
            applicable=hermitian_a,
            reason="" if hermitian_a else "A is not Hermitian",
        ),
    ]


# ---------------------------------------------------------------------------
# bounds for an arbitrary matrix

UP1 = (BoundId.UP1_1, BoundId.UP1_2, BoundId.UP1_3)
UP2 = (BoundId.UP2_1, BoundId.UP2_2, BoundId.UP2_3)
UP3 = (BoundId.UP3_1, BoundId.UP3_2, BoundId.UP3_3)


def jordan_bounds(x: BoundInputs, s, steps=None) -> list[BoundResult]:
    """SONG, LI_CHEN, UP1_*, UP2_* and UP3_*, in that order, on one
    ``steps = plan(x)``.

    ``s`` maps ``s1``..``s4`` to the caller's n+1-s(.) values: ``s1`` at
    eps = ||E_Q||_F^(1/m), ``s3`` at eps = delta^(1/m), ``s4`` at the
    stationary eps and ``s2`` at eps = 1; Li-Chen reads s1 below
    ||E_Q||_F = 1 and s2 from there on.  UP1_* carry the leading factor
    n, UP2_* the planned step's s-value, and UP3_* the factor 2, valid
    when every prescribed eigenvalue is real; ``x.real_spectrum`` decides
    that from the exact Jordan data, never from a floating-point spectrum,
    and a complex spectrum gets ``applicable=False`` UP3 results rather
    than fake values.
    """
    n, p, m, norm_eq = x[:4]
    s = {key: _check_s(key, s[key], n) for key in S_KEYS}
    steps = steps or plan(x)
    branch = steps[0].branch
    root = math.sqrt(n - p)
    if branch == BRANCH_ZERO:
        song = li_chen = 0.0
    elif branch == BRANCH_NORM_SMALL:
        song = math.sqrt(n) * (root + 1.0) * norm_eq ** (1.0 / m)
        li_chen = (
            math.sqrt(s["s1"] * (n - p + 1.0 + 2.0 * root * norm_eq)) * norm_eq ** (1.0 / m)
        )
    else:
        song = math.sqrt(n) * (root + 1.0) * norm_eq
        li_chen = math.sqrt(s["s2"] * (n - p + 2.0 * root + norm_eq)) * math.sqrt(norm_eq)
    inputs = {"s1": s["s1"], "s2": s["s2"]}
    results = [
        BoundResult(BoundId.SONG, float(song), branch, inputs=inputs),
        BoundResult(BoundId.LI_CHEN, float(li_chen), branch, inputs=inputs),
    ]
    tr2 = x.trace_abs ** 2 / n
    cores = [None if st.branch == BRANCH_ZERO else _core(x, st.branch) for st in steps]

    def family(ids, factor, inputs):
        return [
            BoundResult(
                bid, 0.0 if core is None else math.sqrt(factor[st.s_key] * core + tr2),
                st.branch, inputs=inputs,
            )
            for bid, st, core in zip(ids, steps, cores)
        ]

    results += family(UP1, dict.fromkeys(S_KEYS, n), {})
    results += family(UP2, s, s)
    if x.real_spectrum:
        return results + family(UP3, dict.fromkeys(S_KEYS, 2.0), {})
    reason = "prescribed eigenvalues are not all real"
    return results + [
        BoundResult(bid, 0.0, BRANCH_SINGLE, applicable=False, reason=reason) for bid in UP3
    ]


# ---------------------------------------------------------------------------
# verification

def verify_instance(results: list[BoundResult], d2: float) -> list[tuple[BoundId, float]]:
    """Slack (bound value minus true D2) for every applicable result.

    Nonnegative slack is the operational statement of each theorem;
    use :func:`is_violation` to flag slacks beyond the tolerance.
    """
    return [(r.id, r.value - float(d2)) for r in results if r.applicable]


def is_violation(value: float, slack: float, tol: float = 1e-7) -> bool:
    """True iff the slack is negative beyond -tol * (1 + value)."""
    return slack < -tol * (1.0 + value)
