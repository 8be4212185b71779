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

This module is a pure formula layer: the tolerance-laden s(.) values are
injected by the caller (see :mod:`specvar.harness`), never computed here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blocks import is_normal
from .exceptions import DimensionError, DomainError
from .jordan import PerturbationInstance, optimal_epsilon
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


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound: value, branch taken, and the scalar inputs used.

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


class Step(NamedTuple):
    """How one envelope variant is evaluated: the branch label, the s-key
    (``s1``..``s4``) whose value the UP2 bound reads as its factor, and the
    eps at which phi is evaluated.  eps = 0 stands for the eps -> 0 limit,
    reached when delta(E_Q) = 0; the zero-perturbation step reads no s."""

    branch: str
    s_key: str | None
    eps: float


def plan(inst: PerturbationInstance) -> tuple[Step, Step, Step]:
    """The single decision of branch and eps for the three envelope
    variants: (||E_Q||_F, delta(E_Q), stationary point), in that order.

    Every eps = 1 fallback reads ``s2``.  C1 (n - p + 2 sqrt(n-p) delta >
    (m-1) delta^2) needs m >= 2; the m = 1 case is routed to C2, whose
    eps = 1 formula contains the diagonalizable case.
    """
    if inst.norm_eq == 0.0:
        return (Step(BRANCH_ZERO, None, 0.0),) * 3
    n, p, m = inst.spec.n, inst.spec.p, inst.spec.m
    d = inst.delta_eq
    if inst.norm_eq < 1.0:
        by_norm = Step(BRANCH_NORM_SMALL, "s1", inst.norm_eq ** (1.0 / m))
    else:
        by_norm = Step(BRANCH_NORM_LARGE, "s2", 1.0)
    if d < 1.0:
        by_delta = Step(BRANCH_DELTA_SMALL, "s3", d ** (1.0 / m))
    else:
        by_delta = Step(BRANCH_DELTA_LARGE, "s2", 1.0)
    if m >= 2 and (n - p + 2.0 * math.sqrt(n - p) * d) > (m - 1) * d * d:
        stationary = Step(BRANCH_C1, "s4", optimal_epsilon(inst) if d > 0.0 else 0.0)
    else:
        stationary = Step(BRANCH_C2, "s2", 1.0)
    return by_norm, by_delta, stationary


def _core_small_norm(n, p, m, d, norm_eq):
    ratio = (d * d) / (norm_eq * norm_eq)
    return (n - p + 2.0 * math.sqrt(n - p) * d + ratio) * norm_eq ** (2.0 / m)


def _core_unit(n, p, d):
    return (math.sqrt(n - p) + d) ** 2


def _core_small_delta(n, p, m, d):
    return (n - p + 2.0 * math.sqrt(n - p) * d + 1.0) * d ** (2.0 / m)


def _core_stationary(n, p, m, d):
    # interior minimum of phi; only reachable under C1 with m >= 2
    drift = n - p + 2.0 * math.sqrt(n - p) * d
    return m * (drift / (m - 1)) ** (1.0 - 1.0 / m) * d ** (2.0 / m)


def _core(inst: PerturbationInstance, branch: str) -> float:
    """phi minus its |tr E|^2/n term, in closed form, on a planned branch.

    The closed forms hold the eps -> 0 limits at delta = 0 exactly, where
    phi(eps) itself cannot be evaluated."""
    n, p, m = inst.spec.n, inst.spec.p, inst.spec.m
    d = inst.delta_eq
    if branch == BRANCH_NORM_SMALL:
        return _core_small_norm(n, p, m, d, inst.norm_eq)
    if branch == BRANCH_DELTA_SMALL:
        return _core_small_delta(n, p, m, d)
    if branch == BRANCH_C1:
        return _core_stationary(n, p, m, d)
    return _core_unit(n, p, d)


def _check_s(name: str, value: int, n: int) -> int:
    value = int(value)
    if not 1 <= value <= n:
        raise DomainError(f"{name} must lie in [1, {n}], got {value}")
    return value


def _scalar_inputs(inst: PerturbationInstance, **extra) -> dict:
    base = {
        "n": inst.spec.n,
        "p": inst.spec.p,
        "m": inst.spec.m,
        "delta_eq": inst.delta_eq,
        "norm_eq": inst.norm_eq,
        "trace_abs": abs(inst.trace_e),
    }
    base.update(extra)
    return base


# ---------------------------------------------------------------------------
# bounds for a normal original matrix

def normal_bounds(e, a_tilde, hermitian_a: bool, s_tilde: int) -> list[BoundResult]:
    """The bound family that presumes A normal (caller's responsibility).

    HW, SUN and their s(.)-refined / trace-deflated descendants, all in
    terms of E directly; ``s_tilde`` is s(A+E) computed by the caller.
    HW is marked inapplicable unless ``a_tilde`` = A + E is normal too,
    the Hermitian refinement unless ``hermitian_a``.
    """
    e = as_matrix(e, square=True, name="E")
    a_tilde = as_matrix(a_tilde, square=True, name="A+E")
    if e.shape != a_tilde.shape:
        raise DimensionError(f"shape mismatch: {e.shape} vs {a_tilde.shape}")
    n = e.shape[0]
    s_tilde = _check_s("s_tilde", s_tilde, n)
    fro = float(np.linalg.norm(e))
    d = delta(e)
    inputs = {"n": n, "norm_e": fro, "delta_e": d, "s_tilde": s_tilde}

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
# Jordan-based baselines

def baseline_bounds(inst: PerturbationInstance, s1: int, s2: int) -> list[BoundResult]:
    """Song's bound and the Li-Chen refinement for an arbitrary matrix.

    ``s1 = n + 1 - s(T^-1 Q^-1 (A+E) Q T)`` at eps = ||E_Q||_F^(1/m) and
    ``s2 = n + 1 - s(Q^-1 (A+E) Q)``, both supplied by the caller.
    """
    n, p, m = inst.spec.n, inst.spec.p, inst.spec.m
    s1 = _check_s("s1", s1, n)
    s2 = _check_s("s2", s2, n)
    inputs = _scalar_inputs(inst, s1=s1, s2=s2)
    branch = plan(inst)[0].branch
    norm_eq = inst.norm_eq
    if branch == BRANCH_ZERO:
        song = li_chen = 0.0
    elif branch == BRANCH_NORM_SMALL:
        song = math.sqrt(n) * (math.sqrt(n - p) + 1.0) * norm_eq ** (1.0 / m)
        li_chen = (
            math.sqrt(s1 * (n - p + 1.0 + 2.0 * math.sqrt(n - p) * norm_eq))
            * norm_eq ** (1.0 / m)
        )
    else:
        song = math.sqrt(n) * (math.sqrt(n - p) + 1.0) * norm_eq
        li_chen = (
            math.sqrt(s2 * (n - p + 2.0 * math.sqrt(n - p) + norm_eq))
            * math.sqrt(norm_eq)
        )
    return [
        BoundResult(BoundId.SONG, float(song), branch, inputs=inputs),
        BoundResult(BoundId.LI_CHEN, float(li_chen), branch, inputs=inputs),
    ]


# ---------------------------------------------------------------------------
# the envelope-derived families

def _up_family(inst, factor, ids, inputs):
    """UP1_*/UP2_*/UP3_* on the planned branches: ``factor`` maps each
    step's s-key to the family's leading factor."""
    tr2 = abs(inst.trace_e) ** 2 / inst.spec.n
    results = []
    for bid, step in zip(ids, plan(inst)):
        value = 0.0
        if step.branch != BRANCH_ZERO:
            value = math.sqrt(factor[step.s_key] * _core(inst, step.branch) + tr2)
        results.append(BoundResult(bid, float(value), step.branch, inputs=inputs))
    return results


def new_bounds_complex(
    inst: PerturbationInstance, s1: int, s2: int, s3: int, s4: int
) -> list[BoundResult]:
    """The six envelope bounds for a general complex spectrum.

    UP1_* carry the leading factor n; UP2_* replace it with the injected
    s-values: s1 at eps = ||E_Q||^(1/m), s3 at eps = delta^(1/m), s4 at the
    stationary eps, and s2 for every eps = 1 fallback.
    """
    n = inst.spec.n
    s1 = _check_s("s1", s1, n)
    s2 = _check_s("s2", s2, n)
    s3 = _check_s("s3", s3, n)
    s4 = _check_s("s4", s4, n)
    s = dict(zip(S_KEYS, (s1, s2, s3, s4)))
    up1 = _up_family(
        inst, dict.fromkeys(s, n),
        (BoundId.UP1_1, BoundId.UP1_2, BoundId.UP1_3),
        _scalar_inputs(inst),
    )
    up2 = _up_family(
        inst, s,
        (BoundId.UP2_1, BoundId.UP2_2, BoundId.UP2_3),
        _scalar_inputs(inst, **s),
    )
    return up1 + up2


def new_bounds_real(inst: PerturbationInstance) -> list[BoundResult]:
    """The sharper factor-2 family, valid when all prescribed eigenvalues
    of A are real.

    Eligibility is decided from the exact JordanSpec eigenvalues, never
    from a floating-point spectrum.  Complex-spectrum instances get
    ``applicable=False`` results rather than fake values.
    """
    inputs = _scalar_inputs(inst)
    ids = (BoundId.UP3_1, BoundId.UP3_2, BoundId.UP3_3)
    if not inst.spec.has_real_spectrum():
        return [
            BoundResult(
                bid, 0.0, BRANCH_SINGLE,
                applicable=False,
                reason="prescribed eigenvalues are not all real",
                inputs=inputs,
            )
            for bid in ids
        ]
    return _up_family(inst, dict.fromkeys(S_KEYS, 2.0), ids, inputs)


# ---------------------------------------------------------------------------
# verification

def verify_instance(
    inst: PerturbationInstance, results: list[BoundResult], d2: float
) -> list[tuple[BoundId, float]]:
    """Slack (bound value minus true D2) for every applicable result.

    Nonnegative slack is the operational statement of each theorem;
    use :func:`is_violation` to flag slacks beyond the tolerance.
    """
    return [(r.id, r.value - float(d2)) for r in results if r.applicable]


def is_violation(value: float, slack: float, tol: float = 1e-7) -> bool:
    """True iff the slack is negative beyond -tol * (1 + value)."""
    return slack < -tol * (1.0 + value)
