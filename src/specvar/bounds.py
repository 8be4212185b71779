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
correctness hazard: :func:`plan` alone makes them, and every bound
records the branch it took.  Each family returns one :class:`BoundTable`.

The Jordan family is a function of seven numbers, a :class:`BoundInputs`,
plus the injected s-values: :func:`plan` and :func:`jordan_bounds` read
nothing else, so a trial record holds all they need.  Each number may be a
numpy array: the branch choice is ``np.where`` over the same three tests,
and every power is libm's ``pow`` (``np.power`` differs from it in the
last bit), so each point comes out bit for bit as a call of its own.
This module is a pure formula layer: the tolerance-laden s(.) values are
injected by the caller (see :mod:`specvar.harness`), never computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .blocks import is_normal
from .exceptions import DimensionError, DomainError
from .jordan import PerturbationInstance
from .linalg import NORM_RESCALE_BELOW, as_matrix, norm_and_delta

NORMAL_IDS = ("HW", "SUN", "LI_SUN", "XU1", "XU2", "XU_HERMITIAN")
UP1 = ("UP1_1", "UP1_2", "UP1_3")
UP2 = ("UP2_1", "UP2_2", "UP2_3")
UP3 = ("UP3_1", "UP3_2", "UP3_3")
JORDAN_IDS = ("SONG", "LI_CHEN") + UP1 + UP2 + UP3

BRANCH_NORM_SMALL = "||E_Q||_F < 1"
BRANCH_NORM_LARGE = "||E_Q||_F >= 1"
BRANCH_DELTA_SMALL = "delta(E_Q) < 1"
BRANCH_DELTA_LARGE = "delta(E_Q) >= 1"
BRANCH_C1 = "C1"
BRANCH_C2 = "C2"
BRANCH_ZERO = "zero-perturbation"
BRANCH_SINGLE = "single"

S_KEYS = ("s1", "s2", "s3", "s4")

SLACK_TOL = 1e-7  # D2 <= value + SLACK_TOL * (1 + value) holds the bound

# the s-key each planned branch reads; every eps = 1 fallback reads s2
S_KEY = {
    BRANCH_NORM_SMALL: "s1", BRANCH_DELTA_SMALL: "s3", BRANCH_C1: "s4",
    BRANCH_NORM_LARGE: "s2", BRANCH_DELTA_LARGE: "s2", BRANCH_C2: "s2",
}

@dataclass(frozen=True)
class BoundTable:
    """Evaluated bounds as columns, entry i of each for bound ``ids[i]``:
    its value, the branch it took and a reason, empty where it applies.
    An inapplicable bound's value is a zero placeholder that must never be
    compared against D2.  ``inputs`` holds the injected values once
    (``s1``..``s4``; the normal family's ``s_tilde`` and ``delta_e``).
    The JSON report writes these five columns as they are.  For one point
    every entry is a Python scalar and tables compare as one bool; for
    BoundInputs of arrays an entry may be an array over the points."""

    ids: tuple = ()
    values: tuple = ()
    branches: tuple = ()
    reasons: tuple = ()
    inputs: dict = field(default_factory=dict)

    def __add__(self, other: BoundTable) -> BoundTable:
        """The rows of ``self``, then those of ``other``."""
        return BoundTable(
            self.ids + other.ids, self.values + other.values,
            self.branches + other.branches, self.reasons + other.reasons,
            {**self.inputs, **other.inputs},
        )


# ---------------------------------------------------------------------------
# the branch planner

class BoundInputs(NamedTuple):
    """The seven numbers the Jordan family reads: the block layout
    (n, p, m), ||E_Q||_F, delta(E_Q), |tr E| and whether every prescribed
    eigenvalue is real.  A trial record holds the first six.  Arrays
    broadcast against each other and against scalars."""

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
    """How one envelope variant is evaluated: the branch label and the
    eps at which phi is evaluated.  eps = 0 stands for the eps -> 0 limit,
    reached when delta(E_Q) = 0; the zero-perturbation step reads no s."""

    branch: str
    eps: float

    @property
    def s_key(self) -> str | None:
        """The s-value UP2 reads on this (one-point) step, if any."""
        return S_KEY.get(self.branch)


def _where(cond, a, b):
    # np.where, without the 0-d arrays it builds for one point
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _label(cond, a, b):
    # _where for labels; an object array shares the strings, where a str
    # array would take 4 bytes a character per point
    if isinstance(cond, np.ndarray):
        a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    return _where(cond, a, b)


def _pow(x, y):
    # libm's pow: Python's float ** calls it, and numpy's float_power loop does
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.float_power(x, y)
    try:
        return x ** y
    except OverflowError:  # where an array's pow gives inf (every x here is >= 0)
        return math.inf


def _sqrt(x):
    # both round correctly; math.sqrt skips numpy's per-call cost on one point
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _div(a, b):
    # a / b, where an array's x/0 gives inf or nan and one point's 0.0 (a
    # Python float raises): every such quotient lands in a branch _where drops
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return a / b
    return a / b if b else 0.0


def _floats(x: BoundInputs) -> BoundInputs:
    # one point's numbers as Python floats, arrays as float64 (n, p, m exactly)
    return BoundInputs(*(np.float64(v) if isinstance(v, np.ndarray) else float(v)
                         for v in x[:6]), x.real_spectrum)


def plan(x: BoundInputs) -> tuple[Step, Step, Step]:
    """The single decision of branch and eps for the three envelope
    variants: (||E_Q||_F, delta(E_Q), stationary point), in that order.

    C1 (drift = n - p + 2 sqrt(n-p) delta > curb = (m-1) delta^2) needs
    m >= 2; the m = 1 case is routed to C2, whose eps = 1 formula contains
    the diagonalizable case.  Under C1 the stationary eps is
    (curb/drift)^(1/(2m)), the minimiser :func:`specvar.jordan.optimal_epsilon`
    returns; at delta = 0 it is the eps -> 0 limit.  Below ||E_Q||_F =
    2^-480, where curb may underflow, that eps is taken from unsquared
    parts as (sqrt(m-1) delta / sqrt(drift))^(1/m).
    """
    n, p, m, norm_eq, d = _floats(x)[:5]
    zero = norm_eq == 0.0
    drift = n - p + 2.0 * _sqrt(n - p) * d
    curb = (m - 1) * d * d
    stationary = _where(norm_eq < NORM_RESCALE_BELOW,
                        _pow(_div(_sqrt(m - 1) * d, _sqrt(drift)), 1.0 / m),
                        _pow(_div(curb, drift), 1.0 / (2 * m)))
    tests = (
        (norm_eq < 1.0, BRANCH_NORM_SMALL, BRANCH_NORM_LARGE, _pow(norm_eq, 1.0 / m)),
        (d < 1.0, BRANCH_DELTA_SMALL, BRANCH_DELTA_LARGE, _pow(d, 1.0 / m)),
        ((m >= 2) & (drift > curb), BRANCH_C1, BRANCH_C2, stationary),
    )
    return tuple(
        Step(_label(zero, BRANCH_ZERO, _label(test, inside, fallback)),
             _where(zero, 0.0, _where(test, eps, 1.0)))
        for test, inside, fallback, eps in tests
    )


def _check_s(name: str, value, n):
    bad = (value < 1) | (value > n)
    if bad.any() if isinstance(bad, np.ndarray) else bad:
        raise DomainError(f"{name} must lie in [1, {n}], got {value}")
    return value


# ---------------------------------------------------------------------------
# bounds for a normal original matrix

def normal_bounds(e, a_tilde, hermitian_a: bool, s_tilde: int) -> BoundTable:
    """The bound family that presumes A normal (caller's responsibility):
    :data:`NORMAL_IDS`, each on the branch ``single``.

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
    s_tilde = int(_check_s("s_tilde", s_tilde, n))
    fro, d = norm_and_delta(e, checked=True)
    if fro < NORM_RESCALE_BELOW:  # the squares underflow: hypot of the unsquared parts
        xu = tuple(math.hypot(fro, math.sqrt(k) * d) for k in (n - 1, n - s_tilde, 1))
    else:
        xu = tuple(math.sqrt(fro * fro + k * d * d) for k in (n - 1, n - s_tilde, 1))
    values = (fro, math.sqrt(n) * fro, math.sqrt(n - s_tilde + 1) * fro) + xu
    reasons = ("" if is_normal(a_tilde) else "A + E is not normal", "", "", "", "",
               "" if hermitian_a else "A is not Hermitian")
    return BoundTable(
        NORMAL_IDS, tuple(0.0 if why else value for value, why in zip(values, reasons)),
        (BRANCH_SINGLE,) * 6, reasons, {"delta_e": d, "s_tilde": s_tilde},
    )


# ---------------------------------------------------------------------------
# bounds for an arbitrary matrix

def jordan_bounds(x: BoundInputs, s, steps=None) -> BoundTable:
    """SONG, LI_CHEN, UP1_*, UP2_* and UP3_* (:data:`JORDAN_IDS`) on one
    ``steps = plan(x)``.

    ``s`` maps ``s1``..``s4`` to the caller's n+1-s(.) values (scalars,
    or arrays over the points): ``s1`` at eps = ||E_Q||_F^(1/m), ``s3`` at
    eps = delta^(1/m), ``s4`` at the stationary eps and ``s2`` at eps = 1;
    Li-Chen reads s1 below ||E_Q||_F = 1 and s2 from there on.  UP1_*
    carry the leading factor n, UP2_* the planned step's s-value, and
    UP3_* the factor 2, valid when every prescribed eigenvalue is real;
    ``x.real_spectrum`` decides that from the exact Jordan data, never
    from a floating-point spectrum, and a complex spectrum gets
    inapplicable UP3 rows rather than fake values.
    """
    s = {key: _check_s(key, s[key], x.n) for key in S_KEYS}
    n, p, m, norm_eq, d, trace_abs, real = _floats(x)
    steps = steps or plan(x)
    branches = tuple(step.branch for step in steps)
    zero = branches[0] == BRANCH_ZERO
    small = branches[0] == BRANCH_NORM_SMALL
    root = _sqrt(n - p)
    drift = n - p + 2.0 * root * d
    scale = _sqrt(n) * (root + 1.0)
    # steps[0].eps is ||E_Q||_F^(1/m) wherever the norm is small, and 0 on
    # the zero-perturbation branch, where it makes SONG and LI_CHEN 0
    song = _where(small, scale * steps[0].eps, scale * norm_eq)
    li_chen = _where(
        small,
        _sqrt(s["s1"] * (n - p + 1.0 + 2.0 * root * norm_eq)) * steps[0].eps,
        _sqrt(s["s2"] * (n - p + 2.0 * root + norm_eq)) * _sqrt(norm_eq),
    )
    # phi minus its trace term in closed form, per step; the forms hold the
    # eps -> 0 limits at delta = 0 exactly, where phi itself cannot be
    # evaluated.  On the zero-perturbation branch core and trace term are 0.
    d_power = _pow(d, 2.0 / m)
    at_one = _pow(root + d, 2)
    tiny = norm_eq < NORM_RESCALE_BELOW
    # (delta / ||E_Q||_F)^2 <= 1, whose two squares underflow for tiny E_Q
    ratio = _where(tiny, _div(d, norm_eq) ** 2, _div(d * d, norm_eq * norm_eq))
    # each inner core c x^(2/m) as (c, x^(2/m), x)
    inside = (
        (drift + ratio, _pow(norm_eq, 2.0 / m), norm_eq),
        (drift + 1.0, d_power, d),
        (m * _pow(_div(drift, m - 1), 1.0 - 1.0 / m), d_power, d),  # interior minimum
    )
    tr2 = _where(zero, 0.0, _pow(trace_abs, 2) / n)
    values = {"SONG": song, "LI_CHEN": li_chen}
    labels = (BRANCH_NORM_SMALL, BRANCH_DELTA_SMALL, BRANCH_C1)
    for i, (branch, (c, power, _), label) in enumerate(zip(branches, inside, labels)):
        inner = branch == label
        core = _where(zero, 0.0, _where(inner, c * power, at_one))
        s_up2 = _where(inner, s[S_KEY[label]], s["s2"])
        values[UP1[i]] = _sqrt(n * core + tr2)
        values[UP2[i]] = _sqrt(s_up2 * core + tr2)
        values[UP3[i]] = _where(real, _sqrt(2.0 * core + tr2), 0.0)
    if tiny.any() if isinstance(tiny, np.ndarray) else tiny:
        # below 2^-480 core and |tr E|^2 / n may underflow: there each UP
        # bound is the hypot of sqrt(K core) and |tr E| / sqrt(n)
        trace_part = _where(zero, 0.0, trace_abs / _sqrt(n))
        for i, (branch, (c, _, base), label) in enumerate(zip(branches, inside, labels)):
            inner = branch == label
            half = _where(zero, 0.0, _where(inner, _sqrt(c) * _pow(base, 1.0 / m), root + d))
            s_up2 = _where(inner, s[S_KEY[label]], s["s2"])
            for bid, k, cond in ((UP1[i], n, tiny), (UP2[i], s_up2, tiny),
                                 (UP3[i], 2.0, tiny & real)):
                values[bid] = _where(cond, np.hypot(_sqrt(k) * half, trace_part), values[bid])
    reason = _label(real, "", "prescribed eigenvalues are not all real")
    return BoundTable(
        JORDAN_IDS,  # one point's values as Python floats, as JSON and repr want
        tuple(v if isinstance(v, np.ndarray) else float(v) for v in map(values.get, JORDAN_IDS)),
        branches[:1] * 2 + branches * 2 + tuple(_label(real, b, BRANCH_SINGLE) for b in branches),
        ("",) * 8 + (reason,) * 3, s,
    )


# ---------------------------------------------------------------------------
# verification

def verify_instance(table: BoundTable, d2: float) -> list[str]:
    """The verdict on one instance: the ids, in table order, of the
    applicable bounds whose slack (bound value minus the true D2) is a
    violation (:func:`is_violation`).  Nonnegative slack is the
    operational statement of each theorem; an inapplicable bound's
    placeholder is never compared."""
    d2 = float(d2)
    return [bid for bid, value, why in zip(table.ids, table.values, table.reasons)
            if not why and is_violation(value, value - d2)]


def is_violation(value: float, slack: float) -> bool:
    """True iff the slack is negative beyond -SLACK_TOL * (1 + value)."""
    return slack < -SLACK_TOL * (1.0 + value)
