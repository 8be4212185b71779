"""End-to-end verification harness.

Generates seeded Jordan-structured instances, evaluates every applicable
bound against the true optimal matching distance D2, checks the envelope
margins on an eps grid, and aggregates everything into a reproducible
report: compact JSON (schema 2: record scalars once, one row per bound of
the record's bound table) or CSV (trial,bound_id,branch,value,d2,slack).

Two report states are kept strictly apart: a *bound violation* (negative
slack beyond tolerance -- would disprove a theorem) and a
*failed-infrastructure* trial (eigensolver non-convergence, ambiguous
block structure).  An infrastructure hiccup must never masquerade as a
disproof.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .blocks import DEFAULT_BLOCK_TOL, DEFAULT_CLUSTER_GAP, DEFAULT_TOL, s_number
from .bounds import (
    INPUT_KEYS,
    SLACK_TOL,
    BoundInputs,
    BoundTable,
    jordan_bounds,
    normal_bounds,
    plan,
    verify_instance,
)
from .exceptions import (
    AmbiguityError,
    ConfigError,
    EigensolverError,
    ParseError,
    SizeLimitError,
)
from .fileio import read_jordan_spec
from .generate import complex_gaussian, random_conditioned, rank_one
from .jordan import (
    PerturbationInstance,
    envelope_margins,
    make_instance,
    make_jordan_spec,
    scaled_similarity,
)
from .spectrum import Spectrum, eigenvalues, optimal_match

BLOCK_PROFILES = ("diagonalizable", "single-jordan", "mixed", "user-file")
PERTURBATIONS = ("gaussian", "scalar", "rank1")
S_MODES = ("computed", "pessimistic")

CSV_COLUMNS = ("trial", "bound_id", "branch", "value", "d2", "slack")


def default_tolerances() -> dict[str, float]:
    # the slack of bounds.is_violation, then the s(M) cutoffs of blocks.s_number
    return {"slack": SLACK_TOL, "s_tol": DEFAULT_TOL,
            "cluster_gap": DEFAULT_CLUSTER_GAP, "block_tol": DEFAULT_BLOCK_TOL}


@dataclass
class SweepConfig:
    """Reproducible sweep description: identical configs yield identical
    reports (byte-identical CSV modulo the timestamp header)."""

    seed: int = 0
    trials: int = 100
    n_range: tuple[int, int] = (2, 12)
    block_profile: str = "mixed"
    perturbation: str = "gaussian"
    amount: float = 0.5            # ||E||_F for gaussian/rank1, t for scalar
    target_kappa: float = 10.0
    s_mode: str = "pessimistic"
    real_eigenvalues: bool = False
    jordan_file: str | None = None  # required by the user-file profile
    tolerances: dict = field(default_factory=default_tolerances)


# Largest kappa(Q) * n * |amount| a sweep takes.  ||E||_F is the amount
# (gaussian, rank1) or sqrt(n)|t| (scalar t I), so ||E_Q||_F <=
# kappa(Q) ||E||_F, delta(E_Q) <= ||E_Q||_F and |tr E| <= sqrt(n) ||E||_F
# are all at most X = kappa(Q) n |amount|.  The bound formulas square
# them, is_normal's commutator norm reaches X^4, and the eps-grid margins
# scale X^2 by up to 16^(2(m-1)).  With X <= 1e64 all of these stay below
# float64's 1.8e308 for every m < 60, so a float overflow can never pose
# as a bound violation or blank a margin.
AMOUNT_SCALE_MAX = 1e64


def check_amount_scale(amount: float, kappa: float, n: int) -> None:
    """ConfigError if kappa * n * |amount| passes AMOUNT_SCALE_MAX."""
    if kappa * n * abs(amount) > AMOUNT_SCALE_MAX:
        raise ConfigError(
            f"amount {amount:g} at kappa {kappa:g} and n {n} could overflow the "
            f"squares the bounds take: kappa * n * |amount| must be <= {AMOUNT_SCALE_MAX:g}"
        )


def validate_config(config: SweepConfig) -> None:
    if config.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {config.trials}")
    lo, hi = config.n_range
    if not (1 <= lo <= hi):
        raise ConfigError(f"invalid n_range {config.n_range}")
    if config.block_profile not in BLOCK_PROFILES:
        raise ConfigError(f"unknown block profile '{config.block_profile}'")
    if config.perturbation not in PERTURBATIONS:
        raise ConfigError(f"unknown perturbation '{config.perturbation}'")
    if config.s_mode not in S_MODES:
        raise ConfigError(f"unknown s_mode '{config.s_mode}'")
    if config.amount == 0.0 or not math.isfinite(config.amount):
        raise ConfigError("perturbation amount must be nonzero and finite")
    if config.perturbation in ("gaussian", "rank1") and config.amount < 0.0:
        raise ConfigError("gaussian/rank1 amount is a norm and must be > 0")
    if config.target_kappa < 1.0:
        raise ConfigError(f"target_kappa must be >= 1, got {config.target_kappa}")
    if config.block_profile == "single-jordan" and lo < 2:
        raise ConfigError("single-jordan profile needs n >= 2")
    if config.block_profile == "user-file":
        if not config.jordan_file:
            raise ConfigError("user-file profile needs jordan_file")
    else:  # the file's Q and n are checked once read, in gen_instance
        check_amount_scale(config.amount, config.target_kappa, hi)
    for key in default_tolerances():  # each one a trial reads; extra keys pass
        value = config.tolerances.get(key)
        if not (isinstance(value, (int, float)) and 0.0 <= value < math.inf):
            raise ConfigError(f"tolerance '{key}' must be a finite number >= 0, got {value!r}")


def _draw_blocks(config: SweepConfig, n: int, rng) -> list[tuple[complex, int]]:
    if config.block_profile == "diagonalizable":
        sizes = [1] * n
    elif config.block_profile == "single-jordan":
        sizes = [n]
    else:
        sizes, remaining = [], n
        while remaining > 0:
            sizes.append(int(rng.integers(1, min(3, remaining) + 1)))
            remaining -= sizes[-1]
    # one draw for all eigenvalues, the stream of one scalar draw per block
    # for re and (unless the spectrum is real) im, read as complex
    real = config.real_eigenvalues
    draws = rng.uniform(-2.0, 2.0, (len(sizes), 1 if real else 2))
    lams = draws[:, 0] if real else draws.view(np.complex128)[:, 0]
    return list(zip(lams.tolist(), sizes))


def gen_instance(config: SweepConfig, trial_index: int) -> PerturbationInstance:
    """Deterministic in (config.seed, trial_index): the same pair gives a
    bit-identical instance.  One stream, drawn in order: n, the block sizes
    (mixed profile), one eigenvalue per block, Q, then E."""
    validate_config(config)
    rng = np.random.default_rng([config.seed, trial_index])
    if config.block_profile == "user-file":
        spec = read_jordan_spec(config.jordan_file)
        n = spec.n
        check_amount_scale(config.amount, spec.kappa_q, n)
    else:
        lo, hi = config.n_range
        n = int(rng.integers(lo, hi + 1))
        blocks = _draw_blocks(config, n, rng)
        q = random_conditioned(n, config.target_kappa, rng)
        spec = make_jordan_spec(blocks, q)
    if config.perturbation == "scalar":
        e = config.amount * np.eye(n, dtype=np.complex128)
    elif config.perturbation == "rank1":
        e = config.amount * rank_one(n, rng)
    else:
        g = complex_gaussian(n, n, rng)
        e = g * (config.amount / np.linalg.norm(g))
    return make_instance(spec, e)


# ---------------------------------------------------------------------------
# per-instance machinery

def perturbed_spectrum(inst: PerturbationInstance) -> Spectrum:
    """Spectrum of A + E, from a dense eigensolve of J + E_Q (similar to
    it, and free of the rounding of assembling A).  For a bitwise-scalar E
    it is exact: J + tI is triangular, LAPACK's balancing isolates every
    diagonal entry, and each eigenvalue comes back as lambda + t."""
    return eigenvalues(inst.perturbed)


def s_values(
    inst: PerturbationInstance,
    mode: str = "pessimistic",
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    cluster_gap: float = DEFAULT_CLUSTER_GAP,
    block_tol: float = DEFAULT_BLOCK_TOL,
    with_s_tilde: bool = False,
    steps=None,
) -> dict[str, int]:
    """The s-dependent factors the bounds need, as n+1-s(.) values.

    Pessimistic mode assumes s(.) = 1 everywhere (always valid), which
    keeps soundness sweeps independent of the tolerance-laden s
    computation.  Computed mode evaluates s(T^-1 (J + E_Q) T) once for
    each s-key the branch plan (:func:`specvar.bounds.plan`) names, at that
    step's eps; the rest, and the eps -> 0 limits, stay at the pessimistic
    n.  ``s_tilde`` is s(J + E_Q), which only the normal-A bound family
    reads (there Q is unitary, so J + E_Q is unitarily similar to A + E
    and has the same s): it is computed with ``with_s_tilde=True`` and
    stays at the pessimistic 1 otherwise.  ``steps`` is a held
    ``plan(BoundInputs.of(inst))``.
    """
    if mode not in S_MODES:
        raise ConfigError(f"unknown s_mode '{mode}'")
    n = inst.spec.n
    out = {"s1": n, "s2": n, "s3": n, "s4": n, "s_tilde": 1}
    if mode == "pessimistic":
        return out

    def s_of(matrix) -> int:
        dec = s_number(
            matrix, tol=tol, seed=seed, cluster_gap=cluster_gap, block_tol=block_tol
        )
        return dec.s

    g = inst.perturbed
    steps = steps or plan(BoundInputs.of(inst))
    planned = {step.s_key: step.eps for step in steps if step.eps > 0.0}
    for key, eps in planned.items():
        out[key] = n + 1 - s_of(scaled_similarity(inst.spec, g, eps))
    if with_s_tilde:
        out["s_tilde"] = s_of(g)
    return out


# the fixed uniform grid (1/16, 2/16, ..., 1] every trial's margins are checked on
EPS_GRID = np.arange(1, 17, dtype=np.float64) / 16
EPS_GRID.flags.writeable = False


@dataclass
class TrialRecord:
    """Everything recorded for one sweep trial (a failed one keeps the defaults)."""

    trial: int
    digest: str
    status: str                 # "ok" | "failed-infrastructure"
    failure_reason: str
    n: int
    p: int
    m: int
    kappa_q: float
    norm_e: float
    norm_eq: float
    delta_eq: float
    trace_abs: float
    d2: float = 0.0
    d_inf: float = 0.0
    results: BoundTable = field(default_factory=BoundTable)
    violations: list[str] = field(default_factory=list)
    envelope_ratio_min: float = 0.0
    scaled_norm_ratio_min: float = 0.0
    cross_term_ratio_min: float = 0.0
    superdiag_error_ratio_max: float = 0.0


def instance_digest(inst: PerturbationInstance) -> str:
    h = hashlib.sha256()
    for lam, size in inst.spec.blocks:
        h.update(np.array([lam.real, lam.imag, size], dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(inst.spec.q).tobytes())
    h.update(np.ascontiguousarray(inst.e).tobytes())
    return h.hexdigest()[:12]


def _is_constructed_normal(config: SweepConfig) -> bool:
    # diagonal J conjugated by a unitary Q is normal by construction
    return config.block_profile == "diagonalizable" and config.target_kappa <= 1.0


def evaluate_bounds(
    inst: PerturbationInstance,
    sv: dict[str, int],
    include_normal_family: bool = False,
    hermitian_a: bool = False,
    steps=None,
) -> BoundTable:
    """One table of the bound families for this instance, s-values injected:
    the Jordan family (:func:`specvar.bounds.jordan_bounds`) on one ``steps =
    plan(BoundInputs.of(inst))``, then, if asked, the normal family, checked
    against J + E_Q, so the perturbation it reads is E_Q."""
    table = jordan_bounds(BoundInputs.of(inst), sv, steps)
    if include_normal_family:
        table += normal_bounds(
            inst.e_q, inst.perturbed, hermitian_a=hermitian_a, s_tilde=sv["s_tilde"]
        )
    return table


def _margin_ratios(inst: PerturbationInstance, grid) -> tuple[float, float, float, float]:
    """Worst margin / phi(eps) over the eps grid (minima of the envelope,
    scaled-norm and cross-term margins, maximum superdiagonal error) from
    one :func:`specvar.jordan.envelope_margins` pass, which holds a few
    (len(grid), n, n) arrays: 37 KB each for 16 points at n = 12.  phi is
    positive at every grid point or at none, so its first point decides
    for the whole grid: for n > p, phi(eps) >= (n-p) eps^2 > 0; for n = p
    (m = 1) every eps-dependent term of phi vanishes and phi is the
    constant delta(E_Q)^2 + |tr E|^2/n.  phi = 0 forces E = 0, where every
    margin is exactly zero."""
    margins = envelope_margins(inst, grid)
    value = margins["phi"]
    if not value[0] > 0.0:
        return 0.0, 0.0, 0.0, 0.0
    env, norm, cross, sup = (
        margins[key] / value
        for key in (
            "envelope_margin", "scaled_norm_margin", "cross_term_margin",
            "superdiag_norm_error",
        )
    )
    return float(env.min()), float(norm.min()), float(cross.min()), float(sup.max())


def run_trial(inst: PerturbationInstance, config: SweepConfig, trial: int) -> TrialRecord:
    """Evaluate one instance end to end; infrastructure failures are caught
    and recorded, never raised."""
    spec = inst.spec
    normal = _is_constructed_normal(config)
    x = BoundInputs.of(inst)
    base = dict(
        trial=trial,
        digest=instance_digest(inst),
        n=x.n,
        p=x.p,
        m=x.m,
        kappa_q=spec.kappa_q,
        norm_e=inst.norm_e,
        norm_eq=x.norm_eq,
        delta_eq=x.delta_eq,
        trace_abs=x.trace_abs,
    )
    steps = plan(x)
    try:
        match = optimal_match(spec.spectrum, perturbed_spectrum(inst))
        sv = s_values(
            inst,
            mode=config.s_mode,
            tol=config.tolerances["s_tol"],
            seed=config.seed,
            cluster_gap=config.tolerances["cluster_gap"],
            block_tol=config.tolerances["block_tol"],
            with_s_tilde=normal,
            steps=steps,
        )
    except (EigensolverError, AmbiguityError, SizeLimitError) as exc:
        return TrialRecord(
            **base,
            status="failed-infrastructure",
            failure_reason=f"{type(exc).__name__}: {exc}",
        )
    results = evaluate_bounds(
        inst,
        sv,
        include_normal_family=normal,
        hermitian_a=normal and config.real_eigenvalues,
        steps=steps,
    )
    violations = verify_instance(results, match.d2, config.tolerances["slack"])
    env_min, sn_min, ct_min, sd_max = _margin_ratios(inst, EPS_GRID)
    return TrialRecord(
        **base,
        status="ok",
        failure_reason="",
        d2=match.d2,
        d_inf=match.d_inf,
        results=results,
        violations=violations,
        envelope_ratio_min=env_min,
        scaled_norm_ratio_min=sn_min,
        cross_term_ratio_min=ct_min,
        superdiag_error_ratio_max=sd_max,
    )


@dataclass
class Report:
    """Sweep output: per-trial records plus aggregate statistics."""

    config: SweepConfig
    records: list[TrialRecord]
    summary: dict


def summarize(config: SweepConfig, records: list[TrialRecord]) -> dict:
    ok = [r for r in records if r.status == "ok"]
    min_slack: dict[str, float] = {}
    sharp_song = sharp_lichen = math.inf
    branches = Counter()
    for rec in ok:
        t = rec.results
        for bid, value, branch, reason in zip(t.ids, t.values, t.branches, t.reasons):
            if not reason:  # applicable: its slack is value - D2
                min_slack[bid] = min(min_slack.get(bid, math.inf), value - rec.d2)
                branches[bid, branch] += 1
        value = dict(zip(t.ids, t.values))
        sharp_song = min(sharp_song, value["SONG"] - value["UP1_1"])
        sharp_lichen = min(sharp_lichen, value["LI_CHEN"] - value["UP2_1"])
    branch_counts: dict[str, dict[str, int]] = {}
    for (name, branch), count in branches.items():
        branch_counts.setdefault(name, {})[branch] = count
    failures = Counter(r.failure_reason.split(":")[0] for r in records if r.status != "ok")
    return {
        "trials": len(records),
        "ok": len(ok),
        "failed_infrastructure": len(records) - len(ok),
        "violation_count": sum(len(r.violations) for r in ok),
        "min_slack": min_slack,
        "sharpness_pass": bool(sharp_song >= -1e-12 and sharp_lichen >= -1e-12),
        # None when no trial produced the comparison (JSON has no infinity)
        "sharpness_song_min": None if math.isinf(sharp_song) else sharp_song,
        "sharpness_lichen_min": None if math.isinf(sharp_lichen) else sharp_lichen,
        "envelope_ratio_min": min((r.envelope_ratio_min for r in ok), default=0.0),
        "scaled_norm_ratio_min": min((r.scaled_norm_ratio_min for r in ok), default=0.0),
        "cross_term_ratio_min": min((r.cross_term_ratio_min for r in ok), default=0.0),
        "superdiag_error_ratio_max": max(
            (r.superdiag_error_ratio_max for r in ok), default=0.0
        ),
        "branch_counts": branch_counts,     # bound -> branch -> ok trials it applied in
        "failure_reasons": dict(failures),  # exception type -> failed trials
    }


def run_sweep(config: SweepConfig) -> Report:
    """Run every trial of the sweep.  Trials are independent; records are
    assembled in trial-index order so the report is order-deterministic."""
    validate_config(config)
    records = [
        run_trial(gen_instance(config, idx), config, idx)
        for idx in range(config.trials)
    ]
    return Report(config=config, records=records, summary=summarize(config, records))


# ---------------------------------------------------------------------------
# the scalar-perturbation reference table

def example_scalar_table(
    n: int,
    p: int,
    m: int,
    t: float,
    spec,
    s_mode: str = "pessimistic",
    s_seed: int = 0,
) -> dict:
    """Closed forms vs numeric evaluation for E = t I with 0 < |t| < 1/sqrt(n).

    For a scalar perturbation every eigenvalue shifts by exactly t, so
    D2 = sqrt(n) |t|, delta(E_Q) = 0 and tr E = n t; each bound collapses
    to a closed form in (n, p, m, t) alone.  Returns rows of
    (bound id, closed form, numeric value, relative error) plus the D2
    pair; closed form and numeric evaluation must agree to ~1e-10.
    """
    if spec.n != n or spec.p != p or spec.m != m:
        raise ConfigError(
            f"spec has (n,p,m)=({spec.n},{spec.p},{spec.m}), expected ({n},{p},{m})"
        )
    if not (0.0 < abs(t) < 1.0 / math.sqrt(n)):
        raise ConfigError(f"t must satisfy 0 < |t| < 1/sqrt(n), got {t}")
    inst = make_instance(spec, t * np.eye(n, dtype=np.complex128))
    sv = s_values(inst, mode=s_mode, seed=s_seed)
    s1 = sv["s1"]
    table = evaluate_bounds(inst, sv)
    value = dict(zip(table.ids, table.values))
    branch = dict(zip(table.ids, table.branches))
    at = abs(t)
    closed = {
        "SONG": (math.sqrt(n - p) + 1.0) * n ** (0.5 + 0.5 / m) * at ** (1.0 / m),
        "LI_CHEN": math.sqrt(s1 * (n - p + 1.0 + 2.0 * at * math.sqrt(n * n - n * p)))
        * n ** (0.5 / m) * at ** (1.0 / m),
        "UP1_1": math.sqrt((n - p) * n ** (1.0 + 1.0 / m) * at ** (2.0 / m) + n * t * t),
        "UP2_1": math.sqrt(s1 * (n - p) * n ** (1.0 / m) * at ** (2.0 / m) + n * t * t),
        **dict.fromkeys(("UP1_2", "UP1_3", "UP2_2", "UP2_3"), math.sqrt(n) * at),
    }
    rows = []
    for bid, cf in closed.items():
        numeric = value[bid]
        rel = abs(numeric - cf) / max(abs(cf), 1e-300)
        rows.append(
            {
                "bound_id": bid,
                "branch": branch[bid],
                "closed_form": cf,
                "numeric": numeric,
                "rel_err": rel,
            }
        )
    d2 = optimal_match(spec.spectrum, perturbed_spectrum(inst)).d2
    return {
        "n": n,
        "p": p,
        "m": m,
        "t": t,
        "s1": s1,
        "rows": rows,
        "d2": d2,
        "d2_expected": math.sqrt(n) * at,
    }


# ---------------------------------------------------------------------------
# report serialization

def _shallow_fields(obj) -> dict:
    """A dataclass as a dict without ``asdict``'s deep copy; callers copy
    the mutable fields they hand out."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def report_to_doc(report: Report) -> dict:
    """The schema-2 document: each record's scalars once, and its bound
    table as rows ``[id, value, branch, slack]``.  The slack is null only
    for an inapplicable bound, whose row adds its reason; a bound that read
    injected values adds them (:data:`specvar.bounds.INPUT_KEYS`)."""
    cfg = asdict(report.config)
    cfg["n_range"] = list(report.config.n_range)
    records = []
    for rec in report.records:
        d = _shallow_fields(rec)
        t = rec.results
        d["results"] = rows = []
        for bid, value, branch, reason in zip(t.ids, t.values, t.branches, t.reasons):
            row = [bid, value, branch, None if reason else value - rec.d2]
            if reason:
                row.append(reason)
            if bid in INPUT_KEYS:
                row.append({key: t.inputs[key] for key in INPUT_KEYS[bid]})
            rows.append(row)
        d["violations"] = list(rec.violations)
        records.append(d)
    return {"schema_version": 2, "config": cfg, "records": records,
            "summary": report.summary}


def report_from_doc(doc: dict) -> Report:
    """Inverse of :func:`report_to_doc`: the bound table is rebuilt from
    the rows, and each slack, ``value - d2``, is left to its reader."""
    version = doc.get("schema_version")
    if version != 2:
        raise ParseError(f"unknown report schema_version {version!r}; only 2 is read")
    cfg = dict(doc["config"])
    cfg["n_range"] = tuple(cfg["n_range"])
    config = SweepConfig(**cfg)
    records = []
    for d in doc["records"]:
        d = dict(d)
        rows = d["results"]
        reasons, inputs = [], {}
        for _, _, _, slack, *rest in rows:
            reasons.append(rest.pop(0) if slack is None else "")
            inputs.update(*rest)
        ids, values, branches = (tuple(row[i] for row in rows) for i in range(3))
        d["results"] = BoundTable(ids, values, branches, tuple(reasons), inputs)
        records.append(TrialRecord(**d))
    return Report(config=config, records=records, summary=doc["summary"])


def write_report(report: Report, path, format: str = "structured-text") -> None:
    """Write a report.

    ``structured-text`` is the lossless compact JSON form of
    :func:`report_to_doc` (``schema_version`` 2; read back with
    :func:`read_report`).  ``csv`` is the flat per-bound view with the fixed
    column order trial,bound_id,branch,value,d2,slack, preceded by a
    timestamp comment line that is excluded from reproducibility
    comparisons; it has one row per applicable bound of an ok trial, and
    one status row per failed trial (bound_id = status, branch = failure
    reason, the numbers empty).
    """
    if format == "structured-text":
        text = json.dumps(report_to_doc(report), allow_nan=False, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return
    if format != "csv":
        raise ConfigError(f"unknown report format '{format}'")
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generated {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in report.records:
            if rec.status != "ok":
                writer.writerow([rec.trial, rec.status, rec.failure_reason, "", "", ""])
            d2, t = repr(rec.d2), rec.results
            writer.writerows(
                [rec.trial, bid, branch, repr(value), d2, repr(value - rec.d2)]
                for bid, value, branch, reason in zip(t.ids, t.values, t.branches, t.reasons)
                if not reason
            )


def read_report(path) -> Report:
    """Read back a structured-text report written by :func:`write_report`
    (schema version 2); anything else raises ``ParseError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    try:
        return report_from_doc(doc)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"{path} is not a sweep report: {exc!r}") from exc
