"""End-to-end verification harness.

Generates seeded Jordan-structured instances, evaluates every applicable
bound against the true optimal matching distance D2, checks the envelope
margins on an eps grid, and aggregates everything into a reproducible
report (structured JSON, or CSV with the fixed column order
trial,bound_id,branch,value,d2,slack).

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
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .blocks import s_number
from .bounds import (
    BoundId,
    BoundResult,
    baseline_bounds,
    is_violation,
    new_bounds_complex,
    new_bounds_real,
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
    eq_norm_majorant,
    jordan_matrix,
    make_instance,
    make_jordan_spec,
    scalar_shift,
    scaled_similarity,
)
from .spectrum import Spectrum, eigenvalues, optimal_match

BLOCK_PROFILES = ("diagonalizable", "single-jordan", "mixed", "user-file")
PERTURBATIONS = ("gaussian", "scalar", "rank1")
S_MODES = ("computed", "pessimistic")

CSV_COLUMNS = ("trial", "bound_id", "branch", "value", "d2", "slack")


def default_tolerances() -> dict[str, float]:
    return {
        "slack": 1e-7,       # D2 <= value + slack*(1+value)
        "envelope": 1e-8,    # margins >= -envelope*phi(eps)
        "s_tol": 1e-8,       # commutant null-space cutoff
        "cluster_gap": 1e-6,  # eigenvalue clustering, relative to ||H||_2
        "block_tol": 1e-8,   # off-block coupling, relative to ||M||_F
    }


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
    if config.block_profile == "user-file" and not config.jordan_file:
        raise ConfigError("user-file profile needs jordan_file")


def _random_lambda(rng, real: bool) -> complex:
    re = rng.uniform(-2.0, 2.0)
    im = 0.0 if real else rng.uniform(-2.0, 2.0)
    return complex(re, im)


def _draw_blocks(config: SweepConfig, n: int, rng) -> list[tuple[complex, int]]:
    real = config.real_eigenvalues
    if config.block_profile == "diagonalizable":
        return [(_random_lambda(rng, real), 1) for _ in range(n)]
    if config.block_profile == "single-jordan":
        return [(_random_lambda(rng, real), n)]
    sizes = []
    remaining = n
    while remaining > 0:
        size = int(rng.integers(1, min(3, remaining) + 1))
        sizes.append(size)
        remaining -= size
    return [(_random_lambda(rng, real), size) for size in sizes]


def gen_instance(config: SweepConfig, trial_index: int) -> PerturbationInstance:
    """Deterministic in (config.seed, trial_index); same pair, bit-identical
    instance."""
    validate_config(config)
    rng = np.random.default_rng([config.seed, trial_index])
    if config.block_profile == "user-file":
        spec = read_jordan_spec(config.jordan_file)
        n = spec.n
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
    """Spectrum of A + E: exact shift for a bitwise-scalar E (every
    eigenvalue moves by exactly t, no eigensolver involved), dense
    eigensolve otherwise."""
    t = scalar_shift(inst.e)
    if t is not None:
        return Spectrum(inst.spec.eigenvalues + t)
    return eigenvalues(inst.a + inst.e)


def s_values(
    inst: PerturbationInstance,
    mode: str = "pessimistic",
    tol: float = 1e-8,
    seed: int = 0,
    cluster_gap: float = 1e-6,
    block_tol: float = 1e-8,
    with_s_tilde: bool = False,
) -> dict[str, int]:
    """The s-dependent factors the bounds need, as n+1-s(.) values.

    Pessimistic mode assumes s(.) = 1 everywhere (always valid), which
    keeps soundness sweeps independent of the tolerance-laden s
    computation.  Computed mode evaluates s(T^-1 Q^-1 (A+E) Q T) once for
    each s-key the branch plan (:func:`specvar.bounds.plan`) names, at that
    step's eps; the rest, and the eps -> 0 limits, stay at the pessimistic
    n.  ``s_tilde`` is s(A+E) itself, which only the normal-A bound family
    reads: it is computed with ``with_s_tilde=True`` and stays at the
    pessimistic 1 otherwise.
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

    g = jordan_matrix(inst.spec) + inst.e_q  # Q^-1 (A+E) Q
    planned = {step.s_key: step.eps for step in plan(inst) if step.eps > 0.0}
    for key, eps in planned.items():
        out[key] = n + 1 - s_of(scaled_similarity(inst.spec, g, eps))
    if with_s_tilde:
        out["s_tilde"] = s_of(inst.a + inst.e)
    return out


def eps_grid(points: int = 16) -> np.ndarray:
    """Uniform grid (1/points, 2/points, ..., 1] used for margin checks."""
    return np.arange(1, points + 1, dtype=np.float64) / points


@dataclass
class TrialRecord:
    """Everything recorded for one sweep trial."""

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
    eq_majorant: float
    d2: float
    d_inf: float
    results: list[BoundResult]
    slacks: dict[str, float]
    violations: list[str]
    envelope_ratio_min: float
    scaled_norm_ratio_min: float
    cross_term_ratio_min: float
    superdiag_error_ratio_max: float


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
) -> list[BoundResult]:
    """All bound families applicable to this instance, with s-values
    injected."""
    results = baseline_bounds(inst, sv["s1"], sv["s2"])
    results += new_bounds_complex(inst, sv["s1"], sv["s2"], sv["s3"], sv["s4"])
    results += new_bounds_real(inst)
    if include_normal_family:
        results += normal_bounds(
            inst.e, inst.a + inst.e, hermitian_a=hermitian_a, s_tilde=sv["s_tilde"]
        )
    return results


def _margin_ratios(inst: PerturbationInstance, grid) -> tuple[float, float, float, float]:
    """Worst margin / phi(eps) over the eps grid (minima of the envelope,
    scaled-norm and cross-term margins, maximum superdiagonal error) from
    one :func:`specvar.jordan.envelope_margins` pass, which holds a few
    (len(grid), n, n) arrays: 37 KB each for 16 points at n = 12.  Points
    with phi = 0 are skipped: phi = 0 forces E = 0, where every margin is
    exactly zero."""
    margins = envelope_margins(inst, grid)
    live = margins["phi"] > 0.0
    if not live.any():
        return 0.0, 0.0, 0.0, 0.0
    env, norm, cross, sup = (
        margins[key][live] / margins["phi"][live]
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
    base = dict(
        trial=trial,
        digest=instance_digest(inst),
        n=spec.n,
        p=spec.p,
        m=spec.m,
        kappa_q=spec.kappa_q,
        norm_e=inst.norm_e,
        norm_eq=inst.norm_eq,
        delta_eq=inst.delta_eq,
        trace_abs=abs(inst.trace_e),
        eq_majorant=eq_norm_majorant(inst),
    )
    try:
        match = optimal_match(Spectrum(spec.eigenvalues), perturbed_spectrum(inst))
        sv = s_values(
            inst,
            mode=config.s_mode,
            tol=config.tolerances["s_tol"],
            seed=config.seed,
            cluster_gap=config.tolerances["cluster_gap"],
            block_tol=config.tolerances["block_tol"],
            with_s_tilde=normal,
        )
    except (EigensolverError, AmbiguityError, SizeLimitError) as exc:
        return TrialRecord(
            **base,
            status="failed-infrastructure",
            failure_reason=f"{type(exc).__name__}: {exc}",
            d2=0.0,
            d_inf=0.0,
            results=[],
            slacks={},
            violations=[],
            envelope_ratio_min=0.0,
            scaled_norm_ratio_min=0.0,
            cross_term_ratio_min=0.0,
            superdiag_error_ratio_max=0.0,
        )
    results = evaluate_bounds(
        inst,
        sv,
        include_normal_family=normal,
        hermitian_a=normal and config.real_eigenvalues,
    )
    slacks = verify_instance(inst, results, match.d2)
    slack_tol = config.tolerances["slack"]
    by_id = {r.id: r for r in results}
    violations = [
        bid.name for bid, s in slacks if is_violation(by_id[bid].value, s, slack_tol)
    ]
    env_min, sn_min, ct_min, sd_max = _margin_ratios(inst, eps_grid())
    return TrialRecord(
        **base,
        status="ok",
        failure_reason="",
        d2=match.d2,
        d_inf=match.d_inf,
        results=results,
        slacks={bid.name: s for bid, s in slacks},
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


def _value_of(record: TrialRecord, bid: BoundId) -> float | None:
    for r in record.results:
        if r.id is bid and r.applicable:
            return r.value
    return None


def summarize(config: SweepConfig, records: list[TrialRecord]) -> dict:
    ok = [r for r in records if r.status == "ok"]
    min_slack: dict[str, float] = {}
    for rec in ok:
        for name, s in rec.slacks.items():
            min_slack[name] = min(min_slack.get(name, math.inf), s)
    sharp_song = math.inf
    sharp_lichen = math.inf
    for rec in ok:
        song, up11 = _value_of(rec, BoundId.SONG), _value_of(rec, BoundId.UP1_1)
        lichen, up21 = _value_of(rec, BoundId.LI_CHEN), _value_of(rec, BoundId.UP2_1)
        if song is not None and up11 is not None:
            sharp_song = min(sharp_song, song - up11)
        if lichen is not None and up21 is not None:
            sharp_lichen = min(sharp_lichen, lichen - up21)
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
    results = {
        r.id: r
        for r in baseline_bounds(inst, sv["s1"], sv["s2"])
        + new_bounds_complex(inst, sv["s1"], sv["s2"], sv["s3"], sv["s4"])
    }
    at = abs(t)
    closed = {
        BoundId.SONG: (math.sqrt(n - p) + 1.0)
        * n ** (0.5 + 0.5 / m) * at ** (1.0 / m),
        BoundId.LI_CHEN: math.sqrt(
            s1 * (n - p + 1.0 + 2.0 * at * math.sqrt(n * n - n * p))
        ) * n ** (0.5 / m) * at ** (1.0 / m),
        BoundId.UP1_1: math.sqrt(
            (n - p) * n ** (1.0 + 1.0 / m) * at ** (2.0 / m) + n * t * t
        ),
        BoundId.UP2_1: math.sqrt(
            s1 * (n - p) * n ** (1.0 / m) * at ** (2.0 / m) + n * t * t
        ),
        BoundId.UP1_2: math.sqrt(n) * at,
        BoundId.UP1_3: math.sqrt(n) * at,
        BoundId.UP2_2: math.sqrt(n) * at,
        BoundId.UP2_3: math.sqrt(n) * at,
    }
    rows = []
    for bid, cf in closed.items():
        numeric = results[bid].value
        rel = abs(numeric - cf) / max(abs(cf), 1e-300)
        rows.append(
            {
                "bound_id": bid.name,
                "branch": results[bid].branch,
                "closed_form": cf,
                "numeric": numeric,
                "rel_err": rel,
            }
        )
    shifted = Spectrum(spec.eigenvalues + t)
    d2 = optimal_match(Spectrum(spec.eigenvalues), shifted).d2
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


def _result_to_doc(r: BoundResult) -> dict:
    d = _shallow_fields(r)
    d["id"] = r.id.name
    d["inputs"] = dict(r.inputs)
    return d


def _result_from_doc(d: dict) -> BoundResult:
    return BoundResult(
        id=BoundId[d["id"]],
        value=d["value"],
        branch=d["branch"],
        applicable=d["applicable"],
        reason=d["reason"],
        inputs=d["inputs"],
    )


def report_to_doc(report: Report) -> dict:
    cfg = asdict(report.config)
    cfg["n_range"] = list(report.config.n_range)
    records = []
    for rec in report.records:
        d = _shallow_fields(rec)
        d["results"] = [_result_to_doc(r) for r in rec.results]
        d["slacks"] = dict(rec.slacks)
        d["violations"] = list(rec.violations)
        records.append(d)
    return {"config": cfg, "records": records, "summary": report.summary}


def report_from_doc(doc: dict) -> Report:
    cfg = dict(doc["config"])
    cfg["n_range"] = tuple(cfg["n_range"])
    cfg.pop("eps_grid_points", None)  # retired field: the grid is fixed
    config = SweepConfig(**cfg)
    records = []
    for d in doc["records"]:
        d = dict(d)
        d["results"] = [_result_from_doc(r) for r in d["results"]]
        records.append(TrialRecord(**d))
    return Report(config=config, records=records, summary=doc["summary"])


def write_report(report: Report, path, format: str = "structured-text") -> None:
    """Write a report.

    ``structured-text`` is the lossless JSON form (read back with
    :func:`read_report`); ``csv`` is the flat per-bound view with the fixed
    column order trial,bound_id,branch,value,d2,slack, preceded by a
    timestamp comment line that is excluded from reproducibility
    comparisons.
    """
    if format == "structured-text":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_to_doc(report), fh, allow_nan=False, indent=1)
            fh.write(os.linesep)
        return
    if format != "csv":
        raise ConfigError(f"unknown report format '{format}'")
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generated {stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in report.records:
            for r in rec.results:
                if not r.applicable:
                    continue
                writer.writerow(
                    [
                        rec.trial,
                        r.id.name,
                        r.branch,
                        repr(r.value),
                        repr(rec.d2),
                        repr(rec.slacks[r.id.name]),
                    ]
                )


def read_report(path) -> Report:
    """Read back a structured-text report written by :func:`write_report`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return report_from_doc(doc)
