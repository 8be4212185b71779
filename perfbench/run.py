"""specvar benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload acceptance-grid --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports specvar from ``src/``.
With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs the same rounds once untraced and once traced
and reports the per-layer metrics.  Every output of the program is checked
(see ``workloads.py``).  Human-readable lines come first; the last line of
standard output is the JSON result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 whenever a result is printed, and 2 (with no result) when
the program cannot be imported or run at all.
"""

from __future__ import annotations

import os

# One BLAS thread: the process then uses one core of the two this
# benchmark is sized for, and runs are steadier than with two spinning
# BLAS threads.  Set before numpy is first imported, in probes as well.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 7        # fresh processes timed per run; setup_s is their median
WARMUP_ROUND = 9999     # inputs index of the untimed warm-up, never a timed round

# per-layer metric -> (kind, span names); times and calls are per op
LAYER_SPANS = {
    "generate.ms": ("ms", ("generate.gen_instance", "generate.random_conditioned",
                           "generate.complex_gaussian", "generate.rank_one")),
    "jordan.instance_ms": ("ms", ("jordan.make_jordan_spec", "jordan.make_instance")),
    "jordan.majorant_ms": ("ms", ("jordan.eq_norm_majorant",)),
    "jordan.margins_ms": ("ms", ("jordan.margin_ratios", "jordan.phi",
                                 "jordan.envelope_margin", "jordan.scaling_inequalities")),
    "jordan.margin_calls": ("calls", ("jordan.phi", "jordan.envelope_margin",
                                      "jordan.scaling_inequalities")),
    "linalg.kappa2_ms": ("ms", ("linalg.kappa2",)),
    "linalg.kappa2_calls": ("calls", ("linalg.kappa2",)),
    "spectrum.eig_ms": ("ms", ("spectrum.perturbed_spectrum",)),
    "spectrum.match_ms": ("ms", ("spectrum.optimal_match",)),
    "blocks.s_number_ms": ("ms", ("blocks.s_number", "blocks.commutant_basis")),
    "blocks.commutant_ms": ("ms", ("blocks.commutant_basis",)),
    "blocks.s_number_calls": ("calls", ("blocks.s_number",)),
    "bounds.ms": ("ms", ("bounds.evaluate_bounds", "bounds.verify_instance")),
    "report.write_json_ms": ("ms", ("report.write_json",)),
    "report.write_csv_ms": ("ms", ("report.write_csv",)),
    "report.read_ms": ("ms", ("report.read",)),
    "harness.self_ms": ("ms", ("harness.run_sweep", "harness.run_trial", "harness.s_values")),
    "harness.summarize_ms": ("ms", ("harness.summarize",)),
}
UNITS = {"ms": "ms/op", "calls": "1/op"}


class BenchError(Exception):
    """The benchmark cannot run at all; no result is printed."""


def import_program():
    """Import specvar from the checkout's ``src/`` (never an installed copy)."""
    src = ROOT / "src"
    if not (src / "specvar" / "__init__.py").is_file():
        raise BenchError(f"no specvar sources under {src}")
    sys.path.insert(0, str(src))
    import specvar
    import specvar.blocks
    import specvar.harness
    import specvar.jordan

    if Path(specvar.__file__).resolve().parent != (src / "specvar").resolve():
        raise BenchError(f"imported specvar from {specvar.__file__}, not {src}")
    return specvar


def modules_of(sv) -> dict:
    return {"harness": sv.harness, "jordan": sv.jordan, "blocks": sv.blocks}


def provenance() -> dict:
    import numpy as np
    import scipy

    info = {
        "git_sha": None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": None,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(np, scipy),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        if out.returncode == 0:
            info["git_sha"] = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


def blas_threads(np, scipy) -> dict:
    """Thread count each bundled OpenBLAS reports (already loaded by the
    imports, so loading it again only returns its handle)."""
    import ctypes

    found = {}
    for mod in (np, scipy):
        libs = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found


def probe_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh process to its first op being ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run_rounds(sv, work, seed, rec, workdir, outcome, seconds=None, rounds=None):
    """Rounds 0, 1, ... until ``seconds`` of wall time have passed (the round
    in progress is finished) or ``rounds`` rounds are done, at least one.
    Returns the fingerprint of round 0's outputs and the failed ops of each
    round (the list's length is the round count)."""
    count, fingerprint, round_failed = 0, None, []
    t0 = time.perf_counter()
    while count == 0 or (
        count < rounds if rounds is not None else time.perf_counter() - t0 < seconds
    ):
        failed0 = outcome.failed
        inputs = work.inputs(sv, seed, count)
        outputs = None
        with rec.round():
            try:
                outputs = work.run(sv, inputs, rec, workdir)
            except Exception:  # keep measuring; every op of the round fails
                traceback.print_exc()
        if outputs is None:
            outcome.attempted += work.ops(inputs)
            outcome.failed += work.ops(inputs)
            outcome.problems.append(f"round {count} raised")
        else:
            work.check(sv, inputs, outputs, outcome)
            if count == 0:
                fingerprint = work.fingerprint(sv, outputs[: work.repeat])
        round_failed.append(outcome.failed - failed0)
        count += 1
    return fingerprint, round_failed


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method), or the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rec, setup: list[float]) -> dict:
    if not rec.latencies:
        raise BenchError("no op completed")
    lat_ms = [x * 1e3 for x in rec.latencies]
    return {
        "ops_per_s": (len(rec.latencies) / rec.wall, "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p95": (quantile(lat_ms, 95), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(rec, untraced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics from a traced pass, and its layer -> self-time
    table with the traced wall time under ``wall``."""
    ops = len(rec.latencies)
    if not ops:
        raise BenchError("no op completed")
    names = rec.by_name()
    out = {}
    for metric, (kind, spans) in LAYER_SPANS.items():
        calls = sum(names[s][0] for s in spans if s in names)
        secs = sum(names[s][1] for s in spans if s in names)
        out[metric] = (secs * 1e3 / ops if kind == "ms" else calls / ops, UNITS[kind])
    layers = rec.by_layer()
    traced_wall = sum(e - s for n, s, e in zip(rec.names, rec.start, rec.end)
                      if n == tracing.ROUND)
    out["report.json_bytes"] = (rec.counters.get("report.json_bytes", 0.0) / ops, "B/op")
    out["trace.unattributed_share"] = (layers.get("unattributed", 0.0) / traced_wall, "ratio")
    out["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return out, dict(layers, wall=traced_wall)


def measure(sv, work, seed: int, seconds: float, trace: bool, workdir: Path):
    """Warm up, run the timed rounds (and, when tracing, the same rounds
    again with spans on), then run round 0 (or its first ``work.repeat``
    inputs) again on the unwrapped program: its outputs must repeat.
    Returns (recorder, untraced wall, outcome, fingerprint, failed ops of
    each timed round)."""
    outcome = workloads.Outcome()
    warm = work.inputs(sv, seed, WARMUP_ROUND)[: work.warmup]
    work.check(sv, warm, work.run(sv, warm, tracing.Recorder(spans=False), workdir), outcome)

    mods = modules_of(sv)
    rec = tracing.Recorder(spans=False)
    with rec.installed(mods):
        fingerprint, round_failed = run_rounds(
            sv, work, seed, rec, workdir, outcome, seconds=seconds / 2 if trace else seconds)
    untraced_wall = rec.wall
    if trace:
        rec = tracing.Recorder(spans=True)
        with rec.installed(mods):
            run_rounds(sv, work, seed, rec, workdir, outcome, rounds=len(round_failed))

    first = work.inputs(sv, seed, 0)[: work.repeat]
    again = work.run(sv, first, tracing.Recorder(spans=False), workdir)
    if work.fingerprint(sv, again) != fingerprint:
        outcome.problems.append("round 0 gave different outputs when run again")
    return rec, untraced_wall, outcome, fingerprint, round_failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    work = workloads.WORKLOADS[args.workload]
    try:
        sv = import_program()
        if args.probe:
            work.inputs(sv, args.seed, 0)
            print("ready", flush=True)
            return 0
        prov = provenance()
        setup = [] if args.trace else probe_setup(args.workload, args.seed)
        OUT_DIR.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
        try:
            rec, untraced_wall, outcome, fingerprint, round_failed = measure(
                sv, work, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if args.trace:
            metrics, layers = per_layer(rec, untraced_wall)
        else:
            metrics = end_to_end(rec, setup)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(round_failed)} rounds, "
          f"{len(rec.latencies)} ops in {rec.wall:.3f} s timed")
    if args.trace:
        total = sum(v for k, v in layers.items() if k != "wall")
        print("layer self time (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in sorted(layers.items())) + f"; sum {total:.4f}")
        if abs(total - layers["wall"]) > 1e-9 * layers["wall"] + 1e-9:
            outcome.problems.append("layer self times do not add up to the traced wall time")
        if rec.missing:
            print(f"trace targets the program no longer has: {', '.join(rec.missing)}")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        rec.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                              "provenance": prov})
        print(f"spans: {len(rec.start)} written to {trace_path.relative_to(ROOT)}")
    else:
        print(f"latency samples: {len(rec.latencies)}; setup probes: "
              + ", ".join(f"{t:.3f}" for t in setup) + " s")
        print("round_rates: " + ",".join(f"{n / t:.3f}" for n, t in rec.rounds))
    print("round_failed: " + ",".join(str(n) for n in round_failed))
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:14.6f} {unit}")
    share = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_share: {outcome.failed}/{outcome.attempted} = {share:.6f}")
    print(f"fingerprint: {fingerprint}")
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
