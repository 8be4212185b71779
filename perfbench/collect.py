"""Run the benchmark over several seeds and workloads and keep the results.

    python3 perfbench/collect.py --out results.jsonl                # 10 seeds, all workloads
    python3 perfbench/collect.py --workloads s-number-scaling --seeds 1-5 --out r.jsonl
    python3 perfbench/collect.py --root ../parent --out parent.jsonl --root . --out change.jsonl

Each run is ``run.py`` in its own process, from the root of the checkout
given by ``--root`` (default: this one), for the run length that
``BENCHMARK.json`` fixes.  With several ``--root``/``--out`` pairs the runs
alternate between the checkouts and the order flips from seed to seed, as
a parent/change comparison needs.  One JSON line per run is appended to the
matching ``--out`` file: workload, seed, trace flag, result, provenance,
output fingerprint and the failed ops of each timed round.  At the end the spread of each metric is printed as
(q3 - q1) / median next to a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_TIMEOUT = 600


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,7,9' -> list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_one(root: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] in ("python3", "python") else cmd[0]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {root}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record = {"workload": workload, "seed": seed, "trace": trace,
              "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        if line.startswith("provenance: "):
            record["provenance"] = json.loads(line[len("provenance: "):])
        elif line.startswith("fingerprint: "):
            record["fingerprint"] = line[len("fingerprint: "):]
        elif line.startswith("round_rates: "):
            record["round_rates"] = [float(x) for x in line[len("round_rates: "):].split(",")]
        elif line.startswith("round_failed: "):
            record["round_failed"] = [int(x) for x in line[len("round_failed: "):].split(",")]
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_table(records: list[dict]) -> list[str]:
    """One line per (workload, metric): median, quartiles, spread vs bound/3."""
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    lines = []
    for workload in sorted({r["workload"] for r in records}):
        rows = [r for r in records if r["workload"] == workload]
        incorrect = sum(1 for r in rows if not r["result"]["correct"])
        failed = sum(r["result"]["failed"] for r in rows)
        lines.append(f"{workload}: {len(rows)} runs, {incorrect} not correct, failed ops: {failed}")
        for name in rows[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                "steady" if spread < bound / 3 else "UNSTEADY")
            limit = "" if bound is None else f" (bound/3 {bound / 3:.4f})"
            lines.append(f"  {name:26s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                         f"  spread {spread:.4f}{limit} {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or 'all' (default)")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,7,9' (default 1-10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", type=Path,
                        help="checkout to run in (repeatable; default: this one)")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="JSON-lines file per --root (repeatable, same order)")
    args = parser.parse_args(argv)
    roots = args.root or [HERE.parent]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")
    names = [w["name"] for w in BENCHMARK["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    collected: dict[Path, list[dict]] = {out: [] for out in args.out}
    for workload in names:
        for i, seed in enumerate(seeds):
            order = list(zip(roots, args.out))
            if i % 2:
                order.reverse()
            for root, out in order:
                record = run_one(root.resolve(), workload, seed, args.trace)
                collected[out].append(record)
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                metrics = record["result"]["metrics"]
                print(f"{out.name} {workload} seed {seed}: correct={record['result']['correct']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in metrics.items()),
                      flush=True)
    for out, records in collected.items():
        print(f"== {out}")
        print("\n".join(spread_table(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
