"""Compare two result sets of the benchmark: parent against change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files come from ``collect.py`` (ideally one call with two
``--root``/``--out`` pairs, so runs alternate).  For every workload row and
every end-to-end metric it prints each side's median and quartiles, the
share of seed-paired runs the change wins, and two verdicts:

- ``gain`` / ``loss`` / ``unresolved``: a side is better only when it wins
  at least 9 of 10 pairs (ties count for neither) and the medians differ by
  more than the parent's interquartile range; otherwise unresolved.  A gain
  does not count when the change fails more ops than the parent in the
  rounds both ran (a faster run reaches more rounds, whose inputs the
  slower one never saw), or has more runs that are not correct for another
  reason (a round-0 repeat or layer-sum mismatch, a failed warm-up op).
- the bound check: ``within`` when the change's median is no worse than the
  parent's by more than the bound ``BENCHMARK.json`` fixes, ``REGRESSION``
  when it is, and ``spread>bound`` when the parent's own spread exceeds the
  bound and the change does not beat every parent run.  ``setup_s`` is
  judged by its median alone, as its spread has no bound.

It also reports whether the two sides produced identical outputs (the
round-0 fingerprint of each seed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from collect import BENCHMARK, quartiles

WIN_SHARE = 0.9


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            higher_better: bool, bound: float | None, extra_failures: bool,
            spread_bounded: bool = True) -> dict:
    """Verdicts for one metric; ``pairs`` are (parent, change) values of
    runs with the same seed."""
    sign = 1.0 if higher_better else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gap = sign * (c_med - p_med)
    outcome = "unresolved"
    if pairs and abs(gap) > iqr:
        if gap > 0 and wins >= WIN_SHARE * len(pairs) and not extra_failures:
            outcome = "gain"
        elif gap < 0 and losses >= WIN_SHARE * len(pairs):
            outcome = "loss"
    check = ""
    if bound is not None:
        if spread_bounded and iqr / p_med > bound and not (
            min(sign * c for c in change) > max(sign * p for p in parent)
        ):
            check = "spread>bound"
        elif -gap > bound * abs(p_med):
            check = "REGRESSION"
        else:
            check = "within"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": len(pairs), "verdict": outcome, "bound_check": check}


def shared_round_failures(parent: dict, change: dict) -> tuple[int, int]:
    """Failed ops of two runs of one seed, over the timed rounds both ran."""
    k = min(len(parent["round_failed"]), len(change["round_failed"]))
    return sum(parent["round_failed"][:k]), sum(change["round_failed"][:k])


def other_flaw(record: dict) -> bool:
    """Not correct for a reason other than failed ops in its timed rounds."""
    result = record["result"]
    return not result["correct"] and (
        result["failed"] == 0 or result["failed"] != sum(record["round_failed"]))


def compare(parent_records: list[dict], change_records: list[dict]) -> list[str]:
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    lines = []
    workloads = sorted({r["workload"] for r in parent_records}
                       & {r["workload"] for r in change_records})
    for workload in workloads:
        par = {r["seed"]: r for r in parent_records if r["workload"] == workload}
        chg = {r["seed"]: r for r in change_records if r["workload"] == workload}
        shared = sorted(set(par) & set(chg))
        failures = [shared_round_failures(par[s], chg[s]) for s in shared]
        p_failed, c_failed = sum(p for p, _ in failures), sum(c for _, c in failures)
        p_wrong = sum(1 for s in shared if not par[s]["result"]["correct"])
        c_wrong = sum(1 for s in shared if not chg[s]["result"]["correct"])
        p_flaw = sum(1 for s in shared if other_flaw(par[s]))
        c_flaw = sum(1 for s in shared if other_flaw(chg[s]))
        same = sum(1 for s in shared if par[s].get("fingerprint") == chg[s].get("fingerprint"))
        lines.append(f"{workload}: {len(par)} parent runs, {len(chg)} change runs, "
                     f"failed ops in shared rounds {p_failed} -> {c_failed}, "
                     f"runs not correct {p_wrong} -> {c_wrong} "
                     f"(for other reasons {p_flaw} -> {c_flaw}), "
                     f"identical outputs on {same}/{len(shared)} seeds")
        for name in next(iter(par.values()))["result"]["metrics"]:
            spec = metrics.get(name, {"better": "lower"})
            p_val = {s: r["result"]["metrics"][name]["value"] for s, r in par.items()}
            c_val = {s: r["result"]["metrics"][name]["value"] for s, r in chg.items()}
            v = verdict(list(p_val.values()), list(c_val.values()),
                        [(p_val[s], c_val[s]) for s in shared],
                        spec["better"] == "higher", spec.get("bound"),
                        c_failed > p_failed or c_flaw > p_flaw,
                        spread_bounded=name != "setup_s")
            (pq1, pm, pq3), (cq1, cm, cq3) = v["parent"], v["change"]
            delta = (cm - pm) / pm * 100 if pm else float("nan")
            lines.append(
                f"  {name:26s} parent {pm:11.5g} [{pq1:.5g}, {pq3:.5g}]  "
                f"change {cm:11.5g} [{cq1:.5g}, {cq3:.5g}]  {delta:+7.2f}%  "
                f"wins {v['wins']}/{v['pairs']}  {v['verdict']:10s} {v['bound_check']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    print("\n".join(compare(load(args.parent), load(args.change))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
