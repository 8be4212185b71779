"""Seeded verification sweeps and reproducible reports.

A sweep draws Jordan-structured instances deterministically from
(seed, trial index), evaluates every applicable bound against D2, checks
the envelope margins on an eps grid, and aggregates violation counts,
minimal slacks and sharpness statistics.  Reports round-trip losslessly
through JSON; the CSV view is byte-identical across runs modulo its
timestamp line.

Run:  python3 demos/06_sweeps_and_reports.py
"""

import json
import pathlib
import tempfile

import specvar as sv

config = sv.SweepConfig(
    seed=7,
    trials=40,
    n_range=(2, 10),
    block_profile="mixed",
    perturbation="gaussian",
    amount=0.5,
    target_kappa=25.0,
)
report = sv.run_sweep(config)

print("== sweep summary ==")
print(json.dumps(report.summary, indent=1, default=str))

print()
print("== one record in detail ==")
rec = report.records[0]
print(f"trial {rec.trial} (digest {rec.digest}): n={rec.n}, p={rec.p}, m={rec.m}")
print(f"D2 = {rec.d2:.6f}, D_inf = {rec.d_inf:.6f}, "
      f"min envelope margin ratio = {rec.envelope_ratio_min:.2e}")
t = rec.results  # the bound table: each applicable bound's slack is value - D2
for name, value, reason in sorted(zip(t.ids, t.values, t.reasons)):
    if not reason:
        print(f"  {name:10s} slack {value - rec.d2:12.6f}")

print()
print("== reports round-trip and reproduce ==")
with tempfile.TemporaryDirectory() as name:
    tmp = pathlib.Path(name)
    sv.write_report(report, tmp / "report.json", format="structured-text")
    sv.write_report(report, tmp / "report.csv", format="csv")
    back = sv.read_report(tmp / "report.json")
    csv_lines = (tmp / "report.csv").read_text().splitlines()
print("JSON round-trip preserves every record:", back == report)

again = sv.run_sweep(config)
print("re-running the identical config reproduces the report:", again == report)

print("CSV header:", csv_lines[1])
print("first data row:", csv_lines[2])

print()
print("== scalar perturbations make the bounds tight ==")
tight = sv.run_sweep(sv.SweepConfig(seed=11, trials=10, n_range=(3, 6),
                                    perturbation="scalar", amount=0.05,
                                    target_kappa=5.0))
print(f"min UP1_2 slack over a scalar sweep: "
      f"{tight.summary['min_slack']['UP1_2']:.2e}  (the bound is attained)")
print(f"violations: {tight.summary['violation_count']}")
