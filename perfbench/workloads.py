"""The benchmark's workloads.

A workload is run in rounds.  Each round has inputs made from
(seed, round index) alone, a timed section in which the program does the
work, and an untimed correctness check of everything it returned.  Rounds
are short next to a run, and a run always finishes the round it started, so
every run measures the same mix of work.

- ``acceptance-grid``: the acceptance soundness grid (kappa in {1, 10, 100}
  x ||E||_F in {0.01, 0.5, 2}, mixed Jordan profile, n in 2..12, gaussian E,
  pessimistic s) through ``run_sweep``, each cell's report written as
  structured text and as CSV and the structured one read back.  This is
  what ``specvar sweep --out`` and the acceptance gate do; margins,
  generation and report I/O carry the time and ``s_number`` is never called.
- ``computed-s-sweep``: the same generator with ``s_mode="computed"`` on
  kappa = 10 x the three norms.  Here ``s_number`` dominates at the small n
  that sweeps use.  It has no normal (diagonalizable, kappa = 1) cell: on
  those inputs some trials fail through two defects of the program (see
  ``KNOWN_DEFECTS``), and a benchmark workload must be one on which no op
  fails.
- ``s-number-scaling``: direct ``s_number`` calls on matrices of order
  8, 12, 16 and 24 with known s (see ``cases.py``), the only place where
  its O(n^6) growth shows, including the degenerate ``diag(B, B)`` class.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import cases

GRID_KAPPAS = (1.0, 10.0, 100.0)
GRID_NORMS = (0.01, 0.5, 2.0)
GRID_TRIALS = 20      # per cell and round: 180 trials, ~1 s a round
COMPUTED_TRIALS = 10  # per cell and round: 30 trials, ~1 s a round

# the witness of s(M) must block-diagonalise M to this relative accuracy
WITNESS_TOL = 1e-6

# Sweep trials the program gets wrong, kept out of every workload and pinned
# by strict-xfail tests in test_perfbench.py: name -> (SweepConfig fields,
# trial index).  Normal A (diagonalizable, kappa = 1) switches on the
# normal-matrix bound family.
KNOWN_DEFECTS = {
    # Hoffman-Wielandt needs A + E normal too; normal_bounds applies it when
    # only A is.  n = 3, D2 = 0.50309 > ||E||_F = 0.5.
    "hw-applied-to-non-normal-a-plus-e": (
        dict(seed=2005103, block_profile="diagonalizable", target_kappa=1.0,
             real_eigenvalues=True, amount=0.5, s_mode="computed"), 2),
    # s(A + E) of a Hermitian matrix with distinct eigenvalues is n, but
    # s_number's reseeded draws disagree (s in [11, 12]) and the trial is
    # failed-infrastructure.  n = 12, E = 0.5 I.
    "s-tilde-ambiguous-on-hermitian": (
        dict(seed=152, block_profile="diagonalizable", target_kappa=1.0,
             real_eigenvalues=True, amount=0.5, s_mode="computed",
             perturbation="scalar"), 2),
}


@dataclass
class Outcome:
    """What a round's correctness check found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _sweep_seed(seed: int, round_index: int, cell: int) -> int:
    # distinct for every (seed, round, cell) while round < 10**4, cell < 100
    return seed * 1_000_000 + round_index * 100 + cell


class SweepWorkload:
    """Sweep cells through the real ``harness.run_sweep``; one op is one
    trial (``gen_instance`` + ``run_trial``)."""

    warmup = 1  # cells run untimed before the first round
    repeat = None  # all of round 0 is run again and must repeat its outputs

    def __init__(self, name: str, cells: list[dict], trials: int, write_reports: bool):
        self.name = name
        self.cells = cells
        self.trials = trials
        self.write_reports = write_reports

    def inputs(self, sv, seed: int, round_index: int) -> list:
        return [
            sv.SweepConfig(seed=_sweep_seed(seed, round_index, i), trials=self.trials, **cell)
            for i, cell in enumerate(self.cells)
        ]

    def ops(self, configs) -> int:
        return sum(c.trials for c in configs)

    def run(self, sv, configs, rec, workdir) -> list:
        harness = sv.harness
        outputs = []
        for i, config in enumerate(configs):
            report = harness.run_sweep(config)
            back = None
            if self.write_reports:
                jpath = os.path.join(workdir, f"cell{i}.json")
                cpath = os.path.join(workdir, f"cell{i}.csv")
                with rec.span("report.write_json"):
                    harness.write_report(report, jpath)
                with rec.span("report.write_csv"):
                    harness.write_report(report, cpath, format="csv")
                with rec.span("report.read"):
                    back = harness.read_report(jpath)
                rec.count("report.json_bytes", os.path.getsize(jpath))
            outputs.append((report, back))
        return outputs

    def check(self, sv, configs, outputs, outcome: Outcome) -> None:
        """A trial fails on a bound violation, an infrastructure failure or
        by missing from its report; every trial of a report that does not
        round-trip through ``read_report`` fails."""
        for config, (report, back) in zip(configs, outputs):
            outcome.attempted += config.trials
            bad = [r for r in report.records if r.status != "ok" or r.violations]
            failed = len(bad) + max(config.trials - len(report.records), 0)
            for r in bad[:3]:
                outcome.problems.append(
                    f"seed {config.seed} trial {r.trial}: {r.status} {r.failure_reason} "
                    f"violations={r.violations}")
            if failed > len(bad):
                outcome.problems.append(f"seed {config.seed}: trials missing from the report")
            if self.write_reports and (
                back.records != report.records
                or back.summary != report.summary
                or back.config != report.config
            ):
                failed = config.trials
                outcome.problems.append(f"seed {config.seed}: report does not round-trip")
            outcome.failed += failed

    def fingerprint(self, sv, outputs) -> str:
        """Hash of the records in their structured-text form, which, unlike
        the CSV, carries no timestamp."""
        h = hashlib.sha256()
        for report, _ in outputs:
            doc = sv.harness.report_to_doc(report)["records"]
            h.update(json.dumps(doc, sort_keys=True, allow_nan=False).encode())
        return h.hexdigest()


class SNumberWorkload:
    """Direct ``s_number`` calls on matrices with known s; one op is one
    call."""

    name = "s-number-scaling"
    warmup = 3  # the three n = 8 cases run untimed before the first round
    repeat = 12  # the n = 8 cases of round 0 are run again and must repeat

    def inputs(self, sv, seed: int, round_index: int) -> list:
        return cases.round_cases(seed, round_index)

    def ops(self, inputs) -> int:
        return len(inputs)

    def run(self, sv, inputs, rec, workdir) -> list:
        blocks = sv.blocks
        outputs = []
        for case in inputs:
            rec.op_begin()
            outputs.append(blocks.s_number(case.matrix))
            rec.op_end()
        return outputs

    def check(self, sv, inputs, outputs, outcome: Outcome) -> None:
        for case, dec in zip(inputs, outputs):
            outcome.attempted += 1
            n = case.matrix.shape[0]
            coupling, unitarity = cases.witness_residual(case.matrix, dec.u, dec.block_sizes)
            if (
                dec.s != case.s
                or sorted(dec.block_sizes) != sorted(case.block_sizes)
                or coupling > WITNESS_TOL
                or unitarity > WITNESS_TOL
            ):
                outcome.failed += 1
                outcome.problems.append(
                    f"{case.kind} n={n}: s={dec.s} sizes={dec.block_sizes}, expected "
                    f"s={case.s} sizes={case.block_sizes}; coupling {coupling:.1e}, "
                    f"unitarity {unitarity:.1e}"
                )

    def fingerprint(self, sv, outputs) -> str:
        text = json.dumps([[d.s, list(d.block_sizes)] for d in outputs])
        return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "acceptance-grid",
            [
                dict(target_kappa=k, amount=a, n_range=(2, 12), block_profile="mixed",
                     perturbation="gaussian", s_mode="pessimistic")
                for k in GRID_KAPPAS
                for a in GRID_NORMS
            ],
            GRID_TRIALS,
            write_reports=True,
        ),
        SweepWorkload(
            "computed-s-sweep",
            [
                dict(target_kappa=10.0, amount=a, n_range=(2, 12), block_profile="mixed",
                     perturbation="gaussian", s_mode="computed")
                for a in GRID_NORMS
            ],
            COMPUTED_TRIALS,
            write_reports=False,
        ),
        SNumberWorkload(),
    )
}
