"""Two sha256 digests over the reports of a fixed 328-sweep grid, then
one per report field.

    python3 tools/report_digest.py

The grid is every combination of the three generated block profiles
(diagonalizable, single-jordan, mixed), kappa(Q) in {1, 10, 1e4},
||E|| in {0.01, 0.5, 2}, the three perturbations, both s-modes and
real/complex spectra, each sweep with seed 3 and 6 trials at n in 2..12.
Four computed-s sweeps follow, the only ones that reach the commutant
solve of ``s_number``: the mixed profile with real spectra, kappa(Q) in
{1, 10}, gaussian and rank-1 E at ||E|| = 1e-18, seed 3 and 6 trials at
n in 16..40.
Each sweep goes through ``write_report`` twice: as the structured-text
JSON document and as the CSV, whose timestamp line is dropped.  The full
digest hashes both, sweep by sweep, so two checkouts that print the same
full digest write byte-identical reports on the whole grid.  The stable
digest hashes, sweep by sweep, the CSV body followed by the summary as
``json.dumps(summary, sort_keys=True)``: it holds across a change of the
JSON layout, so it compares checkouts on either side of a schema bump.

After the two digests it prints one per ``TrialRecord`` field
(``record.<name>``, over every record of the grid, each value as the JSON
report writes it), one per summary key (``summary.<key>``) and one per
report config field (``config.<name>``).  Diffing that output between two
checkouts names the fields a change moved, the config layout's included.

It imports ``specvar`` from the ``src/`` of the checkout it lives in, so a
copy of this script run from another checkout digests that checkout.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import specvar as sv  # noqa: E402

PROFILES = ("diagonalizable", "single-jordan", "mixed")
KAPPAS = (1.0, 10.0, 1e4)
AMOUNTS = (0.01, 0.5, 2.0)
PERTURBATIONS = ("gaussian", "scalar", "rank1")
S_MODES = ("computed", "pessimistic")
REAL = (False, True)


def grid():
    for profile, kappa, amount, perturbation, s_mode, real in itertools.product(
        PROFILES, KAPPAS, AMOUNTS, PERTURBATIONS, S_MODES, REAL
    ):
        yield sv.SweepConfig(seed=3, trials=6, block_profile=profile, target_kappa=kappa,
                             amount=amount, perturbation=perturbation, s_mode=s_mode,
                             real_eigenvalues=real)
    # sub-roundoff E near the block cutoff: the commutant route
    for kappa, perturbation in itertools.product((1.0, 10.0), ("gaussian", "rank1")):
        yield sv.SweepConfig(seed=3, trials=6, n_range=(16, 40), block_profile="mixed",
                             target_kappa=kappa, amount=1e-18, perturbation=perturbation,
                             s_mode="computed", real_eigenvalues=True)


def digests() -> tuple[str, str, int, dict]:
    """(full digest, stable digest, sweep count, field digests): the last
    maps each ``record.<name>``, ``summary.<key>`` and ``config.<name>``
    to its sha256."""
    full, stable = hashlib.sha256(), hashlib.sha256()
    fields = defaultdict(hashlib.sha256)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        json_path, csv_path = Path(tmp) / "r.json", Path(tmp) / "r.csv"
        for config in grid():
            report = sv.run_sweep(config)
            sv.write_report(report, json_path)
            sv.write_report(report, csv_path, format="csv")
            doc = json_path.read_bytes()
            full.update(doc)
            stamp, body = csv_path.read_bytes().split(b"\n", 1)
            assert stamp.startswith(b"# generated "), stamp
            full.update(body)
            stable.update(body)
            stable.update(json.dumps(report.summary, sort_keys=True).encode())
            doc = json.loads(doc)
            parts = [(f"record.{key}", value)
                     for record in doc["records"] for key, value in record.items()]
            parts += [(f"summary.{key}", value) for key, value in doc["summary"].items()]
            parts += [(f"config.{key}", value) for key, value in doc["config"].items()]
            for name, value in parts:
                fields[name].update(json.dumps(value, sort_keys=True).encode())
            count += 1
    return full.hexdigest(), stable.hexdigest(), count, fields


if __name__ == "__main__":
    full, stable, count, fields = digests()
    print(f"full    {full}  ({count} sweeps: JSON and CSV reports)")
    print(f"stable  {stable}  (CSV bodies and summaries)")
    for name, h in fields.items():
        print(f"{name:34s} {h.hexdigest()}")
