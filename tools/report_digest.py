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

Each sweep writes its reports to fresh files: rewriting one file in
place makes some file systems (ext4 with ``auto_da_alloc``) flush it to
disk on every close, which held a run on such a host at 77 s of wall time
for 1.5 s of CPU (1.2 s of wall time with fresh files).

A third digest hashes ``s_number``'s (s, block sizes, U bytes) on fixed
structured inputs built here with numpy alone, each hidden under a Haar
unitary: k blocks of order 4, one Jordan block, diag(B, B) and a normal
matrix whose eigenvalues repeat four times each, at n = 8, 12, 16 and 24,
every one at seeds 0 and 1.  The sweep grid reaches ``s_number`` almost
only through generic matrices that the merge sees as one block at once,
so this digest is the one that sees a change to its splits.

After the three digests it prints one per ``TrialRecord`` field
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

import numpy as np  # noqa: E402

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


S_ORDERS = (8, 12, 16, 24)
S_SEEDS = (0, 1)


def s_number_inputs():
    """The structured inputs of the ``s_number`` digest, from one fixed
    generator."""
    rng = np.random.default_rng(29)

    def gaussian(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def hidden(blocks):
        n = sum(b.shape[0] for b in blocks)
        m = np.zeros((n, n), dtype=np.complex128)
        off = 0
        for b in blocks:
            m[off:off + b.shape[0], off:off + b.shape[0]] = b
            off += b.shape[0]
        q, r = np.linalg.qr(gaussian(n))
        w = q * (np.diag(r) / np.abs(np.diag(r)))
        return w @ m @ w.conj().T

    for n in S_ORDERS:
        yield hidden([gaussian(4) for _ in range(n // 4)])
        yield hidden([(0.5 + 1j) * np.eye(n) + np.diag(np.ones(n - 1), k=1)])
        b = gaussian(n // 2)
        yield hidden([b, b])
        lams = rng.standard_normal(n // 4) + 1j * rng.standard_normal(n // 4)
        yield hidden([np.diag(np.repeat(lams, 4))])


def s_number_digest() -> tuple[str, int]:
    """(sha256 of every call's s, block sizes and U bytes, call count)."""
    h = hashlib.sha256()
    count = 0
    for m in s_number_inputs():
        for seed in S_SEEDS:
            dec = sv.s_number(m, seed=seed)
            h.update(repr((dec.s, dec.block_sizes)).encode())
            h.update(np.ascontiguousarray(dec.u).tobytes())
            count += 1
    return h.hexdigest(), count


def digests() -> tuple[str, str, int, dict]:
    """(full digest, stable digest, sweep count, field digests): the last
    maps each ``record.<name>``, ``summary.<key>`` and ``config.<name>``
    to its sha256."""
    full, stable = hashlib.sha256(), hashlib.sha256()
    fields = defaultdict(hashlib.sha256)
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in grid():
            json_path, csv_path = Path(tmp) / f"{count}.json", Path(tmp) / f"{count}.csv"
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
    s_digest, s_count = s_number_digest()
    print(f"s       {s_digest}  ({s_count} s_number calls on structured inputs)")
    for name, h in fields.items():
        print(f"{name:34s} {h.hexdigest()}")
