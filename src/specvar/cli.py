"""Command-line interface.

Subcommands: delta, match, s-number, bound, sweep, example.
Exit codes: 0 = pass, 1 = bound violation found, 2 = infrastructure or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .blocks import DEFAULT_TOL, s_number
from .exceptions import SpecvarError
from .fileio import read_jordan_spec, read_matrix
from .harness import (
    BLOCK_PROFILES,
    PERTURBATIONS,
    S_MODES,
    SweepConfig,
    check_amount_scale,
    example_scalar_table,
    run_sweep,
    run_trial,
    write_report,
)
from .jordan import make_instance
from .linalg import delta
from .spectrum import Spectrum, brute_force_match, eigenvalues, optimal_match

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


def _spectrum_from_file(path) -> Spectrum:
    """Square file -> eigenvalues; row/column vector -> entries directly."""
    m = read_matrix(path)
    if 1 in m.shape:
        return Spectrum(m.ravel())
    return eigenvalues(m)


def _cmd_delta(args) -> int:
    print(repr(delta(read_matrix(args.matrix))))
    return EXIT_OK


def _cmd_match(args) -> int:
    a = _spectrum_from_file(args.a)
    b = _spectrum_from_file(args.b)
    match = brute_force_match(a, b) if args.brute_force else optimal_match(a, b)
    print(f"d2    = {match.d2!r}")
    print(f"d_inf = {match.d_inf!r}")
    print(f"pi    = {match.permutation.tolist()}")
    return EXIT_OK


def _cmd_s_number(args) -> int:
    dec = s_number(read_matrix(args.matrix), tol=args.tol, seed=args.seed)
    print(f"s = {dec.s}")
    print(f"block_sizes = {list(dec.block_sizes)}")
    return EXIT_OK


def _cmd_bound(args) -> int:
    spec = read_jordan_spec(args.jordan)
    inst = make_instance(spec, read_matrix(args.perturbation))
    check_amount_scale(inst.norm_e, spec.kappa_q, spec.n)
    config = SweepConfig(seed=args.seed, s_mode=args.s_mode, block_profile="user-file",
                         jordan_file=args.jordan, s_tol=args.tol)
    rec = run_trial(inst, config, 0)
    if rec.status != "ok":
        print(f"error: {rec.failure_reason}", file=sys.stderr)
        return EXIT_ERROR
    print(f"n={rec.n} p={rec.p} m={rec.m} |E_Q|={rec.norm_eq!r} delta(E_Q)={rec.delta_eq!r}")
    print(f"D2 = {rec.d2!r}")
    print(f"{'bound':14s} {'branch':18s} {'value':>24s} {'slack':>24s}")
    t = rec.results
    for bid, value, branch, reason in zip(t.ids, t.values, t.branches, t.reasons):
        if reason:
            print(f"{bid:14s} {'-':18s} {'inapplicable:':>24s} {reason}")
            continue
        flag = "  VIOLATION" if bid in rec.violations else ""
        print(f"{bid:14s} {branch:18s} {value!r:>24s} {value - rec.d2!r:>24s}{flag}")
    print("worst margin / phi(eps) over the eps grid:")
    for name in ("envelope_ratio_min", "scaled_norm_ratio_min", "cross_term_ratio_min",
                 "superdiag_error_ratio_max"):
        print(f"{name:25s} = {getattr(rec, name)!r}")
    return EXIT_VIOLATION if rec.violations else EXIT_OK


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        seed=args.seed,
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        block_profile=args.profile,
        perturbation=args.perturbation,
        amount=args.amount,
        target_kappa=args.kappa,
        s_mode=args.s_mode,
        real_eigenvalues=args.real_eigenvalues,
        jordan_file=args.jordan,
    )
    report = run_sweep(config)
    if args.out:
        write_report(report, args.out, format=args.format)
    print(json.dumps(report.summary, indent=1, default=str))
    if report.summary["violation_count"]:
        return EXIT_VIOLATION
    if report.summary["failed_infrastructure"]:
        return EXIT_ERROR
    return EXIT_OK


def _cmd_example(args) -> int:
    if args.jordan:
        spec = read_jordan_spec(args.jordan)
    else:
        # default to the (4, 2, 2) reference configuration
        from .generate import random_conditioned
        from .jordan import make_jordan_spec

        q = random_conditioned(4, 5.0, np.random.default_rng(args.seed))
        spec = make_jordan_spec([(1.0, 2), (3.0, 2)], q)
    table = example_scalar_table(spec, args.t, s_mode=args.s_mode, s_seed=args.seed)
    print(f"n={table['n']} p={table['p']} m={table['m']} t={table['t']} s1={table['s1']}")
    print(f"D2 = {table['d2']!r}  (expected {table['d2_expected']!r})")
    print(f"{'bound':10s} {'closed form':>24s} {'numeric':>24s} {'rel err':>12s}")
    for row in table["rows"]:
        print(
            f"{row['bound_id']:10s} {row['closed_form']:>24.16g} "
            f"{row['numeric']:>24.16g} {row['rel_err']:>12.3e}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    defaults = SweepConfig()
    parser = argparse.ArgumentParser(
        prog="specvar",
        description="Eigenvalue perturbation bounds, verified against the "
        "optimal spectral matching distance D2.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="trace-deflated Frobenius norm of a matrix")
    p.add_argument("--matrix", required=True, help="matrix file (JSON)")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("match", help="optimal matching distance of two spectra")
    p.add_argument("--a", required=True, help="matrix or vector file")
    p.add_argument("--b", required=True, help="matrix or vector file")
    p.add_argument("--brute-force", action="store_true",
                   help="use the factorial oracle (n <= 8)")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("s-number", help="maximal unitary block count s(M)")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="commutant null-space cutoff (s is tolerance-dependent)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_s_number)

    p = sub.add_parser("bound", help="all bounds for one (Jordan data, E) instance")
    p.add_argument("--jordan", required=True, help="Jordan-data file")
    p.add_argument("--perturbation", required=True, help="matrix file with E")
    p.add_argument("--s-mode", choices=S_MODES, default=defaults.s_mode)
    p.add_argument("--tol", type=float, default=defaults.s_tol)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sweep", help="seeded verification sweep")
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--trials", type=int, default=defaults.trials)
    p.add_argument("--n-min", type=int, default=defaults.n_range[0])
    p.add_argument("--n-max", type=int, default=defaults.n_range[1])
    p.add_argument("--profile", default=defaults.block_profile, choices=BLOCK_PROFILES)
    p.add_argument("--perturbation", default=defaults.perturbation, choices=PERTURBATIONS)
    p.add_argument("--amount", type=float, default=defaults.amount,
                   help="||E||_F for gaussian/rank1, t for scalar")
    p.add_argument("--kappa", type=float, default=defaults.target_kappa)
    p.add_argument("--s-mode", choices=S_MODES, default=defaults.s_mode)
    p.add_argument("--real-eigenvalues", action="store_true")
    p.add_argument("--jordan", default=None, help="Jordan-data file (user-file profile)")
    p.add_argument("--format", choices=("csv", "structured-text"), default="csv")
    p.add_argument("--out", default=None, help="report output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("example", help="scalar-perturbation closed-form table")
    p.add_argument("--t", type=float, default=0.05)
    p.add_argument("--jordan", default=None,
                   help="Jordan-data file (default: the (4, 2, 2) reference)")
    p.add_argument("--s-mode", choices=S_MODES, default=defaults.s_mode)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpecvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
