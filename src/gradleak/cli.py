"""Command-line surface: gen, extract, verify, lemmas, bench.

Exit codes: 0 success, 1 usage/IO errors, 2 extraction failure signaled,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import GradleakError, MatchAmbiguityError
from .extraction import ExtractionConfig, ExtractionReport, learn_model
from .model import (
    generate_random_net,
    load_net,
    load_recovered,
    save_net,
    save_recovered,
)
from .oracle import ORACLE_MODES, Oracle, SmoothGradConfig
from .validation import (
    _layout,
    functional_equivalence,
    match_rows,
    mc_cauchy_tail,
    mc_chi2_diff,
    mc_crossing_gap,
    mc_gaussian_product,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXTRACTION_FAILED = 2
EXIT_VERIFY_MISMATCH = 3

_BENCH_VERIFY_POINTS = 1000
_BENCH_VERIFY_TOL = 1e-7
_GENERATOR_C_MIN = 0.1
_GENERATOR_W_MIN = 0.1
_ATTACKER_C = 0.01


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to exit 1
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="gradleak", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[], help="generate a random target model file")
    gen.add_argument("--d", type=int, required=True, help="input dimension")
    gen.add_argument("--h", type=int, required=True, help="hidden width")
    gen.add_argument("--c-min", type=float, default=_GENERATOR_C_MIN)
    gen.add_argument("--w-min", type=float, default=_GENERATOR_W_MIN)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    ext = sub.add_parser("extract", help="run the extraction attack against a model file")
    ext.add_argument("--model", required=True)
    ext.add_argument("--mode", choices=ORACLE_MODES, default="grad")
    ext.add_argument("--h", type=int, default=None, help="assumed hidden width (default: true width)")
    ext.add_argument("--delta", type=float, default=0.1)
    ext.add_argument("--c", type=float, default=_ATTACKER_C)
    ext.add_argument("--seed", type=int, default=0)
    ext.add_argument("--max-retries", type=int, default=5)
    ext.add_argument("--sigma", type=float, default=0.0)
    ext.add_argument("--n-samples", type=int, default=None, help="samples per smoothed gradient, at --sigma > 0 only")
    ext.add_argument("--out", required=True, help="recovered model file")
    ext.add_argument("--report", default=None, help="report JSON file")
    ext.set_defaults(func=cmd_extract)

    ver = sub.add_parser("verify", help="compare a recovered model against the target")
    ver.add_argument("--model", required=True)
    ver.add_argument("--recovered", required=True)
    ver.add_argument("--samples", type=int, default=100_000)
    ver.add_argument("--tol", type=float, default=1e-7)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    lem = sub.add_parser("lemmas", help="Monte Carlo checks of the probability bounds")
    lem.add_argument("--which", choices=("gap", "tail", "chi2diff", "product", "all"), default="all")
    lem.add_argument("--samples", type=int, default=1_000_000)
    lem.add_argument("--seed", type=int, default=0)
    lem.add_argument("--c", type=float, default=0.5)
    lem.add_argument("--epsilon", type=float, default=None)
    lem.add_argument("--l", type=float, default=10.0)
    lem.set_defaults(func=cmd_lemmas)

    ben = sub.add_parser("bench", help="query-count benchmark over widths")
    ben.add_argument("--h-list", required=True, help="comma-separated widths, e.g. 2,4,8")
    ben.add_argument("--d", type=int, required=True)
    ben.add_argument("--trials", type=int, required=True)
    ben.add_argument("--mode", choices=ORACLE_MODES, default="grad")
    ben.add_argument("--delta", type=float, default=0.1)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--out", required=True)
    ben.set_defaults(func=cmd_bench)

    return parser


def cmd_gen(args) -> int:
    net = generate_random_net(args.d, args.h, c_min=args.c_min, w_min=args.w_min, seed=args.seed)
    save_net(net, args.out)
    gram = net.A @ net.A.T
    off = np.abs(gram - np.eye(net.h))
    print(f"wrote {args.out}")
    print(f"  d={net.d} h={net.h}")
    print(f"  max |row norm - 1| = {np.max(np.abs(np.sqrt(np.sum(net.A**2, axis=1)) - 1)):.3e}")
    print(f"  max pairwise |<A_i,A_j>| = {np.max(off) if net.h > 1 else 0.0:.6f} (allowed {1 - args.c_min:.6f})")
    print(f"  min |w_i| = {np.min(np.abs(net.w)):.6f} (required {args.w_min:.6f})")
    return EXIT_OK


def cmd_extract(args) -> int:
    net = load_net(args.model)
    h = args.h if args.h is not None else net.h
    cfg = ExtractionConfig(
        h=h,
        delta=args.delta,
        c=args.c,
        seed=args.seed,
        max_retries=args.max_retries,
    )
    blur = {} if args.n_samples is None else {"n_samples": args.n_samples}
    sg = SmoothGradConfig(sigma=args.sigma, seed=args.seed, **blur)
    # The oracle would ignore either, and the run would look blurred when it was not.
    if sg.sigma and args.mode != "smoothgrad":
        raise _UsageError(f"--sigma {args.sigma!r} applies to --mode smoothgrad alone, not --mode {args.mode}")
    if blur and not sg.sigma:
        raise _UsageError(f"--n-samples {args.n_samples} applies to --mode smoothgrad with --sigma > 0 alone")
    oracle = Oracle(net, mode=args.mode, sg=sg)
    try:
        report = learn_model(oracle, cfg)
        save_recovered(report.model, args.out)
    except GradleakError as err:
        print(f"extraction failed: {err}", file=sys.stderr)
        report = err.report or ExtractionReport.from_ledger(oracle.ledger)
    if args.report:
        Path(args.report).write_text(json.dumps(report.report_dict(), indent=2) + "\n")
    if report.model is None:
        return EXIT_EXTRACTION_FAILED
    print(
        f"extracted h={report.model.h} rows in {report.gradient_queries} gradient "
        f"and {report.value_queries} value queries (retries={report.retries})"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise _UsageError("--samples must be at least 1; 0 points check nothing")
    net = load_net(args.model)
    model = load_recovered(args.recovered)
    if net.d != model.d:
        raise ValueError(f"dimension mismatch: model d={net.d}, recovered d={model.d}")
    try:
        model.validate_signs()
    except ValueError as err:
        print(f"recovered model is malformed: {err}", file=sys.stderr)
        return EXIT_VERIFY_MISMATCH

    eq = functional_equivalence(net, model, args.samples, args.tol, seed=args.seed)
    print(f"max relative error over {eq.n_points} points: {eq.max_rel_error:.3e} (tol {eq.tol:.1e})")
    if net.h != model.h:
        print(f"row match skipped: model h={net.h}, recovered h={model.h}")
        return EXIT_VERIFY_MISMATCH
    try:
        match = match_rows(net, model.Z)
        print(
            f"row match: permutation {match.permutation.tolist()}, signs "
            f"{match.signs.tolist()}, max row error {match.max_row_error:.3e}"
        )
    except MatchAmbiguityError as err:
        print(f"row match ambiguous: {err}")
    return EXIT_OK if eq.passed else EXIT_VERIFY_MISMATCH


def cmd_lemmas(args) -> int:
    """One JSON line per check, with the check's wall time in ms and the blocks and workers it ran on."""
    gap_eps, chi2_eps = (1e-3, 0.1) if args.epsilon is None else (args.epsilon, args.epsilon)
    checks = {
        "gap": lambda: mc_crossing_gap(args.c, gap_eps, args.samples, seed=args.seed),
        "tail": lambda: mc_cauchy_tail(args.l, args.samples, seed=args.seed),
        "chi2diff": lambda: mc_chi2_diff(chi2_eps, args.samples, seed=args.seed),
        "product": lambda: mc_gaussian_product(args.samples, seed=args.seed),
    }
    lines = []
    for name, check in checks.items():
        if args.which in (name, "all"):
            start = time.perf_counter()
            report = check()
            ms = round(1000.0 * (time.perf_counter() - start), 1)
            blocks, workers = _layout(report.samples)
            lines.append({"lemma": name, **report.to_dict(), "ms": ms, "blocks": blocks, "workers": workers})
    for line in lines:
        print(json.dumps(line))
    return EXIT_OK if all(line["passed"] for line in lines) else EXIT_VERIFY_MISMATCH


def _bench_trial(h: int, d: int, mode: str, trial: int, delta: float, base_seed: int) -> dict:
    seeds = np.random.SeedSequence([base_seed, h, trial]).generate_state(3, dtype=np.uint64)
    net_seed, extract_seed, verify_seed = (int(s) for s in seeds)
    net = generate_random_net(d, h, c_min=_GENERATOR_C_MIN, w_min=_GENERATOR_W_MIN, seed=net_seed)
    oracle = Oracle(net, mode=mode, sg=SmoothGradConfig(sigma=0.0, seed=extract_seed))
    cfg = ExtractionConfig(h=h, delta=delta, c=_ATTACKER_C, seed=extract_seed)
    start = time.perf_counter()
    try:
        report = learn_model(oracle, cfg)
        eq = functional_equivalence(
            net, report.model, _BENCH_VERIFY_POINTS, _BENCH_VERIFY_TOL, seed=verify_seed
        )
        success, max_rel_error = eq.passed, eq.max_rel_error
    except GradleakError as err:
        report = err.report or ExtractionReport.from_ledger(oracle.ledger)
        success, max_rel_error = False, float("nan")
    seconds = time.perf_counter() - start
    return {
        "h": h,
        "d": d,
        "mode": mode,
        "trial": trial,
        "success": success,
        "gradient_queries": report.gradient_queries,
        "value_queries": report.value_queries,
        "rounds": report.rounds,
        "retries": report.retries,
        "refusals": json.dumps(report.refusals),
        "max_rel_error": max_rel_error,
        "seconds": round(seconds, 6),
    }


def cmd_bench(args) -> int:
    try:
        h_list = [int(tok) for tok in args.h_list.split(",") if tok.strip()]
    except ValueError as err:
        raise _UsageError(f"bad --h-list: {err}") from err
    if not h_list or args.trials < 1:
        raise _UsageError("--h-list must be nonempty and --trials positive")
    for h in h_list:
        if h > args.d:
            raise _UsageError(f"h={h} exceeds d={args.d}")

    rows = [
        _bench_trial(h, args.d, args.mode, trial, args.delta, args.seed)
        for h in h_list
        for trial in range(args.trials)
    ]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    n_success = sum(1 for r in rows if r["success"])
    print(f"wrote {len(rows)} rows to {args.out} ({n_success} successes)")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (GradleakError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
