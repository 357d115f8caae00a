"""Run perfbench on two checkouts in alternating pairs and compare every end-to-end metric.

    python3 tools/bench_pairs.py PARENT_ROOT CHILD_ROOT --workload W --seeds A-B [--seconds 20]

For each seed from A to B it runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, with the working directory at
that checkout's root, and alternates which side runs first: the parent on
the first seed, the child on the next, and so on. Each pair's metrics are
printed as it finishes.

Then, for each end-to-end metric in CHILD_ROOT/BENCHMARK.json, it prints each
side's median and quartiles over the seeds, the pairs the child won under the
metric's ``better`` (ties count for neither), and whether a claimed gain would
hold: the child wins at least nine tenths of the pairs and its median is
better than the parent's by more than the distance between the parent's
quartiles. Next to the claim it prints the no-regression verdict under the
metric's ``bound``, read as a fraction of the parent's median: "worse" when
the child's median is worse than the parent's by more than that, else
"unresolved" when the parent's quartile spread exceeds it and not every
child run beats every parent run, else "ok". It also prints each side's
median of the operation time (``wall.op_ms_p50``) beside that of the
reference kernel time (``wall.ref_ms_p50``), the yardstick the relative
operation times divide by, so a moved yardstick can be told apart from a
change in operation time. For the metrics in SORTED_RUNS, whose runs of
the same code fall into modes rather than spread about one value, it also
prints each side's runs in sorted order, so a moved mode shows even when
the medians do not.

A pair in which either run's result is not ``correct`` (or the run printed
no result) is left out of the medians and the win counts, and the script
then exits 1. It writes nothing itself; perfbench keeps its own records in
each checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "child")
# peak_rss_mb on grad-narrow reads about 44.7 or 45.3 MB from run to run of
# the same code; a median alone cannot show which mode a change moved.
SORTED_RUNS = ("peak_rss_mb",)


def seed_range(text: str) -> range:
    first, sep, last = text.partition("-")
    try:
        lo, hi = int(first), int(last)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B with integers A <= B, got {text!r}") from None
    if not sep or lo > hi:
        raise argparse.ArgumentTypeError(f"expected A-B with integers A <= B, got {text!r}")
    return range(lo, hi + 1)


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, dict | None, str]:
    """The result and record JSON of one perfbench run, or Nones and the reason there are none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), json.loads(lines[-2]), ""
    except (IndexError, json.JSONDecodeError):
        return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def regression(par: list[float], chi: list[float], bound: float, lower: bool) -> str:
    """The no-regression verdict on one metric: "worse", "unresolved" or "ok"."""
    p_med, c_med = statistics.median(par), statistics.median(chi)
    allowed = bound * abs(p_med)
    if ((c_med - p_med) if lower else (p_med - c_med)) > allowed:
        return "worse"
    p1, p3 = quartiles(par)
    beats_all = max(chi) < min(par) if lower else min(chi) > max(par)
    if p3 - p1 > allowed and not beats_all:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the baseline checkout")
    parser.add_argument("child", type=Path, help="root of the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="inclusive seed range A-B")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "child": args.child}
    for root in roots.values():
        if not (root / "perfbench" / "run.py").is_file():
            raise SystemExit(f"error: no perfbench/run.py under {root}")
    metrics = json.loads((args.child / "BENCHMARK.json").read_text())["end_to_end"]

    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    wall = {side: {"op_ms_p50": [], "ref_ms_p50": []} for side in SIDES}
    problems = []
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs = {side: run_bench(roots[side], args.workload, seed, args.seconds) for side in order}
        bad = [side for side in order if runs[side][0] is None or not runs[side][0]["correct"]]
        for side in bad:
            _, detail, why = runs[side]
            problems.append(f"seed {seed} {side}: " + (why or f"incorrect: {detail.get('problems')}"))
        if bad:
            print(f"seed {seed}: pair left out, not correct: {', '.join(bad)}", flush=True)
            continue
        cells = []
        for m in metrics:
            pair = [runs[side][0]["metrics"][m["name"]]["value"] for side in SIDES]
            for side, v in zip(SIDES, pair):
                values[side][m["name"]].append(v)
            cells.append(f"{m['name']} {pair[0]:.4g} -> {pair[1]:.4g}")
        for side in SIDES:
            for key, times in wall[side].items():
                times.append(runs[side][1]["wall"][key])
        print(f"seed {seed} ({order[0]} first): " + ", ".join(cells), flush=True)

    pairs = len(wall["parent"]["ref_ms_p50"])
    print(f"workload {args.workload}, {pairs} pairs, --seconds {args.seconds:g}")
    for m in metrics if pairs else ():
        name, lower = m["name"], m["better"] == "lower"
        par, chi = values["parent"][name], values["child"][name]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chi))
        p_med, c_med = statistics.median(par), statistics.median(chi)
        (p1, p3), (c1, c3) = quartiles(par), quartiles(chi)
        gain = (p_med - c_med) if lower else (c_med - p_med)
        holds = 10 * wins >= 9 * pairs and gain > p3 - p1
        print(f"{name} ({m['unit']}, {m['better']} is better): parent {p_med:.4g} [{p1:.4g} {p3:.4g}], "
              f"child {c_med:.4g} [{c1:.4g} {c3:.4g}], child better in {wins}/{pairs}, "
              f"claim holds: {'yes' if holds else 'no'}, "
              f"no regression (bound {m['bound']:g}): {regression(par, chi, m['bound'], lower)}")
        if name in SORTED_RUNS:
            for side, runs in (("parent", par), ("child", chi)):
                print(f"  {name} {side} runs, sorted: {' '.join(f'{v:.4g}' for v in sorted(runs))}")
    for key in ("op_ms_p50", "ref_ms_p50") if pairs else ():
        print(f"wall.{key}: " + ", ".join(
            f"{side} {statistics.median(wall[side][key]):.3f} "
            f"[{' '.join(f'{q:.3f}' for q in quartiles(wall[side][key]))}]"
            for side in SIDES))
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
