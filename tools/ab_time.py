"""Time two checkouts against each other on a perfbench workload, instance by instance.

    python3 tools/ab_time.py PARENT_ROOT CHILD_ROOT --workload W [--seed S] [--passes P]

Loads the gradleak package of each checkout (ROOT/src/gradleak) side by side
in one process, under the names gradleak_parent and gradleak_child, and the
workload definitions from CHILD_ROOT/perfbench/run.py, which it imports
without changing. It builds the workload's seeded instance set once per
checkout and, for P passes, runs every instance on both, alternating which
runs first. Each operation goes through perfbench's own run_op, so it is
timed and checked exactly as a benchmark operation is.

Both checkouts must charge every instance the same cost (oracle queries, or
Monte Carlo samples), and neither may return a wrong output; otherwise it
exits 1. It prints, per checkout, the median operation time, and the median
and quartiles over instances of child/parent, each instance's ratio taken
between its median times over the passes. It also prints on how many
instances the two outputs differ (run_op's digest of the model, or of the
lemma reports, in any pass), so one run both sizes a speed-up and shows
whether it is bit-identical; a difference alone does not change the exit
code. Running the pair in one process, interleaved, cancels most of a
shared host's drift, which swings single benchmark runs by more than the
differences being measured.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, as perfbench/run.py pins them for itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path


def load(path: Path, name: str, search: list[str] | None = None):
    """Import the file at path as module name (a package when search lists its directory)."""
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_library(root: Path, name: str):
    package = root / "src" / "gradleak"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no gradleak sources under {root / 'src'}")
    return load(package / "__init__.py", name, [str(package)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the baseline checkout")
    parser.add_argument("child", type=Path, help="root of the checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1, help="perfbench instance-set seed")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)

    bench_dir = args.child / "perfbench"
    sys.path.insert(0, str(bench_dir))  # run.py imports its sibling layers.py
    bench = load(bench_dir / "run.py", "perfbench_run")
    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"error: --workload must be one of {sorted(bench.WORKLOADS)}")
    if args.passes < 1:
        raise SystemExit("error: --passes must be at least 1")
    wl = bench.WORKLOADS[args.workload]
    roots = {"parent": args.parent, "child": args.child}
    sides = {side: load_library(root, f"gradleak_{side}") for side, root in roots.items()}
    instances = {side: bench.build_instances(gl, wl, args.seed) for side, gl in sides.items()}
    for side, gl in sides.items():  # warm-up
        bench.run_op(gl, wl, instances[side][0])

    times = {side: [[] for _ in instances[side]] for side in sides}
    problems, differ = [], set()
    for p in range(args.passes):
        for i in range(len(instances["parent"])):
            order = ("parent", "child") if (i + p) % 2 == 0 else ("child", "parent")
            outs = {side: bench.run_op(sides[side], wl, instances[side][i]) for side in order}
            for side, out in outs.items():
                times[side][i].append(out.ms)
                if out.wrong:
                    problems.append(f"{side} instance {i}: wrong output: {out.wrong}")
            if outs["parent"].record["digest"] != outs["child"].record["digest"]:
                differ.add(i)
            costs = outs["parent"].cost, outs["child"].cost
            if costs[0] != costs[1]:
                problems.append(f"instance {i}: cost {costs[0]} (parent) != {costs[1]} (child)")

    medians = {side: [statistics.median(t) for t in times[side]] for side in sides}
    ratios = [c / p for c, p in zip(medians["child"], medians["parent"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else (ratios[0],) * 3
    print(f"workload {wl.name}, seed {args.seed}, {len(ratios)} instances x {args.passes} passes")
    for side in sides:
        print(f"{side}: median op {statistics.median(medians[side]):.3f} ms")
    print(f"child/parent per instance: median {statistics.median(ratios):.3f}, quartiles {q1:.3f} {q3:.3f}")
    print(f"child faster on {sum(r < 1.0 for r in ratios)} of {len(ratios)} instances")
    print(f"models differ on {len(differ)} of {len(ratios)} instances")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
