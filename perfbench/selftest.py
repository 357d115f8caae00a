"""Quick self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that each workload, shrunk, emits exactly the metrics
BENCHMARK.json names in each trace mode, with per-layer metrics nonzero for
the layers the workload runs; that the correctness gate trips on a model
with a corrupted sign vector and on a repeat that changes its query count;
and that a wrapped function that has gone is reported absent. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run  # pins the BLAS threads before numpy is imported
from layers import Tracer

EXTRACTION_LAYERS = (
    "oracle.gradient_calls", "oracle.value_calls", "oracle.busy_ms", "oracle.useful_value_ratio",
    "extraction.search_ms", "extraction.search_self_ms", "extraction.search_attempts",
    "extraction.sign_ms", "extraction.sign_self_ms", "geometry.sign_points_ms", "geometry.lp_ms",
    "geometry.lp_calls", "geometry.cell_draws", "numerics.solve_ms", "numerics.rank_ms",
    "model.generate_ms", "validation.verify_ms",
)
RUNS_LAYERS = {
    "grad-wide": EXTRACTION_LAYERS,
    "grad-narrow": EXTRACTION_LAYERS,
    "membership": EXTRACTION_LAYERS + ("oracle.fd_requests",),
    "lemmas": tuple(f"validation.mc_ms.{k}" for k in ("gap", "tail", "chi2diff", "product")),
}


def tiny(wl: run.Workload) -> run.Workload:
    if wl.extracts:
        return dataclasses.replace(wl, instances=3, tail_pct=50, d=max(wl.d // 16, wl.h // 4), h=wl.h // 4)
    return dataclasses.replace(wl, instances=2, tail_pct=50, samples=10_000)


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    gl = run.import_library()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), "BENCHMARK.json workloads exist")

    for name, wl in run.WORKLOADS.items():
        for trace in (False, True):
            result, detail = run.Run(gl, tiny(wl), 1, 0.0, trace, None).execute()
            metrics = result["metrics"]
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace} is correct")
            expect({k: v["unit"] for k, v in metrics.items()} == wanted[trace],
                   f"{name} trace={trace} emits every metric with its unit")
            if trace:
                zero = [k for k in RUNS_LAYERS[name] if not metrics[k]["value"] > 0]
                expect(not zero, f"{name} reports its layers (zero: {zero})")
            else:
                expect(all(v["value"] > 0 for v in metrics.values()), f"{name} end-to-end metrics are nonzero")

    wl = tiny(run.WORKLOADS["grad-wide"])
    original = gl.learn_model

    def corrupt_signs(oracle, cfg):
        report = original(oracle, cfg)
        s = report.model.s.copy()
        s[0], s[wl.h] = s[wl.h], s[0]  # route row 0 through the other ReLU branch
        return dataclasses.replace(report, model=gl.RecoveredModel(Z=report.model.Z, s=s))

    calls = []

    def drift_queries(oracle, cfg):
        calls.append(1)
        report = original(oracle, cfg)
        if len(calls) % 2:
            oracle.ledger.add_values(1)
        return report

    for hook, problem in ((corrupt_signs, "wrong output"), (drift_queries, "repeat gave")):
        gl.learn_model = hook
        try:
            result, detail = run.Run(gl, wl, 1, 0.0, False, None).execute()
        finally:
            gl.learn_model = original
        expect(not result["correct"] and any(problem in p for p in detail["problems"]),
               f"gate trips on {hook.__name__}")

    simplex = gl.geometry.simplex_maximize
    del gl.geometry.simplex_maximize
    try:
        absent = Tracer().absent
    finally:
        gl.geometry.simplex_maximize = simplex
    expect(absent == ["gradleak.geometry.simplex_maximize"], "a missing wrapped function is reported absent")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
