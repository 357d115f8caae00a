"""End-to-end and per-layer benchmark of the gradleak extraction attack.

Run from the repository root:

    python3 perfbench/run.py --workload grad-wide --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one caller in one process runs one operation
at a time (a ``learn_model`` extraction, or one set of the four ``mc_*``
lemma checks), with BLAS and OpenMP pinned to one thread. A run builds a
seeded set of distinct instances from ``--seed`` and makes whole passes over
it: one, and more while the next is expected to end within ``--seconds``.
The set is sized so that one pass takes about 15-25 s on a 2-CPU Xeon VM,
and holds enough operations for the workload's fixed tail percentile. The
first instances are run once more at the end to check they reproduce.

Every operation is checked. A returned model must agree with the target at
1e-7 on fresh points (``functional_equivalence``) and row by row
(``match_rows``); a lemma report must match its closed forms. A
``GradleakError`` counts as a failed operation. A lemma check whose 3-sigma
verdict is false has not failed; it counts against ``success_rate`` only. A
wrong output, or a repeat of an instance that does not reproduce its query
counts, retries and model digest, makes the run incorrect and the exit code
1. Any other exception stops the run.

With ``--trace 0`` the end-to-end metrics are timed with tracing off.
Operation times are reported relative to a short reference kernel of the
same kind of work (a Python loop for extractions, large array passes for the
lemma checks) timed between consecutive operations: each operation's time is
divided by the mean of the kernel times just before and just after it. On a
shared VM the host's speed swings by up to 2x within seconds, and the ratio
cancels most of that. The wall-clock figures are kept in the record line.
Set-up time is the median of three rounds of importing the library in a
fresh interpreter, generating the instances and one warm-up operation on a
small fixed instance.

With ``--trace 1`` every operation runs twice, untraced and traced in
alternating order; the per-layer metrics come from the traced copies and
``trace.overhead_ms`` is traced minus untraced median operation time.

The last line of standard output is the result JSON; the line before it is a
JSON record of the run (tail percentile, failures, machine, query bases).
Per-instance query counts, retries and digests are kept in
``perfbench/out/records`` and compared with earlier runs of the same code.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = Path(__file__).resolve().parent / "out" / "records"

# Generator and attacker settings shared by the extraction workloads.
C_MIN = 0.1
W_MIN = 0.1
DELTA = 0.1
ATTACKER_C = 0.01
VERIFY_POINTS = 4096
VERIFY_TOL = 1e-7
# Lemma parameters (the CLI's defaults) and the width of the closed-form check.
GAP_C, GAP_EPS = 0.5, 1e-3
TAIL_L = 10.0
CHI2_EPS = 0.1
PRODUCT_MAX_DISTANCE = 0.02
LEMMA_SIGMAS = 6.0

SETUP_ROUNDS = 3
# The warm-up operation runs the workload's code paths on a fixed small instance, so
# set-up time depends neither on --seed nor on the operation time measured afterwards.
WARMUP_SEED = 0
WARMUP_SIZE = {"instances": 1, "d": 8, "h": 2, "samples": 10_000}
# Instances run once more after the measured passes, to check they reproduce.
RECHECKED = 2

END_TO_END = {
    "op_rel_p50": "x_ref",
    "op_rel_tail": "x_ref",
    "cost_per_op": "count",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "oracle.gradient_calls": "count",
    "oracle.value_calls": "count",
    "oracle.fd_requests": "count",
    "oracle.busy_ms": "ms",
    "oracle.useful_value_ratio": "ratio",
    "extraction.search_ms": "ms",
    "extraction.search_self_ms": "ms",
    "extraction.search_attempts": "count",
    "extraction.sign_ms": "ms",
    "extraction.sign_self_ms": "ms",
    "geometry.sign_points_ms": "ms",
    "geometry.lp_ms": "ms",
    "geometry.lp_calls": "count",
    "geometry.cell_draws": "count",
    "numerics.solve_ms": "ms",
    "numerics.rank_ms": "ms",
    "model.generate_ms": "ms",
    "validation.verify_ms": "ms",
    "validation.mc_ms.gap": "ms",
    "validation.mc_ms.tail": "ms",
    "validation.mc_ms.chi2diff": "ms",
    "validation.mc_ms.product": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int  # size of the seeded instance set one pass runs through
    tail_pct: int  # fixed tail percentile, with >= 10 operations of a pass beyond it
    mode: str = "lemmas"  # oracle mode of an extraction workload
    d: int = 0
    h: int = 0
    samples: int = 0  # Monte Carlo samples per lemma check

    @property
    def extracts(self) -> bool:
        return self.mode != "lemmas"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grad-wide", 40, 75, mode="grad", d=128, h=8),
        # p95, not p98: ~2% of extractions retry the search, and a percentile at
        # that share lands on or off the slow retries depending on the seed.
        Workload("grad-narrow", 600, 95, mode="grad", d=16, h=16),
        # Not in BENCHMARK.json: membership extraction returns models that fail
        # verification without raising (seed 22, instance 11), which the
        # correctness gate turns into a failed run on a share of seeds.
        Workload("membership", 60, 75, mode="membership", d=64, h=8),
        Workload("lemmas", 40, 75, samples=1_000_000),
    )
}


@dataclass
class Instance:
    index: int
    net: object  # TwoLayerNet, or None for a lemma set
    op_seed: int
    check_seed: int


@dataclass
class Outcome:
    ms: float
    verified: bool  # finished without a GradleakError and its output checked out
    wrong: str | None  # output that failed its check, which makes the run incorrect
    error: str | None  # GradleakError raised by the operation
    checks: int  # verdicts: one per extraction, one per lemma check
    passed: int  # verdicts that passed: a verified model, or a lemma report's `passed`
    cost: int  # oracle queries charged, or Monte Carlo samples drawn
    record: dict  # determinism record of the instance
    layers: dict = field(default_factory=dict)


def import_library():
    if not (SRC / "gradleak" / "__init__.py").is_file():
        raise SystemExit(f"error: no gradleak sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradleak

    if Path(gradleak.__file__).resolve().parent != (SRC / "gradleak").resolve():
        raise SystemExit(f"error: gradleak imported from {gradleak.__file__}, not {SRC}")
    return gradleak


def build_instances(gl, wl: Workload, seed: int) -> list[Instance]:
    seq = np.random.SeedSequence([seed, zlib.crc32(wl.name.encode())])
    out = []
    for i, child in enumerate(seq.spawn(wl.instances)):
        net_seed, op_seed, check_seed = (int(s) for s in child.generate_state(3, dtype=np.uint64))
        net = None
        if wl.extracts:
            net = gl.generate_random_net(wl.d, wl.h, c_min=C_MIN, w_min=W_MIN, seed=net_seed)
        out.append(Instance(i, net, op_seed, check_seed))
    return out


def model_digest(model) -> str:
    blob = np.ascontiguousarray(model.Z).tobytes() + np.asarray(model.s, dtype=np.int64).tobytes()
    return hashlib.sha256(blob).hexdigest()[:16]


def verify_model(gl, net, model, seed: int) -> str | None:
    """None when the model matches the target, else the reason it does not."""
    eq = gl.functional_equivalence(net, model, VERIFY_POINTS, VERIFY_TOL, seed=seed)
    if not eq.passed:
        return f"functional_equivalence max rel error {eq.max_rel_error:.3e}"
    row_error = gl.match_rows(net, model.Z).max_row_error
    if row_error > VERIFY_TOL:
        return f"match_rows max row error {row_error:.3e}"
    return None


def run_extraction(gl, wl: Workload, inst: Instance) -> Outcome:
    oracle = gl.Oracle(inst.net, mode=wl.mode)
    cfg = gl.ExtractionConfig(h=wl.h, delta=DELTA, c=ATTACKER_C, seed=inst.op_seed)
    report, error = None, None
    start = time.perf_counter()
    try:
        report = gl.learn_model(oracle, cfg)
    except gl.GradleakError as err:
        error = f"{type(err).__name__}: {err}"
    ms = (time.perf_counter() - start) * 1e3
    ledger = oracle.ledger
    record = {
        "gradient_queries": ledger.gradient_queries,
        "value_queries": ledger.value_queries,
        "retries": report.retries if report else None,
        "digest": model_digest(report.model) if report else error,
    }
    wrong = None
    if report is not None:
        try:
            wrong = verify_model(gl, inst.net, report.model, inst.check_seed)
        except gl.GradleakError as err:
            error = f"verification {type(err).__name__}: {err}"
    verified = report is not None and error is None and wrong is None
    return Outcome(
        ms=ms,
        verified=verified,
        wrong=wrong,
        error=error,
        checks=1,
        passed=int(verified),
        cost=ledger.gradient_queries + ledger.value_queries,
        record=record,
        layers={"values_charged": ledger.value_queries, "extraction.search_attempts": report.retries + 1}
        if report
        else {"values_charged": ledger.value_queries},
    )


def _binomial_sd(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def lemma_call(gl, kind: str, samples: int, seed: int):
    """The check of one kind; functions are looked up now so tracing sees them."""
    if kind == "gap":
        return gl.mc_crossing_gap(GAP_C, GAP_EPS, samples, seed=seed)
    if kind == "tail":
        return gl.mc_cauchy_tail(TAIL_L, samples, seed=seed)
    if kind == "chi2diff":
        return gl.mc_chi2_diff(CHI2_EPS, samples, seed=seed)
    return gl.mc_gaussian_product(samples, seed=seed)


def check_lemma(kind: str, rep, samples: int) -> str | None:
    """Compare a report with the closed forms, at a width the 3-sigma pass rule never reaches."""
    p = rep.empirical_prob
    if rep.samples != samples or not 0.0 <= p <= 1.0:
        return f"{kind}: {rep.samples} samples, empirical probability {p}"
    if kind == "product":
        return None if p <= PRODUCT_MAX_DISTANCE else f"product: CDF distance {p:.4f}"
    if kind == "gap":
        bound = 3.0 ** (4.0 / 3.0) * (GAP_EPS / GAP_C) ** (2.0 / 3.0)
        reference, one_sided = bound, True
    elif kind == "tail":
        bound = 2.0 / (math.pi * TAIL_L)
        reference, one_sided = 1.0 - (2.0 / math.pi) * math.atan(TAIL_L), False
    else:
        bound = CHI2_EPS
        reference, one_sided = 1.0 - math.exp(-CHI2_EPS / 2.0), False
    if not math.isclose(rep.bound, bound, rel_tol=1e-12):
        return f"{kind}: bound {rep.bound} != {bound}"
    deviation = p - reference if one_sided else abs(p - reference)
    if deviation > LEMMA_SIGMAS * _binomial_sd(reference, samples):
        return f"{kind}: empirical {p:.6f} vs {reference:.6f}"
    return None


def run_lemma(gl, wl: Workload, inst: Instance) -> Outcome:
    seeds = np.random.SeedSequence(inst.op_seed).generate_state(len(layers.LEMMA_KINDS), dtype=np.uint64)
    reports = []
    start = time.perf_counter()
    try:
        for kind, seed in zip(layers.LEMMA_KINDS, seeds):
            reports.append(lemma_call(gl, kind, wl.samples, int(seed)))
    except gl.GradleakError as err:
        error = f"{type(err).__name__}: {err}"
    else:
        error = None
    ms = (time.perf_counter() - start) * 1e3
    summary = [(r.empirical_prob, r.passed) for r in reports]
    digest = hashlib.sha256(repr(summary).encode()).hexdigest()[:16] if error is None else error
    wrongs = [w for k, r in zip(layers.LEMMA_KINDS, reports) if (w := check_lemma(k, r, wl.samples))]
    return Outcome(
        ms=ms,
        verified=error is None and not wrongs,
        wrong="; ".join(wrongs) or None,
        error=error,
        checks=len(layers.LEMMA_KINDS),
        passed=sum(r.passed for r in reports),
        cost=sum(r.samples for r in reports),
        record={"passed": [r.passed for r in reports], "digest": digest},
    )


def run_op(gl, wl: Workload, inst: Instance, tracer: layers.Tracer | None = None) -> Outcome:
    run = run_extraction if wl.extracts else run_lemma
    if tracer is None:
        return run(gl, wl, inst)
    with tracer.installed():
        out = run(gl, wl, inst)
    out.layers.update(layers.operation_layers(tracer.take(), wl.mode, wl.d))
    return out


def python_reference() -> None:
    """Interpreted Python, as in the hyperplane search and finite differences."""
    acc = 0
    for i in range(60_000):
        acc += i * i


def vector_reference() -> None:
    """Passes over large arrays, as in the Monte Carlo lemma checks."""
    x = np.random.default_rng(0).standard_normal(250_000)
    np.count_nonzero(np.abs(x * x - 1.0) <= 0.1)


def timed_ms(fn) -> float:
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def child_import_s() -> float:
    """Time to import gradleak (and numpy) in a fresh interpreter."""
    probe = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import gradleak; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


class Run:
    """One workload run: set-up, measured passes, checks, metrics."""

    def __init__(self, gl, wl: Workload, seed: int, seconds: float, trace: bool, records: Path | None):
        self.gl, self.wl, self.seed, self.seconds, self.trace = gl, wl, seed, seconds, trace
        self.records = records
        self.problems: list[str] = []  # reasons the run is incorrect
        self.first: dict[int, dict] = {}  # determinism record of each instance's first run
        self.untraced: list[Outcome] = []
        self.traced: list[Outcome] = []
        self.ref_ms: list[float] = []  # reference kernel times around the untraced operations
        self.passes = 0

    def check(self, inst: Instance, out: Outcome) -> None:
        if out.wrong:
            self.problems.append(f"instance {inst.index}: wrong output: {out.wrong}")
        seen = self.first.setdefault(inst.index, out.record)
        if seen != out.record:
            self.problems.append(f"instance {inst.index}: repeat gave {out.record}, first {seen}")

    def setup(self) -> None:
        """Import, instance generation and one warm-up operation, timed SETUP_ROUNDS times."""
        rounds = []
        for _ in range(SETUP_ROUNDS):
            import_s = child_import_s()
            start = time.perf_counter()
            self.instances = build_instances(self.gl, self.wl, self.seed)
            small = dataclasses.replace(self.wl, **WARMUP_SIZE)
            warmup = build_instances(self.gl, small, WARMUP_SEED)[0]
            warmup.index = -1
            self.check(warmup, run_op(self.gl, small, warmup))
            rounds.append(import_s + time.perf_counter() - start)
        self.setup_s = statistics.median(rounds)

    def measure(self) -> None:
        tracer = layers.Tracer() if self.trace else None
        self.absent = tracer.absent if tracer else []
        reference = python_reference if self.wl.extracts else vector_reference
        if tracer is None:
            self.ref_ms.append(timed_ms(reference))
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for inst in self.instances:
                if tracer is None:
                    order = (None,)
                else:
                    order = (None, tracer) if (inst.index + self.passes) % 2 == 0 else (tracer, None)
                for tr in order:
                    out = run_op(self.gl, self.wl, inst, tr)
                    self.check(inst, out)
                    (self.untraced if tr is None else self.traced).append(out)
                if tracer is None:
                    self.ref_ms.append(timed_ms(reference))
            self.passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) > self.seconds:
                break
        for inst in self.instances[:RECHECKED]:
            self.check(inst, run_op(self.gl, self.wl, inst))
        if tracer is not None:
            # Set-up layers: regenerate the instance set under tracing, one row per net.
            with tracer.installed():
                build_instances(self.gl, self.wl, self.seed)
            self.build_rows = [layers.operation_layers([r], None, 0) for r in tracer.take()]

    def compare_records(self) -> str:
        """Check this run's records against the stored ones of the same code and workload."""
        code = hashlib.sha256(repr(self.wl).encode())
        for path in sorted((SRC / "gradleak").rglob("*.py")):
            code.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
        fingerprint = code.hexdigest()[:16]
        path = self.records / f"{self.wl.name}-seed{self.seed}.json"
        stored = {}
        if path.is_file():
            saved = json.loads(path.read_text())
            if saved.get("code") == fingerprint:
                stored = saved["instances"]
        mine = {str(k): v for k, v in sorted(self.first.items())}
        for key, rec in mine.items():
            if key in stored and stored[key] != rec:
                self.problems.append(f"instance {key}: record {rec} differs from stored {stored[key]}")
        stored.update(mine)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"code": fingerprint, "workload": self.wl.name, "seed": self.seed,
                                   "instances": stored}, indent=1, sort_keys=True) + "\n")
        tmp.replace(path)
        return str(path.relative_to(ROOT))

    def end_to_end(self) -> tuple[dict, dict]:
        """The metrics, and the wall-clock figures they are derived from."""
        outs = self.untraced
        times = [o.ms for o in outs]
        rel = [2.0 * o.ms / (before + after)
               for o, before, after in zip(outs, self.ref_ms, self.ref_ms[1:])]
        wall = {
            "op_ms_p50": statistics.median(times),
            "op_ms_tail": float(np.percentile(times, self.wl.tail_pct)),
            "ref_ms_p50": statistics.median(self.ref_ms),
            "ops_per_s": sum(o.verified for o in outs) / (sum(times) / 1e3),
            "mean_cost_per_op": statistics.fmean(o.cost for o in outs),
        }
        values = {
            "op_rel_p50": statistics.median(rel),
            "op_rel_tail": float(np.percentile(rel, self.wl.tail_pct)),
            "cost_per_op": statistics.median(o.cost for o in outs),
            "success_rate": sum(o.passed for o in outs) / sum(o.checks for o in outs),
            "setup_s": self.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return values, wall

    def per_layer(self) -> dict:
        rows = [o.layers for o in self.traced]

        def per_op(key, source=rows):
            # Counts are means, so retries show; times are medians.
            vals = [r[key] for r in source if key in r]
            average = statistics.fmean if PER_LAYER[key] == "count" else statistics.median
            return float(average(vals)) if vals else 0.0

        out = {name: per_op(name) for name in PER_LAYER}
        out["model.generate_ms"] = per_op("model.generate_ms", self.build_rows)
        out["numerics.rank_ms"] = per_op("numerics.rank_ms", self.build_rows)
        read = sum(r.get("values_read", 0) for r in rows)
        charged = sum(r.get("values_charged", 0) for r in rows)
        out["oracle.useful_value_ratio"] = read / charged if charged else 0.0
        self.value_base = {"values_read": read, "values_charged": charged, "operations": len(rows)}
        out["trace.overhead_ms"] = (
            statistics.median(o.ms for o in self.traced)
            - statistics.median(o.ms for o in self.untraced)
        )
        return out

    def execute(self) -> tuple[dict, dict]:
        self.setup()
        self.measure()
        record_path = self.compare_records() if self.records is not None else None
        if self.trace:
            values, units = self.per_layer(), PER_LAYER
        else:
            (values, wall), units = self.end_to_end(), END_TO_END
        ops = self.untraced + self.traced
        result = {
            "correct": not self.problems,
            "attempted": len(ops),
            "failed": sum(not o.verified for o in ops),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        }
        detail = {
            "workload": self.wl.name,
            "seed": self.seed,
            "trace": self.trace,
            "spec": self.wl.__dict__,
            "passes": self.passes,
            "operations": len(self.untraced),
            "tail_percentile": self.wl.tail_pct,
            "problems": self.problems[:20],
            "failures": [o.error or o.wrong or o.record for o in ops
                         if not o.verified or o.passed < o.checks][:20],
            "records": record_path,
        }
        if self.trace:
            detail["absent_wrappers"] = self.absent
            detail["not_run"] = [k for k, v in values.items() if v == 0.0]
            detail["useful_value_base"] = self.value_base
        else:
            detail["wall"] = wall
            if not self.wl.extracts:
                wall["mc_samples_per_s"] = wall["ops_per_s"] * values["cost_per_op"]
        return result, detail


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # the config layout differs across numpy releases
        pass
    loops = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        loops.append((time.perf_counter() - start) * 1e3)
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "calibration_loop_ms": statistics.median(loops),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    gl = import_library()
    machine = machine_record()
    run = Run(gl, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), RECORDS)
    result, detail = run.execute()
    detail["machine"] = machine
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
