"""Digest of extraction outcomes, to check that a change keeps them equal.

    python3 tools/outcome_digest.py [REPO_ROOT] [--records PATH]

Imports gradleak from REPO_ROOT/src (default: this checkout) and runs fixed
instance families. Smoothgrad runs at sigma=1e-9, where its samples never
straddle a cell, and in smoothgrad-6x2-blur at sigma=0.3, where they do and
the search must refuse the lines it cannot certify. For each family it
prints three lines. "family count sha256" hashes, per instance, the
gradient and value queries, the retries, the failure type and message, and
the bytes of the recovered (Z, s).
"family/models count sha256" hashes only the (Z, s) bytes, the retries and
the failure type, so a change that moves only query counts or failure
messages keeps it equal. "family/queries count ..." gives the median
gradient and value queries per instance, the number refused and the number
wrong: returned models that fail functional_equivalence at VERIFY_TOL on
VERIFY_POINTS points. A cost change thus reads as numbers, and "refused 0"
next to "wrong 0" means every instance returned a correct model. A
membership family at the true h adds "family/parity count pairs P parted K":
it runs grad on the same instances, and of the P retry-free pairs (both
returned a model on their first line), K are those where membership's value
queries are not d+1 times grad's gradient queries. "family/rounds count
median R" gives the median number of oracle requests (rounds) per instance,
over every line searched; no hash covers rounds. A last line,
"fd-exactness 3 sha256", hashes check_fd_exactness's worst error, verdict
and counterexample on acceptance criterion 6's three nets at 500 points
each. Run it on two checkouts and compare the lines.

The families named "x<scale>" multiply the generated net's output weights
by that scale, TwoLayerNet(A, w * scale), so the sign step's scaling and its
certificate run at weights far from 1; their models are verified against the
unscaled net with Z / scale, since at 1e-300 any model would pass the
relative test of f. Membership refuses the x1e-8 family: its cell test is
absolute at that size.

With --records PATH it also writes one JSON line per instance: family,
trial, gradient and value queries, rounds, retries, the failing phase (null
for a returned model), and either "model", the first 16
hex digits of the sha256 of the (Z, s) bytes, with "wrong", whether it
failed verification, or "failure", the error type and message. Joining two
checkouts' records on (family, trial) shows which instances moved.
"""

import argparse
import hashlib
import importlib
import json
import statistics
import sys
from pathlib import Path

import numpy as np

# (family, mode, d, true h, assumed h, smoothgrad sigma, instances, weight
# scale). The h=9 families are refused.
FAMILIES = (
    ("grad-16x16", "grad", 16, 16, 16, 1e-9, 300, 1.0),
    ("grad-128x8", "grad", 128, 8, 8, 1e-9, 40, 1.0),
    ("grad-256x128", "grad", 256, 128, 128, 1e-9, 20, 1.0),
    ("grad-512x256", "grad", 512, 256, 256, 1e-9, 10, 1.0),
    ("membership-20x8", "membership", 20, 8, 8, 1e-9, 50, 1.0),
    ("membership-16x16", "membership", 16, 16, 16, 1e-9, 50, 1.0),
    ("smoothgrad-12x4", "smoothgrad", 12, 4, 4, 1e-9, 100, 1.0),
    ("smoothgrad-6x2-blur", "smoothgrad", 6, 2, 2, 0.3, 60, 1.0),
    ("grad-20x8-h9", "grad", 20, 8, 9, 1e-9, 30, 1.0),
    ("membership-20x8-h9", "membership", 20, 8, 9, 1e-9, 30, 1.0),
    ("grad-12x5-x1e-300", "grad", 12, 5, 5, 1e-9, 30, 1e-300),
    ("grad-12x5-x1e-8", "grad", 12, 5, 5, 1e-9, 30, 1e-8),
    ("grad-12x5-x1e300", "grad", 12, 5, 5, 1e-9, 30, 1e300),
    ("membership-12x5-x1e-8", "membership", 12, 5, 5, 1e-9, 30, 1e-8),
)
# Acceptance criterion 6's nets (d, h, seed), at FD_POINTS points each.
FD_NETS = ((20, 8, 60), (10, 4, 61), (40, 12, 62))
FD_POINTS = 500
# Every returned model is checked against its target at these settings.
VERIFY_POINTS, VERIFY_TOL = 4096, 1e-7


def outcome(gl, mode, d, h, assumed_h, sigma, trial, scale) -> tuple[bytes, bytes, dict]:
    """(full outcome, model outcome, record) of one instance."""
    net_seed, sg_seed, cfg_seed = (
        int(s) for s in np.random.SeedSequence([8100, d, h, trial]).generate_state(3, dtype=np.uint64)
    )
    net = gl.generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=net_seed)
    scaled = gl.TwoLayerNet(net.A, net.w * scale)
    oracle = gl.Oracle(scaled, mode=mode, sg=gl.SmoothGradConfig(sigma=sigma, n_samples=3, seed=sg_seed))
    try:
        report = gl.learn_model(oracle, gl.ExtractionConfig(assumed_h, delta=0.1, c=0.01, seed=cfg_seed))
        result = model = report.model.Z.tobytes() + np.asarray(report.model.s, dtype=np.int64).tobytes()
        unscaled = gl.RecoveredModel(Z=report.model.Z / scale, s=report.model.s)
        wrong = not gl.functional_equivalence(net, unscaled, VERIFY_POINTS, VERIFY_TOL, seed=trial).passed
        retries, phase = report.retries, None
        verdict = {"model": hashlib.sha256(model).hexdigest()[:16], "wrong": wrong}
    except gl.GradleakError as err:
        result = f"{type(err).__name__}: {err}".encode()
        model = type(err).__name__.encode()
        run = getattr(err, "report", None) or err  # older checkouts annotate the error itself
        retries, phase, verdict = run.retries, run.phase, {"failure": result.decode()}
    ledger = oracle.ledger
    full = f"{ledger.gradient_queries} {ledger.value_queries} {retries} ".encode() + result
    record = {
        "gradient_queries": ledger.gradient_queries,
        "value_queries": ledger.value_queries,
        "rounds": getattr(ledger, "rounds", None),  # not metered by older checkouts
        "retries": retries,
        "phase": phase,
        **verdict,
    }
    return full, f"{retries} ".encode() + model, record


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("root", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--records", type=Path, help="write one JSON line per instance to this file")
    args = parser.parse_args()
    sys.path.insert(0, str(args.root / "src"))
    gl = importlib.import_module("gradleak")
    records = []
    for family, mode, d, h, assumed_h, sigma, count, scale in FAMILIES:
        digest, models, costs = hashlib.sha256(), hashlib.sha256(), []
        for trial in range(count):
            full, model, record = outcome(gl, mode, d, h, assumed_h, sigma, trial, scale)
            digest.update(full)
            models.update(model)
            costs.append(
                (record["gradient_queries"], record["value_queries"], "failure" in record, record.get("wrong", False))
            )
            records.append({"family": family, "trial": trial, **record})
        gradients, values, refused, wrong = zip(*costs)
        print(family, count, digest.hexdigest())
        print(f"{family}/models", count, models.hexdigest())
        print(
            f"{family}/queries", count, "median gradient", statistics.median(gradients),
            "value", statistics.median(values), "refused", sum(refused), "wrong", sum(wrong),
        )
        rounds = [r["rounds"] for r in records[-count:]]
        if None not in rounds:
            print(f"{family}/rounds", count, "median", statistics.median(rounds))
        if mode == "membership" and assumed_h == h:
            pairs = parted = 0
            for trial, record in enumerate(records[-count:]):
                grad = outcome(gl, "grad", d, h, h, sigma, trial, scale)[2]
                if all(r["retries"] == 0 and "failure" not in r for r in (record, grad)):
                    pairs += 1
                    parted += record["value_queries"] != (d + 1) * grad["gradient_queries"]
            print(f"{family}/parity", count, "pairs", pairs, "parted", parted)
    fd = hashlib.sha256()
    for d, h, seed in FD_NETS:
        net = gl.generate_random_net(d, h, c_min=0.1, w_min=0.1, seed=seed)
        report = gl.check_fd_exactness(net, gl.FiniteDiffConfig(eta=1e-2), FD_POINTS, seed=seed)
        counterexample = b"" if report.counterexample is None else report.counterexample.tobytes()
        fd.update(f"{report.max_rel_error.hex()} {report.passed} ".encode() + counterexample)
    print("fd-exactness", len(FD_NETS), fd.hexdigest())
    if args.records:
        args.records.write_text("".join(json.dumps(record) + "\n" for record in records))


if __name__ == "__main__":
    main()
