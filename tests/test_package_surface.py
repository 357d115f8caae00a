"""The package surface that the benchmark in perfbench/ reads and patches."""

import importlib.util
import re
from pathlib import Path

import gradleak

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The linear program and simplex were deleted with closed-form sign points;
# perfbench still lists them, and their metrics read 0.
DELETED_LP = {"gradleak.geometry.chebyshev_center", "gradleak.geometry.simplex_maximize"}


def test_every_name_perfbench_uses_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    # A patched name that no longer resolves makes a per-layer metric read 0.
    assert set(layers.Tracer().absent) <= DELETED_LP
    names = set(re.findall(r"\bgl\.([A-Za-z_]\w*)", (PERFBENCH / "run.py").read_text()))
    assert names
    assert sorted(n for n in names if not hasattr(gradleak, n)) == []
