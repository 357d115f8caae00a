"""The package surface that the benchmark in perfbench/ reads and patches, and its layering."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import gradleak
import gradleak.extraction
import gradleak.geometry
import gradleak.model
import gradleak.validation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src" / "gradleak"

# Names perfbench patches that no longer resolve. The linear program and
# simplex were deleted with closed-form sign points. recover_s and
# sign_query_points moved to gradleak.geometry; their spans
# (extraction.sign_ms, geometry.sign_points_ms) already read 0 on every
# workload, since learn_model stopped calling them when the signs began to
# come from the search line's end gradients. Oracle.gradient_with_value was
# deleted when finite differences moved to the attacker's side; its span
# already read 0, as the search had stopped calling it when it began to send
# batched requests. extraction stopped importing solve_linear_system when the
# end signs moved to one Cholesky-checked Gram solve, so numerics.solve reads
# 0 on the grad workloads. Oracle.value and Oracle.gradient, the single-point
# forms of values and gradients, were deleted once nothing outside the tests
# called them; their spans (oracle.value, oracle.gradient) already read 0 on
# every workload, as every request was already batched. Only a change to the
# benchmark may drop these patches.
ABSENT = {
    "gradleak.geometry.chebyshev_center",
    "gradleak.geometry.simplex_maximize",
    "gradleak.extraction.recover_s",
    "gradleak.extraction.sign_query_points",
    "gradleak.extraction.solve_linear_system",
    "gradleak.oracle.Oracle.gradient_with_value",
    "gradleak.oracle.Oracle.value",
    "gradleak.oracle.Oracle.gradient",
}

# The attack path, which must not import the paper's reference sign step.
ATTACK_PATH = ("extraction", "oracle", "model")


def test_every_name_perfbench_uses_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    # A patched name that no longer resolves makes a per-layer metric read 0.
    assert set(layers.Tracer().absent) == ABSENT
    names = set(re.findall(r"\bgl\.([A-Za-z_]\w*)", (PERFBENCH / "run.py").read_text()))
    assert names
    assert sorted(n for n in names if not hasattr(gradleak, n)) == []


@pytest.fixture
def perfbench_run(monkeypatch):
    """perfbench/run.py, loaded with perfbench/ on sys.path as the benchmark runs it.

    run.py pins the BLAS thread variables at import, so os.environ is restored
    afterwards, and the layers module it imports is dropped.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    environ = dict(os.environ)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
    try:
        spec.loader.exec_module(run)
        yield run
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.modules.pop("layers", None)


def test_benchmark_extraction_step_runs_against_the_library(perfbench_run):
    # run_extraction reads the report's retries and model, and the error's
    # type and message: a refactor that drops one fails every grad run.
    run = perfbench_run
    net = gradleak.generate_random_net(12, 4, c_min=run.C_MIN, w_min=run.W_MIN, seed=3)
    inst = run.Instance(0, net, op_seed=5, check_seed=7)
    outcome = run.run_extraction(gradleak, run.Workload("grad-12x4", 1, 75, mode="grad", d=12, h=4), inst)
    assert outcome.verified and outcome.error is None and outcome.wrong is None
    assert outcome.layers["extraction.search_attempts"] == outcome.record["retries"] + 1
    assert outcome.cost == outcome.record["gradient_queries"] > 0

    # An assumed width above the true one is refused, as a failed operation.
    outcome = run.run_extraction(gradleak, run.Workload("grad-12x5", 1, 75, mode="grad", d=12, h=5), inst)
    assert not outcome.verified and outcome.passed == 0
    assert outcome.error.startswith("ExtractionFailure: ")
    assert outcome.record["retries"] is None


def _imported_modules(path):
    """The dotted name of everything the file's import statements import, relative ones with their dots."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{'.' * node.level}{node.module or ''}.{alias.name}" for alias in node.names)


def test_reference_sign_step_lives_in_geometry_alone():
    for name in ATTACK_PATH:
        imported = list(_imported_modules(SRC / f"{name}.py"))
        assert imported, name
        assert not [m for m in imported if "geometry" in m.split(".")], name
    assert not hasattr(gradleak.extraction, "recover_s")
    assert not hasattr(gradleak.extraction, "sign_query_points")
    assert importlib.util.find_spec("gradleak.numerics") is None
    for name in ("recover_s", "block_sign_matrix", "sign_query_points", "solve_linear_system"):
        assert getattr(gradleak, name) is getattr(gradleak.geometry, name)
    assert gradleak.rank_with_tolerance is gradleak.model.rank_with_tolerance


def test_end_signs_need_no_svd_solve():
    # The attack's sign step is one Gram solve with its own checks; the SVD
    # solve and the rounding certificate of the 2h x 2h block system serve
    # recover_s alone, in geometry.
    for name in ("_HALVES", "_signs", "_solve", "solve_linear_system"):
        assert not hasattr(gradleak.extraction, name), name
    assert not [m for m in _imported_modules(SRC / "extraction.py") if m.endswith(".solve_linear_system")]
    assert callable(gradleak.geometry._signs)
    assert callable(gradleak.geometry._solve)


def test_oracle_serves_values_and_gradients_alone():
    # Its two request methods, neither of which takes a finite-difference
    # step: a membership attacker estimates gradients with
    # extraction.finite_differences. Beside them an oracle shows d, and exact
    # and sigma, how its gradients compare; the rest is what it was built
    # from (net, mode, sg) and its ledger.
    requests = {"values", "gradients"}
    oracle = gradleak.Oracle(gradleak.generate_random_net(3, 2, seed=0))
    public = {name for name in dir(oracle) if not name.startswith("_")}
    assert public == requests | {"d", "exact", "sigma"} | {"net", "mode", "sg", "ledger"}
    for name in requests:
        assert "eta" not in inspect.signature(getattr(gradleak.Oracle, name)).parameters
    assert not hasattr(gradleak.Oracle, "gradients_with_values")
    assert not hasattr(gradleak.Oracle, "gradient_with_value")
    assert not hasattr(gradleak.oracle, "DEFAULT_FD_ETA")
    assert not hasattr(gradleak, "finite_differences")
    assert gradleak.FiniteDiffConfig is gradleak.validation.FiniteDiffConfig


def _code_names(func):
    """Every identifier in the function's code: names, attributes, parameters and definitions, not its docstring."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func))).body[0]
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            else:
                yield from (getattr(node, field, None) for field in ("id", "attr", "arg"))


def test_search_line_holds_no_mode():
    # Each request form (extraction._GradientForm, _FiniteDifferenceForm) owns
    # its request, cell test and probe margin, and _form picks one from the
    # oracle's mode. The search loop reads the form alone, so a new form adds
    # a class, not a branch in the loop.
    names = set(_code_names(gradleak.extraction._search_line)) - {None}
    assert {"cfg", "uv", "split", "bracket", "divide"} <= names
    forbidden = {"mode", "exact", "sigma", "finite_differences", "_fits", "GRAD_CHANGE_TOL", "BLUR_SIGMAS", "REFINE_ETA"}
    assert names & forbidden == set()


def _argument_type_checks(path):
    """The bool, bool_ and integer types named in the file's isinstance calls."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            for sub in ast.walk(node.args[1]):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name in ("bool", "bool_", "integer"):
                    yield name


def _is_bound(node):
    """A number written into the code: a constant, inf or a negated one."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)) or getattr(node, "attr", None) == "inf"


def _inline_range_checks(path):
    """Each `if` that raises on a comparison of a number argument with a bound, as 'function: argument'.

    A number argument is a float-annotated parameter, a float-annotated
    dataclass field read as self.field, or the value _number returned.
    """
    tree = ast.parse(path.read_text())
    fields = {
        target.id
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for stmt in cls.body if isinstance(stmt, ast.AnnAssign) and "float" in ast.unparse(stmt.annotation)
        for target in [stmt.target]
    }
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        params = {a.arg for a in func.args.args + func.args.kwonlyargs if a.annotation and "float" in ast.unparse(a.annotation)}
        for stmt in ast.walk(func):
            if not (isinstance(stmt, ast.If) and any(isinstance(n, ast.Raise) for n in stmt.body)):
                continue
            for cmp in (n for n in ast.walk(stmt.test) if isinstance(n, ast.Compare)):
                operands = [cmp.left, *cmp.comparators]
                if not any(map(_is_bound, operands)):
                    continue
                for op in operands:
                    if (
                        (isinstance(op, ast.Name) and op.id in params)
                        or (isinstance(op, ast.Attribute) and getattr(op.value, "id", None) == "self" and op.attr in fields)
                        or (isinstance(op, ast.Call) and getattr(op.func, "id", None) == "_number")
                    ):
                        yield f"{func.name}: {ast.unparse(op)}"


def test_argument_rules_live_in_model_alone():
    # Counts, seeds and numbers are checked by model's _count, _seed and
    # _number: a second copy of a rule drifts from the first in what it
    # accepts and in its message. _number takes the range too, so no code
    # compares a number argument with a bound itself.
    found = {path.name: sorted(set(_argument_type_checks(path))) for path in SRC.glob("*.py")}
    assert found.pop("model.py") == ["bool", "bool_", "integer"]
    assert {name: types for name, types in found.items() if types} == {}
    inline = {path.name: list(_inline_range_checks(path)) for path in SRC.glob("*.py")}
    assert {name: checks for name, checks in inline.items() if checks} == {}
    assert not hasattr(gradleak.model, "_integer")
    assert not hasattr(gradleak.validation, "_check_samples")


def test_inline_range_checks_are_found(tmp_path):
    # The three phrasings the range rule replaced, and one the rule allows.
    path = tmp_path / "sample.py"
    path.write_text(
        "from dataclasses import dataclass\n"
        "def a(delta: float, c: float, n: int):\n"
        "    if not 0.0 < _number(delta, 'delta') < 1.0:\n"
        "        raise ValueError('delta')\n"
        "    if not 0.0 < c <= 1.0:\n"
        "        raise ValueError('c')\n"
        "    if n < 1:\n"
        "        raise ValueError('n')\n"
        "    return 0.0 if c > 0.5 else 1.0\n"
        "@dataclass\n"
        "class B:\n"
        "    sigma: float = 0.0\n"
        "    def __post_init__(self):\n"
        "        if not 0.0 <= self.sigma < math.inf:\n"
        "            raise ValueError('sigma')\n"
    )
    assert list(_inline_range_checks(path)) == ["a: _number(delta, 'delta')", "a: c", "__post_init__: self.sigma"]


def test_import_loads_no_executor_or_logging():
    # concurrent.futures loads logging, which would cost every import of the
    # package and every lemma run: the checks run their workers on plain
    # threads. pytest has loaded logging already, so the import and the
    # checks, at two blocks on two workers, run in a fresh interpreter.
    code = textwrap.dedent(
        """
        import sys, gradleak
        from gradleak import validation
        validation._cpu_count = lambda: 2
        samples = validation._BLOCK + 1
        assert validation._layout(samples) == (2, 2)
        gradleak.mc_crossing_gap(0.5, 1e-3, samples, seed=0)
        gradleak.mc_cauchy_tail(10.0, samples, seed=0)
        gradleak.mc_chi2_diff(0.1, samples, seed=0)
        gradleak.mc_gaussian_product(samples, seed=0)
        print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
