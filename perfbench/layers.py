"""Per-layer tracing from outside the library.

Spans are recorded by wrapping library functions at the names the library
looks them up by: ``extraction`` binds ``sign_query_points`` and
``solve_linear_system`` by name, so they are patched on ``gradleak.extraction``;
the Chebyshev center and the simplex are patched on ``gradleak.geometry``.
Wrappers are installed only around traced operations and removed afterwards,
so untraced timings run the library's own functions. A wrapped function that
no longer exists is listed as absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute path, span name). A span's layer is its name's prefix.
PATCHES = (
    ("gradleak", "generate_random_net", "model.generate"),
    ("gradleak.model", "rank_with_tolerance", "numerics.rank"),
    ("gradleak.extraction", "recover_z", "extraction.search"),
    ("gradleak.extraction", "recover_s", "extraction.sign"),
    ("gradleak.extraction", "sign_query_points", "geometry.sign_points"),
    ("gradleak.extraction", "solve_linear_system", "numerics.solve"),
    ("gradleak.geometry", "chebyshev_center", "geometry.cell"),
    ("gradleak.geometry", "simplex_maximize", "geometry.lp"),
    ("gradleak.oracle", "Oracle.value", "oracle.value"),
    ("gradleak.oracle", "Oracle.gradient", "oracle.gradient"),
    ("gradleak.oracle", "Oracle.gradient_with_value", "oracle.gradient_with_value"),
    ("gradleak", "functional_equivalence", "validation.verify"),
    ("gradleak", "match_rows", "validation.verify"),
    ("gradleak", "mc_crossing_gap", "validation.mc.gap"),
    ("gradleak", "mc_cauchy_tail", "validation.mc.tail"),
    ("gradleak", "mc_chi2_diff", "validation.mc.chi2diff"),
    ("gradleak", "mc_gaussian_product", "validation.mc.product"),
)

ORACLE_SPANS = ("oracle.value", "oracle.gradient", "oracle.gradient_with_value")
LEMMA_KINDS = ("gap", "tail", "chi2diff", "product")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Span:
    __slots__ = ("name", "parent", "start", "end", "children")

    def __init__(self, name: str, parent: Span | None):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def self_ms(self) -> float:
        """Duration minus the time covered by spans of other layers below it."""
        return self.ms - self._foreign_ms(_layer(self.name))

    def _foreign_ms(self, layer: str) -> float:
        return sum(
            c.ms if _layer(c.name) != layer else c._foreign_ms(layer) for c in self.children
        )


class Tracer:
    """Keeps spans in memory while installed; take() hands them over."""

    def __init__(self):
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.absent: list[str] = []
        self._targets = []
        for module_name, path, span_name in PATCHES:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._targets.append((owner, attr, getattr(owner, attr), span_name))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent)
            (parent.children if parent else self.roots).append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        for owner, attr, original, name in self._targets:
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)

    def take(self) -> list[Span]:
        roots, self.roots = self.roots, []
        return roots


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span.children)


def operation_layers(roots: list[Span], mode: str | None, d: int) -> dict:
    """Per-layer counts and times of one traced operation.

    Oracle calls are counted at the outermost oracle span only: in the exact
    modes ``gradient_with_value`` calls ``gradient`` and ``value`` itself.
    Values the attack reads: one per ``value`` or ``gradient_with_value`` call
    (the search keeps only the base value of the latter), d+1 per
    finite-difference ``gradient`` call.
    """
    spans = list(_walk(roots))

    def named(name):
        return [s for s in spans if s.name == name]

    def total_ms(name):
        return sum(s.ms for s in named(name))

    outer = [
        s for s in spans
        if s.name in ORACLE_SPANS and not (s.parent and s.parent.name in ORACLE_SPANS)
    ]
    values = sum(s.name == "oracle.value" for s in outer)
    gwv = sum(s.name == "oracle.gradient_with_value" for s in outer)
    grads = len(outer) - values
    fd = mode == "membership"
    points = len(named("geometry.sign_points"))
    out = {
        "oracle.gradient_calls": grads,
        "oracle.value_calls": values,
        "oracle.fd_requests": grads if fd else 0,
        "oracle.busy_ms": sum(s.ms for s in outer),
        "values_read": values + gwv + ((grads - gwv) * (d + 1) if fd else 0),
        "extraction.search_ms": total_ms("extraction.search"),
        "extraction.search_self_ms": sum(s.self_ms() for s in named("extraction.search")),
        "extraction.sign_ms": total_ms("extraction.sign"),
        "extraction.sign_self_ms": sum(s.self_ms() for s in named("extraction.sign")),
        "geometry.sign_points_ms": total_ms("geometry.sign_points"),
        "geometry.lp_ms": total_ms("geometry.lp"),
        "geometry.lp_calls": len(named("geometry.lp")),
        "geometry.cell_draws": len(named("geometry.cell")) / points if points else 0.0,
        "numerics.solve_ms": total_ms("numerics.solve"),
        "numerics.rank_ms": total_ms("numerics.rank"),
        "model.generate_ms": total_ms("model.generate"),
        "validation.verify_ms": total_ms("validation.verify"),
    }
    for kind in LEMMA_KINDS:
        if named(f"validation.mc.{kind}"):
            out[f"validation.mc_ms.{kind}"] = total_ms(f"validation.mc.{kind}")
    return out
