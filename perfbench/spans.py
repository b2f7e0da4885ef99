"""In-memory span recorder for the traced benchmark run.

`Tracer.install()` puts an import hook in front of dr2calc's submodules.  As
each one finishes executing, the hook replaces its public functions listed in
SPANNED (and the check functions in `checks.CHECKS`) with wrappers that record
a span, and counts calls of the PolyQ arithmetic methods in COUNTED.  A module
that binds a name with `from .chow import multiply_divisors` executes after
chow is wrapped, so it binds the wrapper: every call site in the package is
visible, including import-time calls such as the relation echelons that chow
and ct compute with `linalg.reduced_echelon`.  What stays invisible are calls
a module makes to its own functions while it is still being imported, before
the hook wraps them, and all private helpers.

A span is [name, start, end, parent, op]: perf_counter seconds, the index of
the enclosing span in the same process (-1 for none) and the operation id the
benchmark assigned.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterable, List

from inputs import CHECK_NAMES

SPANNED: Dict[str, tuple] = {
    "cli": ("main",),
    "surfaces": ("builtin_surfaces", "fixture_checksums", "equation_row"),
    "solver": ("full_system", "solve_parametric", "redundancy_report"),
    "linalg": ("rank", "solve_unique", "row_dependencies", "reduced_echelon"),
    "polyq": ("poly_interpolate",),
    "chow": ("multiply_divisors", "expand_product", "reduce_to_basis", "dr2_class"),
    "ct": ("reduce_ct", "restrict_to_ct", "hain_class", "verify_hac", "derive_decorated_rows"),
    "m21": (
        "pushforward",
        "pushforward_class_formula",
        "classify_effective_cone",
        "chi_pullback_pipeline",
    ),
    "cones": ("ci_obstruction", "cone_decomposition"),
}

# PolyQ methods are counted, not timed: a span per arithmetic operation would
# cost more than the operation and distort every self time above it.
COUNTED = {
    "init": ("__init__",),
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "eval": ("__call__",),
}


IMPORT_SPAN = "cli.import"


def span_names() -> List[str]:
    """Every span name a traced run can record."""
    names = [f"{layer}.{fn}" for layer, fns in SPANNED.items() for fn in fns]
    return names + [f"checks.{name}" for name in CHECK_NAMES]


class _InstrumentingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: "Tracer"):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("dr2calc."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        execute = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            execute(module)
            tracer.instrument(module)

        spec.loader.exec_module = exec_module
        return spec


class Tracer:
    """Records spans and PolyQ call counts for one process."""

    def __init__(self, op: int = 0):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.op = op
        self.paused = False
        self._stack: List[int] = []
        self._wrapped: Dict[int, object] = {}

    def install(self) -> None:
        if "dr2calc" in sys.modules:
            raise RuntimeError("install the tracer before importing dr2calc")
        sys.meta_path.insert(0, _InstrumentingFinder(self))

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        if self.paused:
            yield
            return
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    @contextmanager
    def pause(self):
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def instrument(self, module) -> None:
        """Wrap a freshly executed dr2calc submodule, then rebind in it every
        name that refers to a function wrapped earlier."""
        layer = module.__name__.rsplit(".", 1)[1]
        for fn_name in SPANNED.get(layer, ()):
            original = getattr(module, fn_name)
            self._wrapped[id(original)] = self._span_wrapper(f"{layer}.{fn_name}", original)
        if layer == "checks":
            for check, original in list(module.CHECKS.items()):
                wrapper = self._span_wrapper(f"checks.{check}", original)
                self._wrapped[id(original)] = wrapper
                module.CHECKS[check] = wrapper
        if layer == "polyq":
            cls = module.PolyQ
            for key, methods in COUNTED.items():
                wrapper = self._count_wrapper(f"polyq.PolyQ.{key}", getattr(cls, methods[0]))
                for method in methods:
                    setattr(cls, method, wrapper)
        for attr, value in list(vars(module).items()):
            wrapper = self._wrapped.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def self_times(spans: Iterable[list]) -> List[float]:
    """Duration minus the time covered by direct children, per span.

    Spans of one process nest without overlapping, so the direct children's
    durations are exactly the covered part of the parent's interval.
    """
    spans = list(spans)
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def aggregate(processes: Iterable[dict]) -> Dict[str, float]:
    """Per-layer metrics summed over the dumps of several processes."""
    names = span_names()
    out: Dict[str, float] = {"cli.import_s": 0.0}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for key in COUNTED:
        out[f"polyq.PolyQ.{key}.calls"] = 0
    for dump in processes:
        spans = dump["spans"]
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            if name == IMPORT_SPAN:
                out["cli.import_s"] += end - start
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        for key, value in dump["counts"].items():
            out[f"{key}.calls"] += value
    return out
