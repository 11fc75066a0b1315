"""Outside-in layer trace for deltatower.

Wraps public functions of the package by rebinding each name where its
callers look it up (every ``deltatower`` module that imported it, the
class for methods, and ``gridcheck.ALL_PROPERTIES`` for the grid
properties).  No source file of the package changes.

Each wrapped call is a span (name, start, end, parent).  Self time is the
span's duration minus the time its child spans cover, accumulated per
name as calls happen.  Spans of at least ``KEEP_SPAN_S`` are also kept in
memory and written out at the end; shorter ones (millions of polynomial
multiplications) are only counted, so memory stays bounded.
"""

from __future__ import annotations

import json
import sys
import time

KEEP_SPAN_S = 1e-3

# (metric prefix, module, attribute) for module-level functions
FUNCTIONS = [
    ("polyring.poly_gcd", "polyring", "poly_gcd"),
    ("polyring.exact_div", "polyring", "exact_div"),
    ("tower.derive", "tower", "derive"),
    ("tower.d_twist", "tower", "d_twist"),
    ("tower.logd", "tower", "logd"),
    ("tower.eval_series", "tower", "eval_series"),
    ("operators.apply_operator", "operators", "apply_operator"),
    ("operators.expand", "operators", "expand"),
    ("operators.decompose", "operators", "decompose"),
    ("operators.solve_prolonged", "operators", "solve_prolonged"),
    ("relations.certify_independence", "relations", "certify_independence"),
    ("relations.reduce_step", "relations", "reduce_step"),
    ("relations.series_rank_check", "relations", "series_rank_check"),
    ("textio.parse_element", "textio", "parse_element"),
    ("grid.closure", "grid", "closure"),
    ("grid.reduction", "grid", "reduction"),
    ("grid.coreduction", "grid", "coreduction"),
    ("grid.analysis_by_reductions", "grid", "analysis_by_reductions"),
    ("grid.analysis_by_coreductions", "grid", "analysis_by_coreductions"),
]

# (metric prefix, module, class, method)
METHODS = [
    ("polyring.mul", "polyring", "Poly", "__mul__"),
    ("polyring.lead", "polyring", "Poly", "lead"),
    ("series.mul", "series", "Series", "__mul__"),
    ("series.div", "series", "Series", "__truediv__"),
    ("series.exp", "series", "Series", "exp"),
    ("relations.functionals", "relations", "MonomialRelation", "functionals"),
    ("relations.replay", "relations", "ReductionTrace", "replay"),
]

CANON = "elements.canon"

# the ten properties of ``grid verify``, in report order
GRID_PROPERTIES = [
    "closure_axioms",
    "urank_additivity",
    "reduction_maximality",
    "coreduction_uniqueness",
    "analyses_minimal",
    "equal_utype_canonical",
    "incompressible_ones_minimal",
    "local_criterion_reductions",
    "local_criterion_coreductions",
    "column_chain_length",
]

CHECK_KINDS = ["kernel", "genericity", "expand_symmetry", "expand_apply", "independence"]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units: dict[str, str] = {}
    for name in [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS] + [CANON]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["polyring.poly_gcd.max_terms"] = "count"
    units["polyring.exact_div.miss_share"] = "share"
    units[f"{CANON}.gcd_share"] = "share"
    for prop in GRID_PROPERTIES:
        units[f"gridcheck.{prop}.self_s"] = "s"
        units[f"gridcheck.{prop}.instances"] = "count"
    for kind in CHECK_KINDS:
        units[f"cli.check.{kind}.ms"] = "ms"
    units["trace.overhead"] = "share"
    units["trace.unfinished_ops"] = "count"
    return units


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, span id, start, time covered by children]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.extra: dict[str, float] = {}
        self.next_id = 0

    def enter(self, name: str) -> None:
        self.next_id += 1
        self.stack.append([name, self.next_id, time.perf_counter(), 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        name, span_id, start, covered = self.stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if duration >= KEEP_SPAN_S:
            self.spans.append((span_id, parent[1] if parent else 0, name, start, end))

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def bump(self, key: str, value: float = 1.0) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value

    def close_open_spans(self) -> None:
        """Close spans still open (the process is being stopped)."""
        while self.stack:
            self.leave()

    def dump(self, path: str) -> None:
        doc = {
            "calls": self.calls,
            "self_s": self.self_s,
            "extra": self.extra,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                for s in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(old, new) -> None:
    """Point every deltatower module-level name bound to ``old`` at ``new``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "deltatower" or modname.startswith("deltatower.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of an imported deltatower package."""
    import importlib

    import deltatower.cli  # noqa: F401  (load every module that binds the names)

    mods = {
        name: importlib.import_module(f"deltatower.{name}")
        for name in ("polyring", "elements", "tower", "operators", "relations",
                     "series", "textio", "grid", "gridcheck")
    }

    for name, mod, attr in FUNCTIONS:
        orig = getattr(mods[mod], attr)
        if name == "polyring.poly_gcd":
            wrapped = _gcd_wrapper(tracer, orig)
        elif name == "polyring.exact_div":
            wrapped = _exact_div_wrapper(tracer, orig)
        else:
            wrapped = tracer.wrap(name, orig)
        _rebind(orig, wrapped)

    for name, mod, cls_name, meth in METHODS:
        cls = getattr(mods[mod], cls_name)
        setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))

    element = mods["elements"].Element
    element.__init__ = _canon_wrapper(tracer, element.__init__)

    gridcheck = mods["gridcheck"]
    for k, (prop, fn, cap) in enumerate(gridcheck.ALL_PROPERTIES):
        gridcheck.ALL_PROPERTIES[k] = (prop, _property_wrapper(tracer, prop, fn), cap)


def _gcd_wrapper(tracer: Tracer, fn):
    name = "polyring.poly_gcd"

    def poly_gcd(p, q):
        terms = max(len(p.terms), len(q.terms))
        if terms > tracer.extra.get("poly_gcd.max_terms", 0):
            tracer.extra["poly_gcd.max_terms"] = terms
        tracer.enter(name)
        try:
            return fn(p, q)
        finally:
            tracer.leave()

    return poly_gcd


def _exact_div_wrapper(tracer: Tracer, fn):
    name = "polyring.exact_div"

    def exact_div(p, q):
        tracer.enter(name)
        try:
            result = fn(p, q)
        finally:
            tracer.leave()
        if result is None:
            tracer.bump("exact_div.misses")
        return result

    return exact_div


def _canon_wrapper(tracer: Tracer, fn):
    """Time non-trusted Element constructions and note which reach gcd."""

    def __init__(self, *args, **kwargs):
        if kwargs.get("_canonical"):
            return fn(self, *args, **kwargs)
        gcd_before = tracer.calls.get("polyring.poly_gcd", 0)
        tracer.enter(CANON)
        try:
            fn(self, *args, **kwargs)
        finally:
            tracer.leave()
            if tracer.calls.get("polyring.poly_gcd", 0) > gcd_before:
                tracer.bump("canon.gcd_hits")

    return __init__


def _property_wrapper(tracer: Tracer, prop: str, fn):
    name = f"gridcheck.{prop}"

    def check(max_cells):
        tracer.enter(name)
        try:
            report = fn(max_cells)
        finally:
            tracer.leave()
        tracer.bump(f"{prop}.instances", report.instances)
        return report

    return check


def merge(docs: list[dict]) -> dict:
    """Sum trace dumps of several processes (max for maxima)."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    extra: dict[str, float] = {}
    for doc in docs:
        for k, v in doc["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in doc["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in doc["extra"].items():
            extra[k] = max(extra.get(k, 0.0), v) if k.endswith("max_terms") else extra.get(k, 0.0) + v
    return {"calls": calls, "self_s": self_s, "extra": extra}


def layer_metrics(merged: dict) -> dict[str, float]:
    """Per-layer metric values (zero where a layer was not reached)."""
    calls, self_s, extra = merged["calls"], merged["self_s"], merged["extra"]
    out: dict[str, float] = {}
    for name in [f[0] for f in FUNCTIONS] + [m[0] for m in METHODS] + [CANON]:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["polyring.poly_gcd.max_terms"] = extra.get("poly_gcd.max_terms", 0)
    out["polyring.exact_div.miss_share"] = _share(
        extra.get("exact_div.misses", 0), calls.get("polyring.exact_div", 0)
    )
    out[f"{CANON}.gcd_share"] = _share(extra.get("canon.gcd_hits", 0), calls.get(CANON, 0))
    for prop in GRID_PROPERTIES:
        out[f"gridcheck.{prop}.self_s"] = self_s.get(f"gridcheck.{prop}", 0.0)
        out[f"gridcheck.{prop}.instances"] = extra.get(f"{prop}.instances", 0)
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
