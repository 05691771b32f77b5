"""Outside-in tracing of the vcsndp layers, from the benchmark's own files.

Hooks replace a function at the module attribute where its callers look it
up: `from x import f` copies the binding, so patching only the defining
module would miss calls. Each call becomes a span (name, start, end,
parent) tagged with the benchmark item it belongs to. The `--jobs` pool
threads do not inherit context, so spans carry the item set on the tracer
by the single benchmark client, and a pool thread's outermost span takes
the main thread's innermost open span as its parent. Layer times are busy
time: under the pool each thread's span counts, including time it waits
for the interpreter lock, so a child layer can exceed its parent's wall
time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    item: str | None
    name: str
    start: float
    end: float
    attrs: dict | None = None


def _pipeline_attrs(args, result):
    return {"records": len(result.records),
            "subsets": result.family.params.p,
            "active_subsets": sum(rec.multiplicity for rec in result.records),
            "resamples": result.resamples_used}


def _solve_attrs(args, result):
    return {"deviation": bool(result[1].theory_deviation)}


def _goodness_attrs(args, result):
    return {"good": bool(result.good)}


def _maxflow_attrs(args, result):
    # the last arc added is an edge arc: a Fraction capacity in the LP
    # separation network, an int in the integral connectivity networks
    net = args[0]
    return {"arcs": len(net.heads) // 2,
            "fraction": bool(net.orig) and type(net.orig[-2]) is Fraction}


# (span name, module, attribute path, annotate)
HOOKS = (
    ("pipeline.solve", "vcsndp.cli", "solve_pipeline", _pipeline_attrs),
    ("pipeline.feasibility", "vcsndp.pipeline", "check_instance_feasible", None),
    ("family.sample", "vcsndp.family", "sample_family", None),
    ("family.goodness", "vcsndp.family", "is_good_family_general",
     _goodness_attrs),
    ("family.goodness", "vcsndp.family", "is_good_family_single_source",
     _goodness_attrs),
    ("element.solve", "vcsndp.pipeline", "solve_iterative_rounding",
     _solve_attrs),
    ("element.lp", "vcsndp.element", "solve_lp", None),
    ("element.linprog", "vcsndp.element", "linprog", None),
    ("element.check", "vcsndp.element", "element_connectivity_pair", None),
    ("connectivity.separation", "vcsndp.element", "fractional_element_mincut",
     None),
    ("connectivity.verify", "vcsndp.pipeline", "verify_vc_solution", None),
    ("connectivity.verify", "vcsndp.cli", "verify_vc_solution", None),
    ("connectivity.vertex_conn", "vcsndp.pipeline", "vertex_connectivity_pair",
     None),
    ("connectivity.vertex_conn", "vcsndp.connectivity",
     "vertex_connectivity_pair", None),
    ("maxflow.max_flow", "vcsndp.maxflow", "CapacitatedNetwork.max_flow",
     _maxflow_attrs),
)


class Tracer:
    """Collects spans while installed; `item` names the item in flight."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.item: str | None = None
        self._ids = itertools.count(1)
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, self.item, name, start, end,
                                   attrs))

    def _wrap(self, name, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            with tracer.span(name, attrs):
                result = fn(*args, **kwargs)
            # annotation runs after the span closes, so its cost falls in
            # the parent's self time; annotators read O(1) or per-class
            # fields only
            if annotate is not None:
                attrs.update(annotate(args, result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every hook target for the duration; report absent ones."""
        undo = []
        self.missing = []
        try:
            for name, module, path, annotate in self.hooks:
                try:
                    owner = importlib.import_module(module)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module}.{path}")
                    continue
                setattr(owner, attr, self._wrap(name, original, annotate))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextmanager
    def item_span(self, key: str):
        self.item = key
        try:
            with self.span("item"):
                yield
        finally:
            self.item = None


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Busy time, self time and counts per span name."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for sp in spans:
            self.by_name.setdefault(sp.name, []).append(sp)
            if sp.parent is not None:
                self.children.setdefault(sp.parent, []).append(sp)

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def busy(self, name: str) -> float:
        return sum(sp.end - sp.start for sp in self.by_name.get(name, ()))

    def self_time(self, name: str) -> float:
        """Span time not covered by any of its direct children."""
        total = 0.0
        for sp in self.by_name.get(name, ()):
            covered = _union_length(
                (max(c.start, sp.start), min(c.end, sp.end))
                for c in self.children.get(sp.sid, ()))
            total += (sp.end - sp.start) - covered
        return total

    def attr_sum(self, name: str, key: str) -> int:
        return sum((sp.attrs or {}).get(key, 0)
                   for sp in self.by_name.get(name, ()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over the spans of one traced pass."""
    ix = SpanIndex(spans)
    goodness = ix.count("family.goodness")
    lp_solves = ix.count("element.lp")
    linprogs = ix.count("element.linprog")
    records = ix.attr_sum("pipeline.solve", "records")
    maxflows = ix.count("maxflow.max_flow")
    fraction = ix.attr_sum("maxflow.max_flow", "fraction")
    return {
        "cli.self_s": (ix.self_time("item"), "s"),
        "pipeline.solve_s": (ix.busy("pipeline.solve"), "s"),
        "pipeline.self_s": (ix.self_time("pipeline.solve"), "s"),
        "pipeline.feasibility_s": (ix.busy("pipeline.feasibility"), "s"),
        "pipeline.feasibility_calls": (ix.count("pipeline.feasibility"),
                                       "count"),
        "pipeline.distinct_instances": (records, "count"),
        "pipeline.subsets": (ix.attr_sum("pipeline.solve", "subsets"),
                             "count"),
        "pipeline.class_reuse": (
            _ratio(ix.attr_sum("pipeline.solve", "active_subsets"), records),
            "ratio"),
        "family.sample_s": (ix.busy("family.sample"), "s"),
        "family.sample_calls": (ix.count("family.sample"), "count"),
        "family.goodness_s": (ix.busy("family.goodness"), "s"),
        "family.goodness_calls": (goodness, "count"),
        "family.resamples": (ix.attr_sum("pipeline.solve", "resamples"),
                             "count"),
        "family.good_ratio": (
            _ratio(ix.attr_sum("family.goodness", "good"), goodness), "ratio"),
        "element.solve_s": (ix.busy("element.solve"), "s"),
        "element.solves": (ix.count("element.solve"), "count"),
        "element.lp_s": (ix.busy("element.lp"), "s"),
        "element.lp_solves": (lp_solves, "count"),
        "element.lp_self_s": (ix.self_time("element.lp"), "s"),
        "element.linprog_s": (ix.busy("element.linprog"), "s"),
        "element.linprog_calls": (linprogs, "count"),
        "element.linprog_per_lp": (_ratio(linprogs, lp_solves), "ratio"),
        "element.check_s": (ix.busy("element.check"), "s"),
        "element.check_calls": (ix.count("element.check"), "count"),
        "element.theory_deviations": (
            ix.attr_sum("element.solve", "deviation"), "count"),
        "connectivity.separation_s": (ix.busy("connectivity.separation"), "s"),
        "connectivity.separations": (ix.count("connectivity.separation"),
                                     "count"),
        "connectivity.separation_build_s": (
            ix.self_time("connectivity.separation"), "s"),
        "connectivity.separations_per_linprog": (
            _ratio(ix.count("connectivity.separation"), linprogs), "ratio"),
        "connectivity.vertex_conn_s": (ix.busy("connectivity.vertex_conn"),
                                       "s"),
        "connectivity.vertex_conn_calls": (
            ix.count("connectivity.vertex_conn"), "count"),
        "connectivity.verify_s": (ix.busy("connectivity.verify"), "s"),
        "connectivity.verify_calls": (ix.count("connectivity.verify"),
                                      "count"),
        "maxflow.max_flow_s": (ix.busy("maxflow.max_flow"), "s"),
        "maxflow.calls": (maxflows, "count"),
        "maxflow.arcs": (ix.attr_sum("maxflow.max_flow", "arcs"), "count"),
        "maxflow.fraction_calls": (fraction, "count"),
        "maxflow.int_calls": (maxflows - fraction, "count"),
    }
