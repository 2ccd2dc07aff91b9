"""In-memory span tracing of `edpkit` functions, installed from outside.

`install` replaces each target function on its defining module and on
every loaded `edpkit` module that imported the name, with a wrapper that
records a span (name, start, end, parent span, operation id) while the
tracer is enabled.  `Installation.remove` puts every original back.
Nothing under `src/` knows about the tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

WRAPPED_MARK = "__perfbench_original__"

# Functions traced as spans: (module, function, note).  A note maps the
# call's arguments and result to values kept on the span.
SPAN_TARGETS: list[tuple[str, str, Callable[..., dict] | None]] = [
    ("edpkit.cli", "main", None),
    ("edpkit.instance", "parse_instance", None),
    ("edpkit.instance", "normalize_instance", None),
    ("edpkit.instance", "verify_solution", None),
    ("edpkit.graph", "find_fvs_one", lambda args, r: {"hit": r.found}),
    ("edpkit.graph", "max_weight_matching", None),
    ("edpkit.graph", "components_excluding", None),
    ("edpkit.sedp", "solve_sedp", lambda args, r: {"n": args[0].g.n}),
    ("edpkit.sedp", "prepare_sedp", None),
    ("edpkit.sedp", "labels_for_tree", None),
    ("edpkit.treedec", "build_tree_decomposition", lambda args, r: {"width": r.width}),
    ("edpkit.treedec", "make_nice", lambda args, r: {"joins": sum(nd.kind == "join" for nd in r.nodes)}),
    ("edpkit.twdp", "compute_tables", None),
    ("edpkit.fracture", "solve_fracture", lambda args, r: {"hit": r.status != "modulator-exceeded"}),
    ("edpkit.fracture", "find_fracture_modulator", lambda args, r: {"hit": r is not None}),
    ("edpkit.fracture", "component_signature", lambda args, r: {"configs": len(r)}),
    ("edpkit.ilp", "solve_feasibility", lambda args, r: {
        "vars": args[0].num_vars,
        "rows": len(args[0].eq_rows) + len(args[0].le_rows),
        "infeasible": r is None,
    }),
    ("edpkit.oracle", "brute_force_edp", lambda args, r: {"budget": r.status == "budget"}),
    ("edpkit.reductions", "medp_to_edp", None),
]


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: Any
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.enabled = False
        self.op: Any = None
        self._stack: list[int] = []

    def span_wrapper(self, name: str, fn: Callable, note: Callable[..., dict] | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.clock(), parent, tracer.op)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if note is not None:
                span.info = note(args, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def table_add_wrapper(self, fn: Callable) -> Callable:
        """Counter-only wrapper for `twdp.Table.add`, called millions of
        times: candidate states offered and records kept."""
        tracer = self

        @functools.wraps(fn)
        def add(table, ctx, state):
            if not tracer.enabled:
                return fn(table, ctx, state)
            before = len(table.records)
            fn(table, ctx, state)
            tracer.counts["twdp.candidate_states"] += 1
            tracer.counts["twdp.records"] += len(table.records) - before

        setattr(add, WRAPPED_MARK, fn)
        return add


class Installation:
    def __init__(self) -> None:
        self.replaced: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, new: object) -> None:
        self.replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def remove(self) -> None:
        while self.replaced:
            owner, attr, original = self.replaced.pop()
            setattr(owner, attr, original)


def edpkit_modules() -> list[object]:
    return [m for name, m in list(sys.modules.items()) if name == "edpkit" or name.startswith("edpkit.")]


def install(tracer: Tracer) -> Installation:
    """Wrap every target on every loaded `edpkit` module that holds it."""
    inst = Installation()
    modules = edpkit_modules()
    for module_name, func_name, note in SPAN_TARGETS:
        original = getattr(sys.modules[module_name], func_name)
        short = module_name.split(".", 1)[1] + "." + func_name
        wrapper = tracer.span_wrapper(short, original, note)
        for module in modules:
            if getattr(module, func_name, None) is original:
                inst.patch(module, func_name, wrapper)
    table = sys.modules["edpkit.twdp"].Table
    inst.patch(table, "add", tracer.table_add_wrapper(table.add))
    return inst


def leftover_wrappers() -> list[str]:
    """Names of wrappers still present on loaded `edpkit` modules."""
    found = []
    for module in edpkit_modules():
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED_MARK):
                found.append(f"{module.__name__}.{attr}")
    twdp = sys.modules.get("edpkit.twdp")
    if twdp is not None and hasattr(twdp.Table.add, WRAPPED_MARK):
        found.append("edpkit.twdp.Table.add")
    return found


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, []), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans of `name` with no ancestor of the same name (no double count
    of recursive calls)."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and spans[p].name != name:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out
