"""Span tracing of matchvote's public functions, installed from outside the
library.

``Tracer.installed()`` replaces every traced function in each ``matchvote``
module that binds it.  The modules import each other's names with
``from .engine import ...``, so patching the defining module alone would
miss most calls; each binding gets its own wrapper, and the module it sits
in is recorded as the span's *site* (the caller's namespace).  Spans stay in
memory; ``layer_metrics`` turns one pass worth of spans into the per-layer
numbers, and the originals are rebound when the context exits.
"""
from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from functools import wraps
from math import lcm
from statistics import median
from time import perf_counter
from typing import Callable, Iterator


def _graph_attrs(graph, tiebreak: bool) -> dict:
    """Size of a solve and the widest integer weight the solver receives.

    Mirrors the rescaling in ``matchvote.engine``: weights are multiplied by
    the lcm of their denominators, and the tie-break solve shifts each
    numerator left by the edge count m and adds one bonus bit below it.
    """
    edges = graph.edges
    m = len(edges)
    widest = 0
    if edges:
        scale = lcm(*(w.denominator for _, _, w in edges))
        widest = max(w.numerator * (scale // w.denominator) for _, _, w in edges)
    bits = widest.bit_length()
    if tiebreak and m:
        bits = bits + m if widest else m
    return {
        "tier": "tiebreak" if tiebreak else "value",
        "nodes": graph.n,
        "edges": m,
        "bits": bits,
    }


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _second(args, kwargs, name):
    return args[1] if len(args) > 1 else kwargs[name]


def _oracle_attrs(args, kwargs, result) -> dict:
    graph = _first(args, kwargs, "election").approval_graph
    return {"edges": len(graph.mutual) + len(graph.directed)}


def _run_attrs(args, kwargs, result) -> dict:
    return {"rounds": len(result.rounds)}


def _rule_x_attrs(args, kwargs, result) -> dict:
    return {
        "rounds": len(result.rounds),
        "bracket_probes": sum(len(r.probes) for r in result.rounds),
    }


def _seq_thiele_attrs(args, kwargs, result) -> dict:
    return {"rounds": len(result.rounds), "weights": _second(args, kwargs, "weights").name}


AttrFn = Callable[[tuple, dict, object], dict]

# (defining module, function, attributes recorded from arguments and result)
TRACED: tuple[tuple[str, str, AttrFn | None], ...] = (
    ("matchvote.engine", "max_weight_matching",
     lambda a, k, r: _graph_attrs(_first(a, k, "graph"), True)),
    ("matchvote.engine", "max_weight_value",
     lambda a, k, r: _graph_attrs(_first(a, k, "graph"), False)),
    ("matchvote.engine", "weighted_approval_winner", _oracle_attrs),
    ("matchvote.engine", "is_candidate", None),
    ("matchvote.engine", "pareto_repair",
     lambda a, k, r: {"changed": r != _second(a, k, "matching")}),
    ("matchvote.engine", "gallai_edmonds", None),
    ("matchvote.sequential", "seq_thiele", _seq_thiele_attrs),
    ("matchvote.sequential", "seq_phragmen", _run_attrs),
    ("matchvote.sequential", "rule_x", _rule_x_attrs),
    ("matchvote.sequential", "ls_pav", None),
    ("matchvote.sequential", "min_crossing", None),
    ("matchvote.sequential", "verify_run", None),
    ("matchvote.sequential", "explore_cowinners", None),
    ("matchvote.exact_thiele", "exact_thiele", lambda a, k, r: {"method": r.method}),
    ("matchvote.exact_thiele", "bipartite_thiele", None),
    ("matchvote.exact_thiele", "symmetric_to_bipartite", None),
    ("matchvote.exact_thiele", "lift_committee", None),
    ("matchvote.axioms", "check_ejr", None),
    ("matchvote.axioms", "check_pjr", None),
    ("matchvote.axioms", "check_core", None),
    ("matchvote.axioms", "verify_blocking", None),
    ("matchvote.harness", "enumerate_candidates", lambda a, k, r: {"candidates": len(r)}),
    ("matchvote.cli", "main", None),
)


class Span:
    __slots__ = ("name", "site", "parent", "op", "start", "end", "attrs")

    def __init__(self, name: str, site: str, parent: int | None, op: str | None) -> None:
        self.name = name
        self.site = site
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "site": self.site,
            "parent": self.parent,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects spans from wrappers installed around matchvote's public
    functions.  Spans are indexed by position; ``parent`` is the index of the
    innermost span open when the call started."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._open: int | None = None
        self._patched: list[tuple[object, str, object, object]] = []

    def _wrap(self, fn, name: str, site: str, attrs_of: AttrFn | None):
        tracer = self
        counts_probes = name == "sequential.min_crossing"

        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, site, tracer._open, tracer.op)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._open = index
            probes = 0
            if counts_probes:
                evaluate = args[0]

                def counted(x):
                    nonlocal probes
                    probes += 1
                    return evaluate(x)

                args = (counted,) + args[1:]
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._open = span.parent
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            elif counts_probes:
                span.attrs = {"probes": probes}
            return result

        return traced

    @contextmanager
    def span(self, name: str, op: str | None = None) -> Iterator[Span]:
        """A span opened by the benchmark itself, around one operation."""
        record = Span(name, "bench", self._open, op if op is not None else self.op)
        index = len(self.spans)
        self.spans.append(record)
        outer_op, self._open = self.op, index
        self.op = record.op
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open, self.op = record.parent, outer_op

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module_name, _, _ in TRACED:
            importlib.import_module(module_name)
        modules = _matchvote_modules()
        for module_name, fn_name, attrs_of in TRACED:
            original = getattr(importlib.import_module(module_name), fn_name)
            layer = module_name.rsplit(".", 1)[-1]
            for module in modules:
                if vars(module).get(fn_name) is original:
                    site = module.__name__.rsplit(".", 1)[-1]
                    wrapper = self._wrap(original, f"{layer}.{fn_name}", site, attrs_of)
                    setattr(module, fn_name, wrapper)
                    self._patched.append((module, fn_name, original, wrapper))

    def remove(self) -> None:
        while self._patched:
            module, fn_name, original, wrapper = self._patched.pop()
            if vars(module).get(fn_name) is not wrapper:
                raise RuntimeError(f"{module.__name__}.{fn_name} was rebound while traced")
            setattr(module, fn_name, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.remove()


def _matchvote_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "matchvote" or name.startswith("matchvote."))
    ]


def bindings() -> dict[tuple[str, str], object]:
    """Every object a matchvote module binds under a traced function's name."""
    names = {fn_name for _, fn_name, _ in TRACED}
    return {
        (module.__name__, name): vars(module)[name]
        for module in _matchvote_modules()
        for name in names
        if name in vars(module)
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from one pass of spans
# ---------------------------------------------------------------------------

RULE_SPANS = ("sequential.seq_thiele", "sequential.seq_phragmen", "sequential.rule_x")

# Metrics whose value is a count or a ratio of counts: they must repeat
# exactly between traced passes of the same inputs.
COUNT_METRICS = (
    "engine.tiebreak.calls",
    "engine.tiebreak.edges_max",
    "engine.tiebreak.bits_max",
    "engine.value.calls",
    "engine.solve.edges_sum",
    "engine.oracle.calls",
    "engine.oracle.solves_per_call",
    "engine.pareto.tests",
    "engine.pareto.repairs",
    "engine.pareto.repair_ratio",
    "engine.gallai_edmonds.calls",
    "sequential.rounds",
    "sequential.oracle_calls_per_round",
    "sequential.crossing.calls",
    "sequential.crossing.probes",
    "sequential.rulex.bracket_probes",
    "exact_thiele.meta_edges",
    "exact_thiele.extract.solves",
    "axioms.oracle.calls",
    "harness.candidates",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and seconds for one traced pass.

    A span's self time is its duration minus that of its direct children;
    a layer's self time sums the self times of its spans, which is the time
    spent in the layer's own code rather than in layers it calls.
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds

    def named(name: str, site: str | None = None) -> list[Span]:
        return [s for s in spans if s.name == name and (site is None or s.site == site)]

    def total(selected: list[Span]) -> float:
        return sum(s.seconds for s in selected)

    def layer_self(layer: str) -> float:
        prefix = layer + "."
        return sum(
            s.seconds - child_seconds[i] for i, s in enumerate(spans) if s.name.startswith(prefix)
        )

    def has_ancestor(index: int, names: tuple[str, ...]) -> bool:
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name in names:
                return True
            parent = spans[parent].parent
        return False

    solve_names = ("engine.max_weight_matching", "engine.max_weight_value")
    tiebreak = named("engine.max_weight_matching")
    value = named("engine.max_weight_value")
    oracle = named("engine.weighted_approval_winner")
    oracle_solves = sum(
        1
        for i, s in enumerate(spans)
        if s.name in solve_names and has_ancestor(i, ("engine.weighted_approval_winner",))
    )
    tests = named("engine.is_candidate")
    repairs = [s for s in named("engine.pareto_repair") if s.attrs and s.attrs["changed"]]
    runs = [s for s in spans if s.name in RULE_SPANS and s.attrs]
    rounds = sum(s.attrs["rounds"] for s in runs)
    rule_oracle_calls = sum(
        1
        for i, s in enumerate(spans)
        if s.name == "engine.weighted_approval_winner" and has_ancestor(i, RULE_SPANS)
    )
    crossing = named("sequential.min_crossing")
    probes = sum(s.attrs["probes"] for s in crossing if s.attrs)
    exact = [s for s in named("exact_thiele.exact_thiele") if s.attrs]
    meta = named("engine.weighted_approval_winner", site="exact_thiele")
    extract = named("engine.max_weight_matching", site="exact_thiele")
    enumerate_spans = named("harness.enumerate_candidates")

    return {
        "engine.tiebreak.calls": len(tiebreak),
        "engine.tiebreak.s": total(tiebreak),
        "engine.tiebreak.edges_max": max((s.attrs["edges"] for s in tiebreak if s.attrs), default=0),
        "engine.tiebreak.bits_max": max((s.attrs["bits"] for s in tiebreak if s.attrs), default=0),
        "engine.value.calls": len(value),
        "engine.value.s": total(value),
        "engine.solve.edges_sum": sum(s.attrs["edges"] for s in tiebreak + value if s.attrs),
        "engine.oracle.calls": len(oracle),
        "engine.oracle.s": total(oracle),
        "engine.oracle.self_s": sum(
            s.seconds - child_seconds[i]
            for i, s in enumerate(spans)
            if s.name == "engine.weighted_approval_winner"
        ),
        "engine.oracle.solves_per_call": _ratio(oracle_solves, len(oracle)),
        "engine.pareto.tests": len(tests),
        "engine.pareto.repairs": len(repairs),
        "engine.pareto.repair_ratio": _ratio(len(repairs), len(tests)),
        "engine.gallai_edmonds.calls": len(named("engine.gallai_edmonds")),
        "engine.gallai_edmonds.s": total(named("engine.gallai_edmonds")),
        "sequential.rounds": rounds,
        "sequential.oracle_calls_per_round": _ratio(rule_oracle_calls, rounds),
        "sequential.crossing.calls": len(crossing),
        "sequential.crossing.probes": _ratio(probes, len(crossing)),
        "sequential.crossing.s": total(crossing),
        "sequential.rulex.bracket_probes": sum(
            s.attrs.get("bracket_probes", 0) for s in named("sequential.rule_x") if s.attrs
        ),
        "sequential.seq_pav.s": total(
            [s for s in named("sequential.seq_thiele") if s.attrs and s.attrs["weights"] == "pav"]
        ),
        "sequential.seq_phragmen.s": total(named("sequential.seq_phragmen")),
        "sequential.rule_x.s": total(named("sequential.rule_x")),
        "sequential.ls_pav.s": total(named("sequential.ls_pav")),
        "sequential.self_s": layer_self("sequential"),
        "sequential.verify_run.s": total(named("sequential.verify_run")),
        "sequential.explore_cowinners.s": total(named("sequential.explore_cowinners")),
        "exact_thiele.bipartite.s": total([s for s in exact if s.attrs["method"] == "bipartite"]),
        "exact_thiele.symmetric.s": total([s for s in exact if s.attrs["method"] == "symmetric"]),
        "exact_thiele.self_s": layer_self("exact_thiele"),
        "exact_thiele.meta_oracle.s": total(meta),
        "exact_thiele.meta_edges": max((s.attrs["edges"] for s in meta if s.attrs), default=0),
        "exact_thiele.extract.solves": len(extract),
        "exact_thiele.extract.s": total(extract),
        "exact_thiele.reduce.s": total(named("exact_thiele.symmetric_to_bipartite")),
        "exact_thiele.lift.s": total(named("exact_thiele.lift_committee")),
        "axioms.check_ejr.s": total(named("axioms.check_ejr")),
        "axioms.check_pjr.s": total(named("axioms.check_pjr")),
        "axioms.check_core.s": total(named("axioms.check_core")),
        "axioms.verify_blocking.s": total(named("axioms.verify_blocking")),
        "axioms.oracle.calls": len(named("engine.weighted_approval_winner", site="axioms")),
        "axioms.self_s": layer_self("axioms"),
        "harness.enumerate.s": total(enumerate_spans),
        "harness.candidates": sum(s.attrs["candidates"] for s in enumerate_spans if s.attrs),
        "cli.main.s": total(named("cli.main")),
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Seconds as the median over traced passes; counts from the first."""
    return {
        name: value if name in COUNT_METRICS else median(p[name] for p in passes)
        for name, value in passes[0].items()
    }


def counts_repeat(passes: list[dict[str, float]]) -> bool:
    return all(p[name] == passes[0][name] for p in passes for name in COUNT_METRICS)


def solve_records(spans: list[Span]) -> list[dict]:
    """One record per blossom solve: tier, size, weight width and seconds."""
    return [
        dict(s.attrs, seconds=s.seconds, site=s.site, op=s.op)
        for s in spans
        if s.name in ("engine.max_weight_matching", "engine.max_weight_value") and s.attrs
    ]


def solve_table(records: list[dict]) -> list[dict]:
    """Mean seconds per solve by tier and edge-count bucket (powers of two),
    for comparing tie-break and value solves of similar size."""
    buckets: dict[tuple[str, int], list[dict]] = {}
    for r in records:
        low = 1 << max(r["edges"], 1).bit_length() - 1
        buckets.setdefault((r["tier"], low), []).append(r)
    rows = []
    for (tier, low), items in sorted(buckets.items()):
        rows.append(
            {
                "tier": tier,
                "edges_from": low,
                "edges_to": 2 * low - 1,
                "solves": len(items),
                "mean_edges": sum(r["edges"] for r in items) / len(items),
                "mean_bits": sum(r["bits"] for r in items) / len(items),
                "mean_seconds": sum(r["seconds"] for r in items) / len(items),
            }
        )
    return rows
