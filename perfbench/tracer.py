"""Span recording from outside the program under test.

The traced run replaces layer entry points with thin wrappers *where the
caller looks them up* (callers use ``from x import f``, so the name is
patched in the caller's module, not in ``x``). Every wrapper records one
span — name, start, end, parent, operation id — into memory, plus the
counts the layer's per-layer metrics need. Nothing under ``src/`` is
edited and ``repro.obs`` is not consulted: its spans have known
attribution gaps, and this harness is the outside view that measures them.

Self time of a span = its duration minus the time its child spans cover.
Spans opened on a thread with no open span (the analysis service runs
requests on a worker thread) are parented to the current operation.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_time", "layer")

    def __init__(self, name, start, parent, op, layer):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, or -1
        self.op = op
        self.child_time = 0.0
        self.layer = layer  # feeds a per-layer metric (False: glue)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.seconds - self.child_time)


class NullTracer:
    """Untraced runs: the same call sites, no recording."""

    @contextmanager
    def span(self, name: str, layer: bool = True):
        yield

    @contextmanager
    def operation(self, kind: str):
        yield


class Tracer(NullTracer):
    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_span = -1
        self._op_id = 0
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: bool) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._op_span
        span = Span(name, time.perf_counter(), parent, self._op_id, layer)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.seconds

    @contextmanager
    def span(self, name: str, layer: bool = True):
        index = self._open(name, layer)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def operation(self, kind: str):
        """One benchmark operation: the root every layer span hangs off."""
        self._op_id += 1
        index = self._open("op." + kind, False)
        self._op_span = index
        try:
            yield
        finally:
            self._close(index)
            self._op_span = -1

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- patching ------------------------------------------------------------

    def wrap(
        self,
        target: str,
        span: Optional[str],
        on_result: Optional[Callable] = None,
        layer: bool = True,
    ) -> None:
        """Replace ``module.attr`` or ``module.Class.attr`` by a wrapper.

        ``span`` names the span (``None``: count only, no span);
        ``on_result(tracer, result, args, kwargs)`` records counts.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            module_name, _, cls = module_name.rpartition(".")
            owner = getattr(importlib.import_module(module_name), cls)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if span is None:
                result = original(*args, **kwargs)
            else:
                index = tracer._open(span, layer)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(index)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.self_seconds
        return out

    def inclusive_seconds(self) -> Dict[str, float]:
        """Per name, time covered by its outermost spans (no double count
        when a span nests inside one of the same name)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            parent = span.parent
            nested = False
            while parent >= 0:
                if self.spans[parent].name == span.name:
                    nested = True
                    break
                parent = self.spans[parent].parent
            if not nested:
                out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def layer_seconds(self) -> float:
        """Wall time covered by some layer span: the sum of layer self
        times, with glue spans' self time left out."""
        return sum(s.self_seconds for s in self.spans if s.layer)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "op": span.op,
                        }
                    )
                    + "\n"
                )


# -- the layer map -------------------------------------------------------------


def _count_len(name):
    def record(tracer, result, args, kwargs):
        tracer.count(name, len(result))

    return record


def _tokens(tracer, result, args, kwargs):
    tracer.count("golang.tokens", len(result))


def _instrs(tracer, program, args, kwargs):
    tracer.count(
        "ssa.instrs",
        sum(len(block.instrs) for fn in program.functions.values() for block in fn.blocks),
    )


def _primitives(tracer, pmap, args, kwargs):
    tracer.count("analysis.primitives", len(pmap.primitives))


def _dep_edges(tracer, graph, args, kwargs):
    tracer.count("analysis.dep_edges", sum(len(deps) for deps in graph.edges.values()))


def _wrap_groups(tracer: Tracer) -> None:
    """``enumerate_groups`` is a generator its caller drains in a list
    comprehension; the wrapper drains it inside the span so the span
    covers the enumeration work, and hands back an iterator."""
    module = importlib.import_module("repro.detector.bmoc")
    original = module.enumerate_groups

    def enumerate_groups(*args, **kwargs):
        with tracer.span("detector.suspicious"):
            groups = list(original(*args, **kwargs))
        tracer.count("detector.groups", len(groups))
        return iter(groups)

    module.enumerate_groups = enumerate_groups
    tracer._patches.append((module, "enumerate_groups", original))


def _solve_group(tracer, outcome, args, kwargs):
    tracer.count("constraints.solver_calls")
    if outcome.solution is not None:
        tracer.count("constraints.sat")


def _solver_nodes(tracer, outcome, args, kwargs):
    tracer.count("constraints.nodes", outcome.nodes)


def _engine_result(tracer, result, args, kwargs):
    shards = result.shards or []
    cached = sum(1 for s in shards if s.outcome == "cached")
    tracer.count("engine.shards", len(shards))
    tracer.count("engine.shards_executed", len(shards) - cached)


def _cache_get(tracer, entry, args, kwargs):
    tracer.count("engine.cache_gets")
    if entry is not None:
        tracer.count("engine.cache_hits")


def _refresh(tracer, delta, args, kwargs):
    tracer.count("service.reparsed_files", delta.reparsed)


def _fix(tracer, result, args, kwargs):
    tracer.count("fixer.fixes")
    if result.fixed:
        tracer.count("fixer.fixed")


def _validate(tracer, validation, args, kwargs):
    tracer.count("fixer.validations")
    if validation.fallback:
        tracer.count("fixer.validate_fallbacks")


def _explore(tracer, exploration, args, kwargs):
    tracer.count("runtime.explorations")
    tracer.count("runtime.explore_runs", exploration.runs)
    tracer.count("runtime.explore_steps", exploration.total_steps)
    if exploration.complete:
        tracer.count("runtime.explore_complete")


def _sample(tracer, result, args, kwargs):
    tracer.count("runtime.samples")


def _channel(tracer, result, args, kwargs):
    tracer.count("detector.channels")


CHECKERS = {
    "check_forget_unlock": "traditional.forget_unlock",
    "check_double_lock": "traditional.double_lock",
    "check_lock_order": "traditional.lock_order",
    "check_struct_races": "traditional.struct_race",
    "check_fatal_goroutine": "traditional.fatal_goroutine",
}


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's entry points at the names their callers use."""
    w = tracer.wrap
    # golang: every parse funnels through the builder's parse_file
    w("repro.ssa.builder.parse_file", "golang.parse")
    w("repro.golang.parser.tokenize", None, _tokens)
    # ssa: lowering of one compilation unit
    w("repro.ssa.builder.ModuleBuilder.build", "ssa.build", _instrs)
    # analysis: the BMOC detector's preprocessing
    w("repro.detector.bmoc.build_call_graph", "analysis.callgraph")
    w("repro.detector.bmoc.run_alias_analysis", "analysis.alias")
    w("repro.detector.bmoc.find_primitives", "analysis.primitives", _primitives)
    w("repro.detector.bmoc.build_dependency_graph", "analysis.depgraph", _dep_edges)
    w("repro.detector.bmoc.compute_all_scopes", "analysis.scope")
    w("repro.detector.bmoc.compute_pset", "analysis.pset")
    # detector: per-channel path enumeration and suspicious groups
    w("repro.detector.bmoc.BMOCDetector.analyze_channel", None, _channel)
    w("repro.detector.bmoc.enumerate_combinations", "detector.paths",
      _count_len("detector.combinations"))
    _wrap_groups(tracer)
    # constraints
    w("repro.constraints.session.SolverSession.solve_group", "constraints.solve",
      _solve_group)
    w("repro.constraints.session.solve_detailed", None, _solver_nodes)
    # the five traditional checkers, on the serial and the engine path
    for module in ("repro.detector.gcatch", "repro.engine.engine"):
        for attr, name in CHECKERS.items():
            w(f"{module}.{attr}", name)
    # engine: fingerprinting, cache probe/store, shard outcomes
    for attr in ("ProgramDigests", "channel_fingerprint", "traditional_fingerprint"):
        w(f"repro.engine.engine.{attr}", "engine.fingerprint")
    w("repro.engine.cache.ResultCache.get", "engine.cache_get", _cache_get)
    w("repro.engine.cache.ResultCache.put", "engine.cache_put")
    w("repro.engine.run_engine", "pipeline.engine", _engine_result, layer=False)
    # service: refresh and detect inside one request
    w("repro.service.project.ProjectState.refresh", "service.refresh", _refresh)
    w("repro.service.daemon.run_gcatch", "service.detect", layer=False)
    # fixer
    w("repro.fixer.dispatcher.GFix.__init__", "fixer.preprocess")
    w("repro.fixer.dispatcher.GFix.fix", "fixer.transform", _fix)
    w("repro.fixer.validate.validate_patch", "fixer.validate", _validate)
    w("repro.fixer.validate.build_program", "pipeline.build", layer=False)
    w("repro.fixer.validate.detect_bmoc", "pipeline.detect", layer=False)
    # runtime: exploration (validation + fuzz) and the sampling fallback
    w("repro.fixer.validate.explore", "runtime.explore", _explore)
    w("repro.fixer.validate.run_program", "runtime.sample", _sample)
    w("repro.fuzz.campaign.explore", "runtime.explore", _explore)
    # fuzz / diffcheck
    w("repro.fuzz.campaign.generate_program", "fuzz.generate")
    w("repro.fuzz.campaign.build_program", "pipeline.build", layer=False)
    w("repro.fuzz.campaign.run_gcatch", "pipeline.detect", layer=False)
    w("repro.fuzz.campaign.classify_oracles", "diffcheck.classify")
