"""Layer-boundary spans for the benchmark's traced run.

The traced run wraps the public function at each layer boundary of
``repro`` from here, never from inside the program.  Each wrapper records
one span (name, layer, start, end, parent, request id, thread) on a
per-thread stack, so concurrent requests nest correctly; the program's
own ``Tracer`` keeps a single span stack shared by all threads and is
used here for its counters only, never for parentage.

A compile the server runs on one of its compile threads is attributed to
the request that submitted it: the submitting thread's current span
becomes the parent of every span the compile opens.  A request that
waits on a compile it did not submit records that wait as compile wait.

Self time of a span is its duration minus the part of it covered by its
children (clipped to the span, merged where children overlap).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Modules that bind a wrapped function under their own name are loaded
# before wrapping, so each binding is wrapped and later restored.
import repro.core.maintenance  # noqa: F401
import repro.drift.refresh  # noqa: F401
import repro.serve.server  # noqa: F401
import repro.wlgen.campaign  # noqa: F401
from repro.obs.tracer import MemorySink, Tracer

#: Layer names, in the order the report lists them.
LAYERS = (
    "query",
    "serve",
    "template",
    "optimizer",
    "ess",
    "core.bouquet",
    "core.runtime",
    "executor",
    "drift",
    "sweep",
    "wlgen",
    "par",
    "datagen",
)


@dataclass
class Span:
    sid: int
    name: str
    layer: Optional[str]
    start: float
    parent: int
    rid: int
    thread: int
    end: float = 0.0
    info: Dict[str, float] = field(default_factory=dict)


class RecordingTracer(Tracer):
    """The program's tracer, keeping every observed value.

    ``Tracer.observe`` folds values into count/total/min/max; the
    benchmark needs per-task latencies for a median, so it keeps the raw
    values as well.
    """

    def __init__(self):
        super().__init__(MemorySink())
        self.values: Dict[str, List[float]] = {}

    def observe(self, name: str, value: float) -> None:
        super().observe(name, value)
        with self._metrics_lock:
            self.values.setdefault(name, []).append(value)


class Recorder:
    """Collects spans from wrapped boundaries; thread-safe."""

    clock = staticmethod(time.perf_counter)

    def __init__(self):
        self.spans: List[Span] = []
        self.compile_waits: List[float] = []
        self._ids = itertools.count(1)
        self._rids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def call(self, layer, name, note, fn, args, kwargs):
        parent = self.current()
        with self._lock:
            sid = next(self._ids)
            rid = parent.rid if parent is not None else next(self._rids)
        span = Span(
            sid, name, layer, self.clock(),
            parent.sid if parent is not None else 0,
            rid, threading.get_ident(),
        )
        stack = self._stack()
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                note(span.info, result, args, kwargs)
            return result
        except BaseException as exc:
            span.info["raised"] = 1.0
            if note is not None and isinstance(exc, Exception):
                note(span.info, exc, args, kwargs)
            raise
        finally:
            span.end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, layer, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, note, fn, args, kwargs)

        return wrapper

    def carry(self, fn):
        """``fn`` made to run under the calling thread's current span."""
        parent = self.current()

        def run(*args, **kwargs):
            saved = getattr(self._local, "inherited", None)
            self._local.inherited = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.inherited = saved

        return run

    def add_compile_wait(self, seconds: float) -> None:
        with self._lock:
            self.compile_waits.append(seconds)


# ---------------------------------------------------------------------------
# Boundary notes: counts taken where the work happens
# ---------------------------------------------------------------------------


def _note_locations(info, result, args, kwargs):
    if isinstance(result, list):
        info["locations"] = float(len(result))
    elif not isinstance(result, Exception):
        info["locations"] = 1.0


def _note_bouquet(info, result, args, kwargs):
    if not isinstance(result, Exception):
        info["contours"] = float(len(result.contours))
        info["cardinality"] = float(result.cardinality)


def _note_run(info, result, args, kwargs):
    if isinstance(result, Exception):
        return
    killed = sum(e.cost_spent for e in result.executions if not e.completed)
    info["executions"] = float(result.execution_count)
    info["killed_units"] = float(killed)
    info["units"] = float(result.total_cost)


def _note_rows(info, result, args, kwargs):
    if isinstance(result, tuple):  # execute_spilled: (result, spill node)
        result = result[0]
    if not isinstance(result, Exception):
        info["rows_out"] = float(result.instrumentation.total_tuples)


def _note_patch(info, result, args, kwargs):
    info["patched"] = 0.0 if isinstance(result, Exception) else 1.0


def _note_rebind(info, result, args, kwargs):
    info["fallback"] = 1.0 if isinstance(result, Exception) else 0.0


def _note_sweep(info, result, args, kwargs):
    if not isinstance(result, Exception):
        info["locations"] = float(result.size)


#: (layer, span name, owner, attribute, note).  ``owner`` is a class path
#: (``module:Class``) for methods, or the defining module for functions;
#: a function is replaced under every ``repro`` module name bound to it,
#: because callers look it up in their own module's namespace.
BOUNDARIES: Tuple[Tuple[Optional[str], str, str, str, Optional[Callable]], ...] = (
    ("query", "parse_query", "repro.query.sql", "parse_query", None),
    ("serve", "gateway.handle", "repro.serve.front:ServeGateway", "handle", None),
    ("serve", "server.serve_request", "repro.serve.server:BouquetServer", "serve_request", None),
    ("serve", "server.refresh_statistics", "repro.serve.server:BouquetServer", "refresh_statistics", None),
    ("serve", "store.lookup", "repro.serve.cache:BouquetArtifactStore", "lookup", None),
    ("serve", "store.put", "repro.serve.cache:BouquetArtifactStore", "put", None),
    ("serve", "artifact_key", "repro.serve.fingerprint", "artifact_key", None),
    ("template", "template_signature", "repro.template.signature", "template_signature", None),
    ("template", "rebind_compiled", "repro.template.rebind", "rebind_compiled", _note_rebind),
    ("optimizer", "optimize", "repro.optimizer.optimizer:Optimizer", "optimize", _note_locations),
    ("optimizer", "optimize_batch", "repro.optimizer.optimizer:Optimizer", "optimize_batch", _note_locations),
    ("ess", "diagram", "repro.ess.diagram:PlanDiagram", "exhaustive", None),
    ("ess", "diagram", "repro.ess.diagram:PlanDiagram", "from_candidates", None),
    ("ess", "reduction", "repro.ess.reduction", "anorexic_reduce", None),
    ("ess", "dimensioning", "repro.wlgen.dimensioning", "dimension_query", None),
    ("core.bouquet", "identify_bouquet", "repro.core.bouquet", "identify_bouquet", _note_bouquet),
    ("core.runtime", "run", "repro.core.runtime:BouquetRunner", "run", _note_run),
    ("executor", "execute", "repro.executor.engine:ExecutionEngine", "execute", _note_rows),
    ("executor", "execute_spilled", "repro.executor.engine:ExecutionEngine", "execute_spilled", _note_rows),
    ("drift", "patch_compiled", "repro.drift.refresh", "patch_compiled", _note_patch),
    ("sweep", "cost_field", "repro.sweep.engine:SweepEngine", "cost_field", _note_sweep),
    ("wlgen", "generate", "repro.wlgen.generator:QueryGenerator", "generate", None),
    ("wlgen", "instantiate", "repro.wlgen.generator:QueryGenerator", "instantiate", None),
    ("wlgen", "run_query", "repro.wlgen.campaign", "run_query", None),
    ("par", "run", "repro.par.pool:WorkerPool", "run", None),
    ("datagen", "generate", "repro.datagen.database:Database", "generate", None),
    ("datagen", "build_statistics", "repro.datagen.database:Database", "build_statistics", None),
    # A stage span, owned by no layer: the campaign's compile stage share.
    (None, "compile", "repro.api", "compile_bouquet", None),
)


def _install_function(module_name, attr, wrapper_for, undo):
    original = getattr(importlib.import_module(module_name), attr)
    wrapped = wrapper_for(original)
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, attr, None
        ) is original:
            setattr(module, attr, wrapped)
            undo.append((module, attr, original))


def _install_method(owner, attr, wrapper_for, undo):
    module_name, cls_name = owner.split(":")
    cls = getattr(importlib.import_module(module_name), cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, (staticmethod, classmethod)):
        wrapped = type(raw)(wrapper_for(raw.__func__))
    else:
        wrapped = wrapper_for(raw)
    setattr(cls, attr, wrapped)
    undo.append((cls, attr, raw))


@contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every boundary for the duration of the block."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for layer, name, owner, attr, note in BOUNDARIES:
            def wrapper_for(fn, layer=layer, name=name, note=note):
                return recorder.wrap(layer, name, fn, note)

            if ":" in owner:
                _install_method(owner, attr, wrapper_for, undo)
            else:
                _install_function(owner, attr, wrapper_for, undo)
        yield recorder
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


def attribute_compiles(recorder: Recorder, server) -> None:
    """Route the server's compile-pool submissions through the recorder.

    A submitted compile runs under the submitter's current span; a thread
    that waits on a compile some other request submitted records the
    wait as compile wait.
    """
    pool = server._pool
    submit = pool.submit

    def traced_submit(fn, *args, **kwargs):
        future = submit(recorder.carry(fn), *args, **kwargs)
        owner = threading.get_ident()
        result = future.result

        def traced_result(timeout=None):
            if threading.get_ident() == owner:
                return result(timeout)
            started = recorder.clock()
            try:
                return result(timeout)
            finally:
                recorder.add_compile_wait(recorder.clock() - started)

        future.result = traced_result
        return future

    pool.submit = traced_submit


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _covered(span: Span, children: List[Span]) -> float:
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    covered, reach = 0.0, span.start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return {
        s.sid: (s.end - s.start) - _covered(s, children.get(s.sid, []))
        for s in spans
    }


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, busy (outermost spans of the layer) and self time.

    Also per span name (``<layer>.<name>``, ``stage.<name>`` for stage
    spans): calls, self time and summed duration, used for the ESS
    sub-layers and the stage shares.
    """
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)

    def nested_in_same_layer(span: Span) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.layer == span.layer:
                return True
            parent = by_id.get(parent.parent)
        return False

    totals: Dict[str, Dict[str, float]] = {
        layer: {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS
    }
    for span in spans:
        if span.layer is not None:
            entry = totals[span.layer]
            entry["calls"] += 1
            entry["self_s"] += selfs[span.sid]
            if not nested_in_same_layer(span):
                entry["busy_s"] += span.end - span.start
            for key, value in span.info.items():
                entry[key] = entry.get(key, 0.0) + value
        named = totals.setdefault(
            f"{span.layer or 'stage'}.{span.name}",
            {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0},
        )
        named["calls"] += 1
        named["self_s"] += selfs[span.sid]
        named["busy_s"] += span.end - span.start
    return totals


def span_records(spans: List[Span], origin: float) -> Iterator[Dict[str, object]]:
    """Spans as JSON-ready records, times relative to ``origin``."""
    for s in sorted(spans, key=lambda s: s.start):
        yield {
            "id": s.sid,
            "name": s.name,
            "layer": s.layer,
            "start": s.start - origin,
            "end": s.end - origin,
            "parent": s.parent,
            "request": s.rid,
            "thread": s.thread,
            **s.info,
        }
