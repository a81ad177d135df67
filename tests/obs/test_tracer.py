"""Unit tests for the tracing + metrics subsystem."""

import asyncio
import json
import pickle
import sys
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    JsonlSink,
    MemorySink,
    NullSink,
    NullTracer,
    Tracer,
    read_trace,
    summarize_trace,
)
from repro.obs.tracer import TimingStats


class TestSpans:
    def test_span_nesting_parent_links(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id == inner.span_id
            assert tracer.current_span_id == outer.span_id
        assert tracer.current_span_id == 0
        ends = {r["name"]: r for r in sink.spans()}
        assert ends["inner"]["parent"] == ends["outer"]["span"]
        assert ends["outer"]["parent"] == 0

    def test_span_attrs_and_duration(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("work", phase="compile") as span:
            span.set(items=3)
        record = sink.spans("work")[0]
        assert record["attrs"] == {"phase": "compile", "items": 3}
        assert record["dur"] >= 0

    def test_span_records_error_kind(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert sink.spans("doomed")[0]["attrs"]["error"] == "ValueError"
        assert tracer.current_span_id == 0

    def test_events_attach_to_current_span(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("run") as span:
            tracer.event("step", k=1)
        assert sink.events("step")[0]["span"] == span.span_id
        assert sink.events("step")[0]["attrs"] == {"k": 1}

    def test_explicit_end(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        span = tracer.span("manual")
        span.set(done=True)
        span.end()
        assert sink.spans("manual")[0]["attrs"] == {"done": True}
        assert tracer.current_span_id == 0


class TestConcurrentSpans:
    def test_threads_parent_spans_within_their_own_thread(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        barrier = threading.Barrier(2)

        def work(tag):
            # Both outers are open before either inner starts.
            with tracer.span("outer", tag=tag):
                barrier.wait(timeout=30)
                with tracer.span("inner", tag=tag):
                    barrier.wait(timeout=30)

        threads = [threading.Thread(target=work, args=(tag,)) for tag in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        ends = {(r["name"], r["attrs"]["tag"]): r for r in sink.spans()}
        assert len({r["span"] for r in ends.values()}) == 4
        for tag in (0, 1):
            assert ends["outer", tag]["parent"] == 0
            assert ends["inner", tag]["parent"] == ends["outer", tag]["span"]
        assert tracer.current_span_id == 0

    def test_asyncio_tasks_parent_spans_within_their_own_task(self):
        sink = MemorySink()
        tracer = Tracer(sink)

        async def work(tag):
            with tracer.span("outer", tag=tag):
                await asyncio.sleep(0)
                with tracer.span("inner", tag=tag):
                    await asyncio.sleep(0)

        async def main():
            with tracer.span("root"):
                await asyncio.gather(work(0), work(1))

        asyncio.run(main())
        ends = {(r["name"], r["attrs"].get("tag")): r for r in sink.spans()}
        root = ends["root", None]["span"]
        for tag in (0, 1):
            assert ends["outer", tag]["parent"] == root
            assert ends["inner", tag]["parent"] == ends["outer", tag]["span"]

    def test_span_ids_unique_across_threads(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        barrier = threading.Barrier(4)

        def work():
            barrier.wait(timeout=30)
            for _ in range(200):
                with tracer.span("s"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ids = [r["span"] for r in sink.spans("s")]
        assert sorted(ids) == list(range(1, 801))

    def test_runtime_offload_nests_under_the_caller(self):
        from repro.runtime.aio import AsyncioRuntime

        sink = MemorySink()
        tracer = Tracer(sink)

        def offloaded():
            with tracer.span("offloaded"):
                pass

        async def main():
            with tracer.span("request") as request:
                await runtime.arun(offloaded)
            return request.span_id

        runtime = AsyncioRuntime(max_workers=1)
        try:
            request_id = asyncio.run(main())
        finally:
            runtime.shutdown()
        assert sink.spans("offloaded")[0]["parent"] == request_id


class TestMetrics:
    def test_counter_aggregation(self):
        tracer = Tracer(MemorySink())
        tracer.count("calls")
        tracer.count("calls", 2)
        tracer.count("tuples", 100)
        assert tracer.counters == {"calls": 3, "tuples": 100}

    def test_timing_histogram(self):
        tracer = Tracer(MemorySink())
        for value in (0.5, 1.5, 1.0):
            tracer.observe("lat", value)
        stats = tracer.timings["lat"]
        assert stats.count == 3
        assert stats.total == pytest.approx(3.0)
        assert stats.min == 0.5 and stats.max == 1.5
        assert stats.mean == pytest.approx(1.0)

    def test_empty_timing_stats(self):
        stats = TimingStats()
        assert stats.mean == 0.0
        assert stats.as_dict()["min"] == 0.0

    def test_flush_metrics_emits_records(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.count("n", 4)
        tracer.observe("t", 0.25)
        tracer.flush_metrics()
        kinds = {(r["type"], r["name"]) for r in sink.records}
        assert ("counter", "n") in kinds and ("timing", "t") in kinds

    def test_snapshot(self):
        tracer = Tracer(MemorySink())
        tracer.count("a")
        tracer.observe("b", 2.0)
        snap = tracer.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["timings"]["b"]["count"] == 1


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlSink(path))
        with tracer.span("root", grid=64):
            tracer.event("runtime.execution", contour=1, plan=2, spilled=False,
                         budget=10.0, cost_spent=4.0, completed=True, learned=[])
        tracer.count("optimizer.calls", 7)
        tracer.close()
        records = read_trace(path)
        types = [r["type"] for r in records]
        assert types == ["span_start", "event", "span_end", "counter"]
        summary = summarize_trace(records)
        assert summary.execution_count == 1
        assert summary.completed and summary.final_plan_id == 2
        assert summary.counters["optimizer.calls"] == 7

    def test_non_json_values_degrade(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlSink(path))
        tracer.event("odd", value=np.float64(1.5), arr=np.int64(3))
        tracer.close()
        record = read_trace(path)[0]
        assert record["attrs"]["value"] == 1.5
        assert record["attrs"]["arr"] == 3

    def test_close_is_idempotent(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        tracer = Tracer(JsonlSink(path))
        tracer.close()
        tracer.sink.close()
        assert json.loads(open(path).read() or "{}") == {}


class TestNullTracer:
    def test_null_sink_is_noop(self):
        NullSink().emit({"type": "event"})  # must not raise or store

    def test_null_tracer_noops(self):
        tracer = NullTracer()
        with tracer.span("x", a=1) as span:
            span.set(b=2)
            tracer.event("e")
            tracer.count("c")
            tracer.observe("t", 1.0)
        assert tracer.counters == {} and tracer.timings == {}
        assert not tracer.enabled

    def test_singleton_shared_span(self):
        a = NULL_TRACER.span("one")
        b = NULL_TRACER.span("two")
        assert a is b  # the shared no-op span

    def test_tracer_pickles_to_null(self, tmp_path):
        tracer = Tracer(JsonlSink(str(tmp_path / "p.jsonl")))
        restored = pickle.loads(pickle.dumps(tracer))
        assert restored is NULL_TRACER
