"""Tests of the benchmark itself: metric names and units, the failure
count, seeded inputs, the row-count oracle and span parentage.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.catalog.tpch import tpch_generator_spec, tpch_schema  # noqa: E402
from repro.datagen.database import Database  # noqa: E402
from repro.executor.reference import reference_row_count  # noqa: E402
from repro.query.sql import parse_query  # noqa: E402
from repro.query.workload import tpch_workload  # noqa: E402
from repro.wlgen import GeneratorConfig, QueryGenerator  # noqa: E402

from perfbench import bench, tracing  # noqa: E402
from perfbench import workloads as w  # noqa: E402
from perfbench.oracle import RowCounter  # noqa: E402


@pytest.fixture
def tiny(monkeypatch):
    """Small data and short runs: the same code paths in seconds."""
    monkeypatch.setattr(w, "ADHOC_SCALE", 0.002)
    monkeypatch.setattr(w, "CAMPAIGN_COUNT", 4)
    monkeypatch.setattr(w, "SETUP_BEFORE", (1, 0.0))
    monkeypatch.setattr(w, "SETUP_AFTER", (1, 0.0))


@pytest.fixture(scope="module")
def small_db():
    schema = tpch_schema(0.002)
    return Database.generate(schema, tpch_generator_spec(0.002), seed=7)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec, {m["name"]: m["unit"] for m in spec[section]}


def test_benchmark_json_matches_the_program():
    spec, end_to_end = _declared("end_to_end")
    _, per_layer = _declared("per_layer")
    assert end_to_end == bench.END_TO_END
    assert per_layer == bench.PER_LAYER
    assert [wl["name"] for wl in spec["workloads"]] == list(bench.WHY)


@pytest.mark.parametrize("workload", ["serve_adhoc", "campaign"])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_emits_every_metric_with_its_unit(tiny, workload, trace):
    result, report, spans = bench.run(workload, 3, 0.3, trace, ROOT)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert json.loads(json.dumps(result)) == result
    assert report["host"]["seed"] == 3 and report["host"]["nproc"]
    if not trace:
        for name in ("setup_s", "request_p50_ms", "queries_per_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
    else:
        assert spans and all(s["end"] >= s["start"] for s in spans)
        assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1.05


def test_wrong_oracle_count_shows_in_failed_frac(tiny, monkeypatch):
    honest = RowCounter.count

    def off_by_one(counter, query):
        return honest(counter, query) + 1

    monkeypatch.setattr(RowCounter, "count", off_by_one)
    result, report, _ = bench.run("serve_adhoc", 3, 0.3, True, ROOT)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0
    assert report["failures"]


def test_same_seed_same_inputs(small_db):
    def adhoc(seed):
        generator = QueryGenerator(small_db.schema, small_db, w.ADHOC_GENERATOR)
        return w.adhoc_requests(generator, seed, 120)

    items = adhoc(5)
    assert items == adhoc(5) and items != adhoc(6)
    queries = [i for i in items if i.kind == "query"]
    assert len({i.sql for i in queries}) == len(queries)
    for item in queries[:20]:
        query = parse_query(item.sql, small_db.schema)
        assert item.rows == reference_row_count(small_db, query) <= w.ADHOC_MAX_ROWS
    assert sum(1 for i in items if i.kind == "refresh") == 120 // (w.ADHOC_REFRESH_EVERY + 1)

    def configs(seed):
        stream = w.campaign_configs(seed, w.CAMPAIGN_COUNT)
        return [next(stream) for _ in range(3)]

    assert configs(5) == configs(5)
    assert configs(5)[0].seed != configs(6)[0].seed
    assert len({c.seed for c in configs(5)}) == 3


def test_count_oracle_equals_reference(small_db):
    counter = RowCounter(small_db)  # one counter: its key indexes are reused
    for entry in tpch_workload(small_db.schema).values():
        assert counter.count(entry.query) == reference_row_count(small_db, entry.query)
    generator = QueryGenerator(small_db.schema, small_db, GeneratorConfig())
    for index in range(60):
        query = generator.generate(9, index).query
        assert counter.count(query) == reference_row_count(small_db, query)


def test_self_time_subtracts_merged_children():
    spans = [
        tracing.Span(1, "outer", "serve", 0.0, 0, 1, 1, end=10.0),
        tracing.Span(2, "a", "executor", 1.0, 1, 1, 1, end=4.0),
        tracing.Span(3, "b", "executor", 3.0, 1, 1, 2, end=6.0),  # overlaps a
        tracing.Span(4, "c", "executor", 9.0, 1, 1, 2, end=12.0),  # past the end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    totals = tracing.layer_totals(spans)
    assert totals["executor"]["calls"] == 3
    assert totals["serve"]["busy_s"] == pytest.approx(10.0)


def test_spans_parent_per_thread_under_concurrency():
    recorder = tracing.Recorder()
    barrier = threading.Barrier(2)
    inner = recorder.wrap("executor", "inner", lambda: barrier.wait(timeout=5))
    outer = recorder.wrap("serve", "outer", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    by_id = {s.sid: s for s in recorder.spans}
    inners = [s for s in recorder.spans if s.name == "inner"]
    assert len(inners) == 2
    for span in inners:
        parent = by_id[span.parent]
        assert parent.name == "outer" and parent.thread == span.thread
        assert parent.rid == span.rid
    assert len({s.rid for s in inners}) == 2


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_adhoc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
