"""Run one workload: untraced for the end-to-end metrics, or traced for
the per-layer ones.  Returns the result line, the report and the spans.

A traced run first repeats the untraced measurement, then replays the
same operations with every layer boundary wrapped; the ratio of the two
walls is ``trace.overhead``.
"""

from __future__ import annotations

import os
import platform
import re
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.par.pool import PAYLOAD_CACHE_SLOTS
from repro.wlgen import QueryGenerator
from repro.wlgen.campaign import build_env

from . import workloads as w
from .tracing import LAYERS, Recorder, RecordingTracer, attribute_compiles, installed
from .tracing import layer_totals, span_records

WHY = {
    "serve_adhoc": "ad-hoc SQL with statistics drift: every key misses, so "
    "template rebinds, cold compiles, drift patching and store writes are on "
    "the request path",
    "campaign": "MSO fuzzing campaigns on the worker pool: dimensioning, compile, "
    "sweep and par do the work; no execution, no serving cache",
}

END_TO_END = {
    "setup_s": "s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

_LAYER_EXTRAS = {
    "serve.hit_rate": "ratio",
    "serve.evictions": "count",
    "serve.compile_wait_s": "s",
    "template.rebind_frac": "ratio",
    "template.fallbacks": "count",
    "optimizer.locations": "count",
    "ess.diagram.self_s": "s",
    "ess.reduction.self_s": "s",
    "ess.dimensioning.self_s": "s",
    "core.bouquet.contours": "count",
    "core.bouquet.cardinality": "count",
    "core.runtime.executions_per_request": "count",
    "core.runtime.killed_work_frac": "ratio",
    "executor.rows_out": "count",
    "drift.patched_frac": "ratio",
    "sweep.residue_frac": "ratio",
    "sweep.cohorts": "count",
    "par.task_p50_ms": "ms",
    "par.payload_hit_rate": "ratio",
    "par.worker_idle_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    # Workload figures with no meaning on every workload (0 where they
    # have none), so they cannot be bounded end-to-end metrics.
    "refresh_p50_ms": "ms",
    "charged_units_p50": "cost_units",
    "mso_p95": "ratio",
    "failed_frac": "ratio",
    "share.exact_hit": "ratio",
    "share.template_rebind": "ratio",
    "share.cold_compile": "ratio",
    "share.execution": "ratio",
    "share.generate": "ratio",
    "share.dimension": "ratio",
    "share.compile": "ratio",
    "share.sweep": "ratio",
}

PER_LAYER: Dict[str, str] = {
    **{
        f"{layer}.{kind}": unit
        for layer in LAYERS
        for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    },
    **_LAYER_EXTRAS,
}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: str):
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(root: str, seed: int) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "seed": seed,
    }


def _metrics(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict]:
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


def _rows(database) -> Dict[str, int]:
    return {t: database.row_count(t) for t in database.schema.table_names}


# ---------------------------------------------------------------------------
# Per-layer figures of a traced run
# ---------------------------------------------------------------------------


def layer_figures(recorder: Recorder, tracer: RecordingTracer, thread_wall: float):
    """The per-layer metrics from one traced run's spans and counters."""
    totals = layer_totals(recorder.spans)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        for kind in ("calls", "busy_s", "self_s"):
            out[f"{layer}.{kind}"] = totals[layer][kind]

    def total(key: str, field: str) -> float:
        return totals.get(key, {}).get(field, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counters = tracer.counters
    out["serve.evictions"] = counters.get("serve.cache.evict", 0.0)
    out["serve.compile_wait_s"] = sum(recorder.compile_waits)
    out["template.fallbacks"] = total("template", "fallback")
    out["optimizer.locations"] = total("optimizer", "locations")
    for sub in ("diagram", "reduction", "dimensioning"):
        out[f"ess.{sub}.self_s"] = total(f"ess.{sub}", "self_s")
    bouquets = total("core.bouquet", "calls")
    out["core.bouquet.contours"] = ratio(total("core.bouquet", "contours"), bouquets)
    out["core.bouquet.cardinality"] = ratio(total("core.bouquet", "cardinality"), bouquets)
    runs = total("core.runtime", "calls")
    out["core.runtime.executions_per_request"] = ratio(
        total("core.runtime", "executions"), runs
    )
    out["core.runtime.killed_work_frac"] = ratio(
        total("core.runtime", "killed_units"), total("core.runtime", "units")
    )
    out["executor.rows_out"] = total("executor", "rows_out")
    out["drift.patched_frac"] = ratio(total("drift", "patched"), total("drift", "calls"))
    out["sweep.residue_frac"] = ratio(
        counters.get("sweep.residue_locations", 0.0), total("sweep", "locations")
    )
    out["sweep.cohorts"] = counters.get("sweep.cohorts", 0.0)
    self_sum = sum(totals[layer]["self_s"] for layer in LAYERS)
    out["trace.coverage"] = ratio(self_sum, thread_wall)
    return out, totals


def par_figures(recorder: Recorder, tracer: RecordingTracer, workers: int):
    """The ``par`` layer, from the pool's own counters and task latencies."""
    totals = layer_totals(recorder.spans)["par"]
    tasks = tracer.values.get("par.task_seconds", [])
    ships = tracer.counters.get("par.payload.ships", 0.0)
    hits = tracer.counters.get("par.payload.cache_hits", 0.0)
    capacity = workers * totals["busy_s"]
    return {
        "par.calls": totals["calls"],
        "par.busy_s": totals["busy_s"],
        "par.self_s": totals["self_s"],
        "par.task_p50_ms": w.percentile(tasks, 50) * 1000.0,
        "par.payload_hit_rate": hits / (hits + ships) if hits + ships else 0.0,
        "par.worker_idle_frac": 1.0 - sum(tasks) / capacity if capacity else 0.0,
    }


# ---------------------------------------------------------------------------
# Serving workload
# ---------------------------------------------------------------------------


def _drift_statistics(database, items) -> Dict[int, object]:
    """The statistics each refresh item swaps in, re-sampled by its seed."""
    return {
        item.stats_seed: database.build_statistics(
            sample_size=w.STATS_SAMPLE, seed=item.stats_seed
        )
        for item in items
        if item.kind == "refresh"
    }


def _serve_facts(env: w.ServeEnv, outcomes) -> Dict[str, object]:
    """Workload sizes, and the cache capacities beside the keys touched."""
    queries = [o for o in outcomes if o.kind == "query"]
    sqls = {o.sql for o in queries}
    return {
        "rows_per_table": _rows(env.database),
        "requests": len(queries),
        "distinct_sql": len(sqls),
        "distinct_shapes": len({_shape(sql) for sql in sqls}),
        "refreshes": sum(1 for o in outcomes if o.kind == "refresh"),
        "memory_tier_capacity": env.server.store.capacity,
        "template_tier_capacity": env.server.templates.capacity,
    }


def _shape(sql: str) -> str:
    """SQL text with its numeric constants blanked: the query's shape."""
    return re.sub(r"-?\d+(\.\d+)?(e-?\d+)?", "#", sql)


def _adhoc_warmup(setup, seed: int) -> Tuple[List[w.Outcome], Dict[str, int]]:
    """A short ad-hoc stream on a throwaway server, before the clock:
    its outcomes and their expected row counts."""
    env = setup()
    generator = QueryGenerator(env.database.schema, env.database, w.ADHOC_GENERATOR)
    items = w.adhoc_requests(generator, w.warmup_seed(seed), w.ADHOC_WARMUP_ITEMS)
    outcomes, _ = w.drive(env, items, _drift_statistics(env.database, items))
    env.close()
    return outcomes, {item.sql: item.rows for item in items if item.kind == "query"}


def run_adhoc(seed: int, seconds: float, trace: bool):
    def setup(tracer=None):
        return w.serve_setup(w.ADHOC_SCALE, tracer=tracer)

    spans: List[Dict] = []
    if not trace:
        env, setup_times = w.timed_setups(
            setup, w.ServeEnv.close, w.SETUP_BEFORE, keep=True
        )
    else:
        env = setup()
    generator = QueryGenerator(env.database.schema, env.database, w.ADHOC_GENERATOR)
    items = w.adhoc_requests(
        generator, seed, int(w.ADHOC_ITEMS_PER_SECOND * seconds) + 100
    )
    statistics = _drift_statistics(env.database, items)
    warmup, expected = _adhoc_warmup(setup, seed)
    outcomes, wall = w.drive(env, items, statistics, seconds=seconds)
    rss = w.peak_rss_mb()
    env.close()
    figures = w.serve_figures(outcomes, wall)
    shares = w.request_shares(outcomes)
    all_outcomes = warmup + outcomes
    values: Dict[str, float] = {}
    if not trace:
        setup_times += w.timed_setups(setup, w.ServeEnv.close, w.SETUP_AFTER)[1]
        values.update(
            figures, setup_s=w.percentile(setup_times, 50), peak_rss_mb=rss
        )
    else:
        # Fresh statistics objects: nothing memoized on them carries over.
        statistics = _drift_statistics(env.database, items[: len(outcomes)])
        recorder, tracer = Recorder(), RecordingTracer()
        origin = time.perf_counter()
        with installed(recorder):
            traced_env = setup(tracer)
            setup_wall = time.perf_counter() - origin
            attribute_compiles(recorder, traced_env.server)
            traced, traced_wall = w.drive(traced_env, items[: len(outcomes)], statistics)
            traced_env.close()
        all_outcomes += traced
        values, totals = layer_figures(recorder, tracer, setup_wall + traced_wall)
        values["trace.overhead"] = traced_wall / wall - 1.0
        traced_shares = w.request_shares(traced)
        values["serve.hit_rate"] = traced_shares["share.exact_hit"]
        misses = 1.0 - traced_shares["share.exact_hit"]
        values["template.rebind_frac"] = (
            traced_shares["share.template_rebind"] / misses if misses else 0.0
        )
        request_wall = totals["serve.gateway.handle"]["busy_s"]
        values["share.execution"] = (
            totals["core.runtime"]["busy_s"] / request_wall if request_wall else 0.0
        )
        values.update(shares)
        values["refresh_p50_ms"] = figures["refresh_p50_ms"]
        values["charged_units_p50"] = figures["charged_units_p50"]
        spans = list(span_records(recorder.spans, origin))
    expected.update((item.sql, item.rows) for item in items if item.kind == "query")
    failed = w.check_outcomes(all_outcomes, expected)
    values["failed_frac"] = failed / max(len(all_outcomes), 1)
    report = {
        "figures": figures,
        "shares": shares,
        "facts": _serve_facts(env, outcomes),
        "failures": [
            {"sql": o.sql, "status": o.status, "rows": o.rows,
             "expected": expected.get(o.sql), "error": o.error[-500:]}
            for o in all_outcomes
            if o.status != "ok" or (o.kind == "query" and o.rows != expected[o.sql])
        ][:5],
    }
    return values, len(all_outcomes), failed, report, spans


# ---------------------------------------------------------------------------
# Campaign workload
# ---------------------------------------------------------------------------


def _campaign_figures(runs, wall: float, task_seconds=()) -> Dict[str, float]:
    """Throughput and MSO of a run of campaigns; per-query latency when
    the pool's task latencies were read.

    ``queries_per_s`` is every query verdicted over the run's wall, so
    each campaign counts by its size; the median over campaigns is kept
    in the report.
    """
    figures = {
        "queries_per_s": sum(r.queries for r in runs) / wall,
        "queries_per_s_campaign_p50": w.percentile(
            [r.queries / r.seconds for r in runs], 50
        ),
        "mso_p95": w.percentile([m for r in runs for m in r.msos], 95),
        "campaigns": float(len(runs)),
    }
    if task_seconds:
        latencies = [t * 1000.0 for t in task_seconds]
        p95 = w.percentile(latencies, 95)
        figures.update(
            request_p50_ms=w.percentile(latencies, 50),
            request_p95_ms=p95,
            samples=float(len(latencies)),
            samples_beyond_p95=float(sum(1 for x in latencies if x > p95)),
        )
    return figures


def _campaign_checks(runs: Sequence[w.CampaignRun]) -> Tuple[int, int]:
    """(attempted, failed): every query, plus one leak check per campaign."""
    attempted = sum(r.queries for r in runs) + len(runs)
    failed = sum(r.failed for r in runs) + sum(1 for r in runs if r.leaked)
    return attempted, failed


def run_campaign_workload(seed: int, seconds: float, trace: bool):
    first = next(w.campaign_configs(seed, w.CAMPAIGN_COUNT))
    spans: List[Dict] = []
    shares: Dict[str, float] = {}
    if not trace:
        setup = lambda: w.campaign_setup(first)  # noqa: E731
        close = lambda p: p.close()  # noqa: E731
        pool, setup_times = w.timed_setups(setup, close, w.SETUP_BEFORE, keep=True)
        warmup = w.campaign_configs(w.warmup_seed(seed), w.CAMPAIGN_COUNT)
        warm, _ = w.run_campaigns(warmup, 0, pool=pool, limit=1)
        # Only the parent side traces: the pool's per-task latencies.
        tasks = RecordingTracer()
        runs, wall = w.run_campaigns(
            w.campaign_configs(seed, w.CAMPAIGN_COUNT), seconds, pool=pool, tracer=tasks
        )
        pool.close()
        rss = max(w.peak_rss_mb(), w.peak_rss_mb(children=True))
        setup_times += w.timed_setups(setup, close, w.SETUP_AFTER)[1]
        task_seconds = tasks.values.get("par.task_seconds", [])
        if len(task_seconds) != sum(r.queries for r in runs):
            raise RuntimeError(
                "campaign: the pool no longer runs one task per query, so its "
                "task latencies are not per-query latencies"
            )
        figures = _campaign_figures(runs, wall, task_seconds)
        values = dict(
            figures,
            setup_s=w.percentile(setup_times, 50),
            peak_rss_mb=rss,
        )
        attempted, failed = _campaign_checks(warm + runs)
    else:
        # In-process with one worker: wrappers do not reach forked workers.
        in_process = lambda: w.campaign_configs(seed, w.CAMPAIGN_COUNT, workers=1)
        runs, wall = w.run_campaigns(in_process(), seconds)
        figures = _campaign_figures(runs, wall)
        recorder, tracer = Recorder(), RecordingTracer()
        origin = time.perf_counter()
        with installed(recorder):
            build_env(first, tracer=tracer)
            traced, traced_wall = w.run_campaigns(
                in_process(), 0, tracer=tracer, limit=len(runs)
            )
        window = time.perf_counter() - origin
        values, totals = layer_figures(recorder, tracer, window)
        values["trace.overhead"] = traced_wall / wall - 1.0
        queries_wall = totals.get("wlgen.run_query", {}).get("busy_s", 0.0)
        shares = {
            f"share.{stage}": (
                totals.get(key, {}).get("busy_s", 0.0) / queries_wall
                if queries_wall else 0.0
            )
            for stage, key in (
                ("generate", "wlgen.generate"),
                ("dimension", "ess.dimensioning"),
                ("compile", "stage.compile"),
                ("sweep", "sweep.cost_field"),
            )
        }
        values.update(shares)
        # The pool's side, from its own counters: two campaigns on two workers.
        par_recorder, par_tracer = Recorder(), RecordingTracer()
        pool = w.campaign_setup(first)
        with installed(par_recorder):
            par_runs, _ = w.run_campaigns(
                w.campaign_configs(seed, w.CAMPAIGN_COUNT), 0,
                pool=pool, tracer=par_tracer, limit=2,
            )
        pool.close()
        values.update(par_figures(par_recorder, par_tracer, w.CAMPAIGN_WORKERS))
        values["mso_p95"] = figures["mso_p95"]
        spans = list(span_records(recorder.spans, origin))
        attempted, failed = _campaign_checks(runs + traced + par_runs)
    values["failed_frac"] = failed / max(attempted, 1)
    report = {
        "figures": figures,
        "shares": shares,
        "facts": {
            "rows_per_table": _rows(build_env(first).catalog.database),
            "queries_per_campaign": w.CAMPAIGN_COUNT,
            "distinct_configs": len(runs),
            "worker_payload_slots": PAYLOAD_CACHE_SLOTS,
            "workers": 1 if trace else w.CAMPAIGN_WORKERS,
            "leaked_segments": sorted({s for r in runs for s in r.leaked}),
        },
    }
    return values, attempted, failed, report, spans


def run(name: str, seed: int, seconds: float, trace: bool, root: str):
    """Returns (result line, report, span records)."""
    runner = {"serve_adhoc": run_adhoc, "campaign": run_campaign_workload}[name]
    values, attempted, failed, report, spans = runner(seed, seconds, trace)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": _metrics(values, units),
    }
    report = {
        "workload": name,
        "why": WHY[name],
        "warm_at_start": w.WARM_STATE[name],
        "host": host_facts(root, seed),
        "seconds": seconds,
        "trace": trace,
        "attempted": int(attempted),
        "failed": int(failed),
        **report,
    }
    return result, report, spans
