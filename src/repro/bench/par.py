"""Parallel-substrate bench: persistent pool vs the per-call pools it replaced.

Runs a windowed MSO fuzzing campaign — the serving pattern where queries
arrive a few at a time, so the pre-substrate code paid a fresh
``ctx.Pool`` (fork + interpreter warm-up) *and* a full campaign
environment rebuild in every worker for every window — twice:

* **baseline** — a faithful reimplementation of the replaced code: one
  ephemeral ``multiprocessing.Pool`` per window with an initializer that
  rebuilds the campaign environment in every worker;
* **persistent** — the same windows through the shared
  :func:`repro.par.get_pool` pool, where workers survive across windows
  and the environment is built once per worker per config digest
  (:meth:`~repro.par.WorkerContext.memo`) and then only reused.

Acceptance criteria (``make bench-par`` writes ``BENCH_par.json`` and
exits non-zero on any failure):

* **speed** — the persistent substrate must beat the baseline end-to-end
  by at least ``--min-speedup`` (default 2x);
* **bit-identity** — the index-sorted outcome roster must be *equal* to
  the baseline's, and equal across persistent runs at every worker
  count in ``--equiv-workers`` (default 1, 2, 8) — work-stealing must
  never leak into results;
* **clean teardown** — after :func:`repro.par.shutdown_pools` the
  ``/dev/shm`` scan (:func:`repro.par.leaked_segments`) must come back
  empty.

The report also folds in the campaign's MSO distribution (the fuzzing
campaign doubles as bound validation) and the ``par.*`` telemetry the
pool emitted (payload ships vs. cache hits, task latency).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs.tracer import NULL_TRACER, MemorySink, Tracer
from ..par import get_pool, leaked_segments, shutdown_pools
from ..wlgen.campaign import (
    CampaignConfig,
    QueryOutcome,
    _run_chunk,
    build_env,
    run_query,
)

__all__ = ["ParBenchReport", "run_par_bench", "main"]


# ---------------------------------------------------------------------------
# Baseline: the per-call pool this PR replaced
# ---------------------------------------------------------------------------

_BASELINE_STATE: Dict[str, object] = {}


def _baseline_init(config: CampaignConfig) -> None:
    """Initializer of the replaced per-call pools.

    Every worker of every window rebuilds the campaign environment from
    scratch — exactly the cost structure the payload-cache memo removes.
    """
    _BASELINE_STATE["config"] = config
    _BASELINE_STATE["env"] = build_env(config, tracer=NULL_TRACER)


def _baseline_chunk(indices: List[int]) -> List[QueryOutcome]:
    env = _BASELINE_STATE["env"]
    config = _BASELINE_STATE["config"]
    return [run_query(env, config, index) for index in indices]


def _windows(count: int, window: int) -> List[List[int]]:
    return [
        list(range(lo, min(lo + window, count)))
        for lo in range(0, count, window)
    ]


def _baseline_campaign(
    config: CampaignConfig, windows: Sequence[List[int]]
) -> List[QueryOutcome]:
    """One ephemeral pool per window, env rebuilt in every worker."""
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    outcomes: List[QueryOutcome] = []
    for window in windows:
        with ctx.Pool(
            processes=config.workers,
            initializer=_baseline_init,
            initargs=(config,),
        ) as pool:
            for chunk in pool.imap(_baseline_chunk, [[i] for i in window]):
                outcomes.extend(chunk)
    return outcomes


def _persistent_campaign(
    config: CampaignConfig,
    windows: Sequence[List[int]],
    workers: int,
    tracer: Tracer,
) -> List[QueryOutcome]:
    """The same windows through the shared persistent pool."""
    outcomes: List[QueryOutcome] = []
    for window in windows:
        pool = get_pool(workers, tracer=tracer)
        for chunk in pool.run(
            _run_chunk, config, [[i] for i in window], tracer=tracer
        ):
            outcomes.extend(chunk)
    return outcomes


def _roster(outcomes: Sequence[QueryOutcome]) -> List[Dict[str, object]]:
    """Index-sorted outcome dicts — the bit-identity comparison unit."""
    return [o.to_dict() for o in sorted(outcomes, key=lambda o: o.index)]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


@dataclass
class ParBenchReport:
    """Persistent-substrate-vs-ephemeral-pools verdict for one campaign."""

    benchmark: str
    queries: int
    workers: int
    window: int
    baseline_seconds: float
    persistent_seconds: float
    min_speedup: float
    identical_to_baseline: bool
    equivalence_workers: List[int]
    equivalence_identical: bool
    violations: int
    crashes: int
    mso_distribution: Dict[str, Optional[float]]
    leaked: List[str]
    pool_stats: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    task_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.persistent_seconds <= 0:
            return float("inf")
        return self.baseline_seconds / self.persistent_seconds

    @property
    def fast_enough(self) -> bool:
        return self.speedup >= self.min_speedup

    @property
    def bit_identical(self) -> bool:
        return self.identical_to_baseline and self.equivalence_identical

    @property
    def ok(self) -> bool:
        return self.fast_enough and self.bit_identical and not self.leaked

    def to_dict(self) -> Dict[str, object]:
        return {
            "bench": "par",
            "benchmark": self.benchmark,
            "queries": self.queries,
            "workers": self.workers,
            "window": self.window,
            "baseline_seconds": self.baseline_seconds,
            "persistent_seconds": self.persistent_seconds,
            "speedup": self.speedup,
            "min_speedup": self.min_speedup,
            "identical_to_baseline": self.identical_to_baseline,
            "equivalence_workers": list(self.equivalence_workers),
            "equivalence_identical": self.equivalence_identical,
            "violations": self.violations,
            "crashes": self.crashes,
            "mso_distribution": dict(self.mso_distribution),
            "leaked_segments": list(self.leaked),
            "pool_stats": dict(self.pool_stats),
            "counters": dict(self.counters),
            "task_seconds": dict(self.task_seconds),
            "ok": self.ok,
        }

    def describe(self) -> str:
        mso = self.mso_distribution
        dist = ", ".join(
            f"{key}={mso[key]:.3f}"
            for key in ("p50", "p90", "p95", "p99", "max")
            if mso.get(key) is not None
        )
        lines = [
            f"par bench: {self.benchmark} campaign, {self.queries} queries "
            f"in windows of {self.window}, {self.workers} workers",
            f"  per-call pools    : {self.baseline_seconds:8.3f} s "
            "(fresh pool + env rebuild per window)",
            f"  persistent pool   : {self.persistent_seconds:8.3f} s "
            f"({self.speedup:.1f}x, need >= {self.min_speedup:g}x)"
            + ("" if self.fast_enough else "  FAIL"),
            f"  vs baseline       : "
            f"{'bit-identical' if self.identical_to_baseline else 'DIVERGED'}"
            + ("" if self.identical_to_baseline else "  FAIL"),
            f"  across workers    : "
            + "/".join(str(w) for w in self.equivalence_workers)
            + (
                " bit-identical"
                if self.equivalence_identical
                else " DIVERGED  FAIL"
            ),
            f"  campaign verdict  : {self.violations} violations, "
            f"{self.crashes} crashes; MSO {dist}",
            f"  shm after shutdown: "
            + (
                "clean"
                if not self.leaked
                else f"LEAKED {self.leaked}  FAIL"
            ),
        ]
        stats = self.pool_stats
        if stats:
            lines.append(
                f"  pool telemetry    : {stats.get('runs', 0)} runs "
                f"(reuse rate {stats.get('reuse_rate', 0.0):.3f}), "
                f"{stats.get('tasks', 0)} tasks, "
                f"{stats.get('payload_ships', 0)} payload ships / "
                f"{stats.get('payload_hits', 0)} cache hits, "
                f"{stats.get('ship_bytes', 0)} bytes shipped"
            )
        lines.append(f"  verdict           : {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _mso_distribution(
    outcomes: Sequence[QueryOutcome],
) -> Dict[str, Optional[float]]:
    msos = [o.mso for o in outcomes if o.mso is not None]
    if not msos:
        return {q: None for q in ("p50", "p90", "p95", "p99", "max", "mean")}
    arr = np.asarray(msos, dtype=float)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }


# ---------------------------------------------------------------------------
# Bench driver
# ---------------------------------------------------------------------------


def run_par_bench(
    benchmark: str = "tpcds",
    count: int = 1000,
    workers: int = 8,
    window: int = 2,
    equiv_workers: Sequence[int] = (1, 2, 8),
    min_speedup: float = 2.0,
    max_dims: int = 2,
    seed: int = 42,
) -> ParBenchReport:
    """Race the persistent substrate against per-call pools, end to end."""
    tracer = Tracer(MemorySink())
    config = CampaignConfig(
        benchmark=benchmark,
        count=count,
        seed=seed,
        max_dims=max_dims,
        workers=workers,
    )
    windows = _windows(count, window)

    t0 = time.perf_counter()
    baseline = _baseline_campaign(config, windows)
    t1 = time.perf_counter()
    persistent = _persistent_campaign(config, windows, workers, tracer)
    t2 = time.perf_counter()

    baseline_roster = _roster(baseline)
    persistent_roster = _roster(persistent)
    identical_to_baseline = persistent_roster == baseline_roster

    # Bit-identity across worker counts: the same windowed campaign on
    # pools of every requested size must yield an equal roster — the
    # substrate's index-sorted reassembly erases work-stealing order.
    equivalence_identical = True
    for other in equiv_workers:
        if other == workers:
            continue
        roster = _roster(
            _persistent_campaign(config, windows, other, tracer)
        )
        if roster != persistent_roster:
            equivalence_identical = False

    # Teardown gate: every pool closed, no shm segment left behind.
    pool = get_pool(workers, tracer=tracer)
    stats = {
        "runs": pool.stats.runs,
        "tasks": pool.stats.tasks,
        "payload_ships": pool.stats.payload_ships,
        "payload_hits": pool.stats.payload_hits,
        "ship_bytes": pool.stats.ship_bytes,
        "reuse_rate": pool.stats.reuse_rate,
    }
    shutdown_pools()
    leaked = leaked_segments()

    counters = {
        key: float(value)
        for key, value in sorted(tracer.counters.items())
        if key.startswith("par.")
    }
    timing = tracer.timings.get("par.task_seconds")
    task_seconds = timing.as_dict() if timing is not None else {}

    return ParBenchReport(
        benchmark=benchmark,
        queries=count,
        workers=workers,
        window=window,
        baseline_seconds=t1 - t0,
        persistent_seconds=t2 - t1,
        min_speedup=min_speedup,
        identical_to_baseline=identical_to_baseline,
        equivalence_workers=list(equiv_workers),
        equivalence_identical=equivalence_identical,
        violations=sum(1 for o in persistent if o.status == "violation"),
        crashes=sum(1 for o in persistent if o.status == "crash"),
        mso_distribution=_mso_distribution(persistent),
        leaked=leaked,
        pool_stats=stats,
        counters=counters,
        task_seconds=task_seconds,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.par",
        description="benchmark the persistent worker substrate against "
        "the per-call pools it replaced",
    )
    parser.add_argument("--benchmark", default="tpcds",
                        choices=("tpch", "tpcds"))
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--window", type=int, default=2)
    parser.add_argument(
        "--equiv-workers", default="1,2,8",
        help="comma-separated worker counts for the bit-identity check",
    )
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--max-dims", type=int, default=2)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fast configuration for CI (no speedup floor)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report as JSON (e.g. BENCH_par.json)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.count = min(args.count, 24)
        args.workers = 2
        args.window = 4
        args.equiv_workers = "1,2"
        args.min_speedup = 0.0
    equiv = [int(part) for part in args.equiv_workers.split(",") if part]
    report = run_par_bench(
        benchmark=args.benchmark,
        count=args.count,
        workers=args.workers,
        window=args.window,
        equiv_workers=equiv,
        min_speedup=args.min_speedup,
        max_dims=args.max_dims,
        seed=args.seed,
    )
    print(report.describe())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
