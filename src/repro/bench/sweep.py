"""Sweep-engine bench: vectorized cohort sweeps vs the reference loop.

Builds a 3D lab query, computes the optimized-bouquet cost field twice —
once with the per-location reference driver
(:func:`repro.core.simulation.simulate_at` looped over the grid) and once
with the cohort sweep engine (:mod:`repro.sweep`) — and checks two
acceptance criteria:

* **speed** — the cold engine sweep must beat the reference loop by at
  least ``--min-speedup`` (default 5x) on the full grid;
* **exactness** — on a deterministic location sample the engine's totals
  must match fresh reference runs within ``--tolerance`` relative error
  (default 1e-9; observed differences are float rounding, ~1e-16);
* **memoization** — after invalidating the totals memo (what
  ``cost_field(refresh=True)`` does) a re-sweep must reuse the cached
  contour tables, building no new ones, and reproduce the cold field
  bit-for-bit.

A warm re-sweep is also timed to show the totals-memo path, and the
engine's ``sweep.field`` span telemetry (cohorts, splits, batched
costings) is folded into the report.

``make bench-sweep`` runs this and writes ``BENCH_sweep.json``; the
process exits non-zero when either criterion fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.simulation import sample_locations, simulate_at
from ..obs.tracer import MemorySink, Tracer
from ..sweep import SweepEngine
from .harness import Lab

__all__ = ["SweepBenchReport", "run_sweep_bench", "main"]


@dataclass
class SweepBenchReport:
    """One engine-vs-reference comparison on a single query grid."""

    query: str
    grid: int
    dimensionality: int
    contours: int
    reference_seconds: float
    sweep_seconds: float
    warm_seconds: float
    refresh_seconds: float
    refresh_tables_built: int
    refresh_identical: bool
    sample_size: int
    max_rel_error: float
    min_speedup: float
    tolerance: float
    telemetry: Dict[str, float]

    @property
    def speedup(self) -> float:
        if self.sweep_seconds <= 0:
            return float("inf")
        return self.reference_seconds / self.sweep_seconds

    @property
    def fast_enough(self) -> bool:
        return self.speedup >= self.min_speedup

    @property
    def exact_enough(self) -> bool:
        return self.max_rel_error <= self.tolerance

    @property
    def memo_warm(self) -> bool:
        return self.refresh_tables_built == 0 and self.refresh_identical

    @property
    def ok(self) -> bool:
        return self.fast_enough and self.exact_enough and self.memo_warm

    def to_dict(self) -> Dict[str, object]:
        return {
            "query": self.query,
            "grid": self.grid,
            "dimensionality": self.dimensionality,
            "contours": self.contours,
            "reference_seconds": self.reference_seconds,
            "sweep_seconds": self.sweep_seconds,
            "warm_seconds": self.warm_seconds,
            "refresh_seconds": self.refresh_seconds,
            "refresh_tables_built": self.refresh_tables_built,
            "refresh_identical": self.refresh_identical,
            "speedup": self.speedup,
            "min_speedup": self.min_speedup,
            "sample_size": self.sample_size,
            "max_rel_error": self.max_rel_error,
            "tolerance": self.tolerance,
            "telemetry": self.telemetry,
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"sweep bench: {self.query} "
            f"({self.grid} locations, {self.contours} contours)",
            f"  reference loop : {self.reference_seconds:8.3f} s",
            f"  cohort sweep   : {self.sweep_seconds:8.3f} s "
            f"({self.speedup:.1f}x, need >= {self.min_speedup:g}x)"
            + ("" if self.fast_enough else "  FAIL"),
            f"  warm re-sweep  : {self.warm_seconds:8.5f} s",
            f"  refresh sweep  : {self.refresh_seconds:8.5f} s "
            f"({self.refresh_tables_built} contour tables built, need 0; "
            f"field {'bit-identical' if self.refresh_identical else 'DIVERGED'})"
            + ("" if self.memo_warm else "  FAIL"),
            f"  field equality : max rel err {self.max_rel_error:.3e} "
            f"on {self.sample_size} sampled locations "
            f"(need <= {self.tolerance:g})"
            + ("" if self.exact_enough else "  FAIL"),
        ]
        if self.telemetry:
            parts = ", ".join(
                f"{key}={value:g}" for key, value in sorted(self.telemetry.items())
            )
            lines.append(f"  engine         : {parts}")
        lines.append(f"  verdict        : {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _sweep_telemetry(tracer: Tracer) -> Dict[str, float]:
    spans = [s for s in tracer.sink.spans() if s.get("name") == "sweep.field"]
    if not spans:
        return {}
    # The first sweep.field span is the cold sweep; later ones are the
    # warm memo-path calls (0 cohorts by construction).
    attrs = spans[0].get("attrs", {})
    keep = ("cohorts", "splits", "batched_costings")
    return {
        key: float(attrs[key]) for key in keep if attrs.get(key) is not None
    }


def run_sweep_bench(
    query: str = "3D_H_Q5",
    resolution: int = 12,
    scale: float = 0.002,
    stats_sample: int = 1000,
    seed: int = 7,
    lambda_: float = 0.2,
    ratio: float = 2.0,
    sample: int = 64,
    min_speedup: float = 5.0,
    tolerance: float = 1e-9,
) -> SweepBenchReport:
    """Build the lab query and race the engine against the reference."""
    tracer = Tracer(MemorySink())
    lab = Lab(
        tpch_scale=scale,
        tpcds_scale=scale,
        stats_sample=stats_sample,
        seed=seed,
        lambda_=lambda_,
        ratio=ratio,
        resolutions={1: resolution, 2: resolution, 3: resolution,
                     4: resolution, 5: resolution},
        tracer=tracer,
    )
    ql = lab.build(query)
    bouquet = ql.bouquet
    space = ql.space

    t0 = time.perf_counter()
    reference = {
        location: simulate_at(bouquet, location).total_cost
        for location in space.locations()
    }
    t1 = time.perf_counter()

    engine = SweepEngine(bouquet)
    t2 = time.perf_counter()
    field = engine.cost_field()
    t3 = time.perf_counter()
    engine.totals(list(space.locations()))  # warm path: totals memo
    t4 = time.perf_counter()

    # Refresh pass: drop the totals memo but keep the contour tables and
    # coster caches, then re-sweep — no table may be rebuilt, and the
    # field must come back bit-identical.
    tables_before = engine.cache.tables_built
    refresh_field = engine.cost_field(refresh=True)
    t5 = time.perf_counter()
    refresh_tables_built = engine.cache.tables_built - tables_before
    refresh_identical = bool(np.array_equal(refresh_field, field))

    # Exactness on a deterministic sample, compared against the dict the
    # reference loop produced for the same locations.
    locations = sample_locations(space, sample, seed=0)
    engine_totals = engine.totals(locations)
    ref_totals = np.array([reference[loc] for loc in locations])
    rel = np.abs(engine_totals - ref_totals) / np.maximum(
        np.abs(ref_totals), 1e-300
    )
    return SweepBenchReport(
        query=query,
        grid=space.size,
        dimensionality=space.dimensionality,
        contours=len(bouquet.contours),
        reference_seconds=t1 - t0,
        sweep_seconds=t3 - t2,
        warm_seconds=t4 - t3,
        refresh_seconds=t5 - t4,
        refresh_tables_built=refresh_tables_built,
        refresh_identical=refresh_identical,
        sample_size=len(locations),
        max_rel_error=float(rel.max()) if len(locations) else 0.0,
        min_speedup=min_speedup,
        tolerance=tolerance,
        telemetry=_sweep_telemetry(tracer),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.sweep",
        description="benchmark the cohort sweep engine against the "
        "per-location reference driver",
    )
    parser.add_argument("--query", default="3D_H_Q5")
    parser.add_argument("--resolution", type=int, default=12)
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--stats-sample", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ratio", type=float, default=2.0)
    parser.add_argument("--anorexic-lambda", type=float, default=0.2)
    parser.add_argument("--sample", type=int, default=64)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report as JSON (e.g. BENCH_sweep.json)",
    )
    args = parser.parse_args(argv)
    report = run_sweep_bench(
        query=args.query,
        resolution=args.resolution,
        scale=args.scale,
        stats_sample=args.stats_sample,
        seed=args.seed,
        lambda_=args.anorexic_lambda,
        ratio=args.ratio,
        sample=args.sample,
        min_speedup=args.min_speedup,
        tolerance=args.tolerance,
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
