"""Drift bench: delta refresh vs. from-scratch rebuild after stats drift.

Builds a 3D lab query's bouquet under ETL-style statistics (no database,
so the base assignment is *estimated* and statistics drift actually
moves the compile inputs), injects a localized perturbation into one
column's statistics, and refreshes the bouquet both ways:

* the **delta engine** (:func:`repro.drift.refresh.delta_refresh`)
  re-costs the incumbent frontier, probes a coarse subgrid, and re-plans
  only the drift-suspect locations;
* the **reference engine** rebuilds the exhaustive diagram from scratch.

Acceptance criteria (``make bench-drift`` gates on all three):

* **locality** — the delta engine must plan at most
  ``--max-replan-fraction`` (default 20%) of the grid;
* **savings** — the full rebuild must plan at least ``--min-savings``
  (default 5x) more locations than the delta engine;
* **exactness** — the two bouquets must be bit-identical: same plan ids
  at every location, bitwise-equal costs, structurally identical plans,
  identical contours and budgets (:func:`repro.drift.bouquets_equal`).

``make bench-drift`` writes ``BENCH_drift.json``; ``make drift-smoke``
runs the same gates on a smaller grid for CI.  The process exits
non-zero when any criterion fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..catalog.tpcds import tpcds_schema
from ..catalog.tpch import tpch_generator_spec, tpch_schema
from ..core.bouquet import identify_bouquet
from ..datagen.database import Database
from ..drift import bouquets_equal, delta_refresh, perturb_statistics, statistics_delta
from ..ess.diagram import PlanDiagram
from ..ess.space import SelectivitySpace
from ..obs.tracer import MemorySink, Tracer
from ..optimizer.cost_model import POSTGRES_COST_MODEL
from ..optimizer.optimizer import Optimizer
from ..query.workload import full_workload

__all__ = ["DriftBenchReport", "run_drift_bench", "main"]


@dataclass
class DriftBenchReport:
    """One delta-vs-reference refresh comparison on a single query grid."""

    query: str
    grid: int
    dimensionality: int
    perturbation: str
    moved_pids: List[str]
    strategy: str
    delta_seconds: float
    reference_seconds: float
    delta_planned: int
    reference_planned: int
    suspect_locations: int
    changed_plan_locations: int
    mismatches: List[str]
    max_replan_fraction: float
    min_savings: float
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def replan_fraction(self) -> float:
        return self.delta_planned / max(1, self.grid)

    @property
    def savings(self) -> float:
        if self.delta_planned <= 0:
            return float("inf")
        return self.reference_planned / self.delta_planned

    @property
    def local_enough(self) -> bool:
        return self.replan_fraction <= self.max_replan_fraction

    @property
    def cheap_enough(self) -> bool:
        return self.savings >= self.min_savings

    @property
    def exact(self) -> bool:
        return not self.mismatches

    @property
    def ok(self) -> bool:
        return self.local_enough and self.cheap_enough and self.exact

    def to_dict(self) -> Dict[str, object]:
        return {
            "query": self.query,
            "grid": self.grid,
            "dimensionality": self.dimensionality,
            "perturbation": self.perturbation,
            "moved_pids": self.moved_pids,
            "strategy": self.strategy,
            "delta_seconds": self.delta_seconds,
            "reference_seconds": self.reference_seconds,
            "delta_planned": self.delta_planned,
            "reference_planned": self.reference_planned,
            "replan_fraction": self.replan_fraction,
            "max_replan_fraction": self.max_replan_fraction,
            "savings": self.savings,
            "min_savings": self.min_savings,
            "suspect_locations": self.suspect_locations,
            "changed_plan_locations": self.changed_plan_locations,
            "mismatches": self.mismatches,
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"drift bench: {self.query} "
            f"({self.grid} locations, {self.dimensionality}D), "
            f"perturbed {self.perturbation}",
            f"  moved predicates  : {', '.join(self.moved_pids) or 'none'}",
            f"  delta refresh     : {self.delta_seconds:8.3f} s, planned "
            f"{self.delta_planned}/{self.grid} "
            f"({self.replan_fraction:.1%}, need <= {self.max_replan_fraction:.0%})"
            + ("" if self.local_enough else "  FAIL"),
            f"  full rebuild      : {self.reference_seconds:8.3f} s, planned "
            f"{self.reference_planned}/{self.grid}",
            f"  savings           : {self.savings:.1f}x fewer locations planned "
            f"(need >= {self.min_savings:g}x)"
            + ("" if self.cheap_enough else "  FAIL"),
            f"  frontier diff     : {self.suspect_locations} suspect, "
            f"{self.changed_plan_locations} plan changes",
            f"  equivalence       : {len(self.mismatches)} mismatches (need 0)"
            + ("" if self.exact else "  FAIL"),
        ]
        for mismatch in self.mismatches[:5]:
            lines.append(f"    - {mismatch}")
        lines.append(f"  verdict           : {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def run_drift_bench(
    query: str = "3D_H_Q5",
    resolution: int = 12,
    scale: float = 0.002,
    stats_sample: int = 1000,
    seed: int = 7,
    ratio: float = 2.0,
    lambda_: float = 0.2,
    perturb_table: str = "supplier",
    perturb_column: Optional[str] = "s_suppkey",
    perturb_scale: float = 1.0,
    perturb_distinct_scale: Optional[float] = 1.4,
    max_replan_fraction: float = 0.2,
    min_savings: float = 5.0,
) -> DriftBenchReport:
    """Compile the lab query, drift one column's statistics, refresh twice."""
    schema = tpch_schema(scale)
    database = Database.generate(schema, tpch_generator_spec(scale), seed=seed)
    statistics = database.build_statistics(sample_size=stats_sample, seed=seed)
    workload = full_workload(schema, tpcds_schema(scale))[query]
    dims = workload.dimensions()
    tracer = Tracer(MemorySink())

    # ETL deployment: statistics only, no database — the base assignment
    # is the optimizer's *estimate*, so statistics drift moves it.
    opt_old = Optimizer(schema, statistics, POSTGRES_COST_MODEL)
    base_old = opt_old.estimated_assignment(workload.query)
    space_old = SelectivitySpace(workload.query, dims, resolution, base_old)
    diagram_old = PlanDiagram.exhaustive(opt_old, space_old)
    old_bouquet = identify_bouquet(diagram_old, lambda_=lambda_, ratio=ratio)

    drifted = perturb_statistics(
        statistics,
        perturb_table,
        perturb_column,
        scale=perturb_scale,
        distinct_scale=perturb_distinct_scale,
    )
    delta = statistics_delta(statistics, drifted)
    moved = delta.moved_pids(workload.query)

    opt_delta = Optimizer(schema, drifted, POSTGRES_COST_MODEL, tracer=tracer)
    base_new = opt_delta.estimated_assignment(workload.query)
    space_new = SelectivitySpace(workload.query, dims, resolution, base_new)
    t0 = time.perf_counter()
    result = delta_refresh(
        old_bouquet, opt_delta, space_new, lambda_=lambda_, ratio=ratio
    )
    t1 = time.perf_counter()

    # Reference: from-scratch exhaustive rebuild over the drifted stats.
    opt_ref = Optimizer(schema, drifted, POSTGRES_COST_MODEL)
    space_ref = SelectivitySpace(workload.query, dims, resolution, base_new)
    t2 = time.perf_counter()
    diagram_ref = PlanDiagram.exhaustive(opt_ref, space_ref)
    reference = identify_bouquet(diagram_ref, lambda_=lambda_, ratio=ratio)
    t3 = time.perf_counter()

    mismatches = bouquets_equal(result.bouquet, reference)
    column = f".{perturb_column}" if perturb_column else ""
    knobs = f"values x{perturb_scale:g}"
    if perturb_distinct_scale is not None:
        knobs += f", ndv x{perturb_distinct_scale:g}"
    return DriftBenchReport(
        query=query,
        grid=space_new.size,
        dimensionality=space_new.dimensionality,
        perturbation=f"{perturb_table}{column} ({knobs})",
        moved_pids=moved,
        strategy=result.strategy,
        delta_seconds=t1 - t0,
        reference_seconds=t3 - t2,
        delta_planned=result.planned_locations,
        reference_planned=space_ref.size,
        suspect_locations=result.suspect_locations,
        changed_plan_locations=result.changed_plan_locations,
        mismatches=mismatches,
        max_replan_fraction=max_replan_fraction,
        min_savings=min_savings,
        counters=dict(tracer.counters),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.drift",
        description="benchmark the delta refresh engine against a "
        "from-scratch bouquet rebuild under localized statistics drift",
    )
    parser.add_argument("--query", default="3D_H_Q5")
    parser.add_argument("--resolution", type=int, default=12)
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--stats-sample", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ratio", type=float, default=2.0)
    parser.add_argument("--lambda", dest="lambda_", type=float, default=0.2)
    parser.add_argument("--perturb-table", default="supplier")
    parser.add_argument("--perturb-column", default="s_suppkey")
    parser.add_argument("--perturb-scale", type=float, default=1.0)
    parser.add_argument(
        "--perturb-distinct-scale", type=float, default=1.4,
        help="scale the perturbed column's distinct counts (0 disables)",
    )
    parser.add_argument("--max-replan-fraction", type=float, default=0.2)
    parser.add_argument("--min-savings", type=float, default=5.0)
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report as JSON (e.g. BENCH_drift.json)",
    )
    args = parser.parse_args(argv)
    report = run_drift_bench(
        query=args.query,
        resolution=args.resolution,
        scale=args.scale,
        stats_sample=args.stats_sample,
        seed=args.seed,
        ratio=args.ratio,
        lambda_=args.lambda_,
        perturb_table=args.perturb_table,
        perturb_column=args.perturb_column or None,
        perturb_scale=args.perturb_scale,
        perturb_distinct_scale=args.perturb_distinct_scale or None,
        max_replan_fraction=args.max_replan_fraction,
        min_savings=args.min_savings,
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
