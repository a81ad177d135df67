"""Compile-kernel bench: slab-batched DP enumeration vs the scalar loop.

Builds a 3D lab query's ESS and generates its exhaustive plan diagram
twice — once with the paper's literal one-optimization-per-location loop
(:func:`reference_diagram`, kept here as the oracle) and once with the
batch kernel (:mod:`repro.batchopt`) behind
:meth:`~repro.ess.diagram.PlanDiagram.exhaustive`, which runs the DPsize
enumeration once per slab of locations with a numpy cost axis — and
checks two acceptance criteria:

* **speed** — the batch compile must beat the reference compile by at
  least ``--min-speedup`` (default 4x) on the full grid;
* **exactness** — the two diagrams must agree at *every* location, both
  the chosen plan (compared structurally, by canonical signature) and
  its cost (bitwise: both paths execute the same IEEE-754 operations).

The batch diagram's cost cache is seeded with the DP's own frontier
cost fields; every POSP plan must have one, bit-identical to
``cost_plan`` over the ESS meshgrid (``field_mismatches``).

The contour-focused band exploration (§4.2) is raced the same way:
:func:`~repro.ess.posp.contour_focused_posp` runs once as is and once
over :class:`ScalarSlabOptimizer`, whose ``optimize_batch`` is the same
scalar loop; both must produce byte-identical
``ContourBandResult.optimized`` maps.

``make bench-compile`` runs this and writes ``BENCH_compile.json``; the
process exits non-zero when any criterion fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..batchopt.kernel import slab_length
from ..catalog.tpcds import tpcds_schema
from ..catalog.tpch import tpch_generator_spec, tpch_schema
from ..core.contours import contour_costs
from ..datagen.database import Database
from ..ess.diagram import PlanCostCache, PlanDiagram
from ..ess.posp import contour_focused_posp
from ..ess.space import SelectivitySpace
from ..obs.tracer import MemorySink, Tracer
from ..optimizer.cost_model import POSTGRES_COST_MODEL
from ..optimizer.optimizer import Optimizer, SlabPlans
from ..optimizer.selectivity import actual_selectivities
from ..query.query import Query
from ..query.workload import full_workload

__all__ = [
    "CompileBenchReport",
    "ScalarSlabOptimizer",
    "main",
    "reference_diagram",
    "run_compile_bench",
]


def reference_diagram(optimizer: Optimizer, space: SelectivitySpace) -> PlanDiagram:
    """The exhaustive plan diagram by one scalar optimize per location.

    The paper's literal §4.2 procedure, in the row-major order
    :meth:`PlanDiagram.exhaustive` visits, so plan ids register in the
    same order — the oracle the batch kernel is raced against.
    """
    plan_ids = np.empty(space.shape, dtype=np.int64)
    costs = np.empty(space.shape, dtype=float)
    for location in space.locations():
        result = optimizer.optimize(
            space.query, assignment=space.assignment_at(location)
        )
        plan_ids[location] = result.plan_id
        costs[location] = result.cost
    registry = optimizer.registry(space.query)
    return PlanDiagram(
        space, plan_ids, costs, registry, PlanCostCache(space, optimizer, registry)
    )


class ScalarSlabOptimizer:
    """An optimizer stand-in whose ``optimize_batch`` is a scalar loop.

    Hands :func:`~repro.ess.posp.contour_focused_posp` one
    :meth:`Optimizer.optimize` call per slab location, in slab order, so
    the unchanged band exploration runs the paper's literal procedure.
    It hands back no cost fields.  Everything else delegates to the
    wrapped optimizer.
    """

    def __init__(self, optimizer: Optimizer):
        self._optimizer = optimizer

    def __getattr__(self, name: str):
        return getattr(self._optimizer, name)

    def optimize_batch(
        self, query: Query, columns: Mapping[str, object]
    ) -> SlabPlans:
        results = [
            self._optimizer.optimize(
                query,
                assignment={
                    pid: float(column[index] if np.ndim(column) else column)
                    for pid, column in columns.items()
                },
            )
            for index in range(slab_length(columns))
        ]
        return SlabPlans(
            plan_ids=np.array([r.plan_id for r in results], dtype=np.int64),
            cost=np.array([r.cost for r in results], dtype=float),
            rows=np.array([r.rows for r in results], dtype=float),
            fields={},
        )


@dataclass
class CompileBenchReport:
    """One batch-vs-reference compile comparison on a single query grid."""

    query: str
    grid: int
    dimensionality: int
    reference_seconds: float
    batch_seconds: float
    plan_mismatches: int
    cost_mismatches: int
    field_mismatches: int
    band_reference_seconds: float
    band_batch_seconds: float
    band_locations: int
    band_mismatches: int
    min_speedup: float
    min_band_speedup: float = 0.0
    slabs: int = 0
    batched_locations: int = 0
    frontier_plans: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.batch_seconds <= 0:
            return float("inf")
        return self.reference_seconds / self.batch_seconds

    @property
    def band_speedup(self) -> float:
        if self.band_batch_seconds <= 0:
            return float("inf")
        return self.band_reference_seconds / self.band_batch_seconds

    @property
    def fast_enough(self) -> bool:
        return self.speedup >= self.min_speedup

    @property
    def band_fast_enough(self) -> bool:
        return self.band_speedup >= self.min_band_speedup

    @property
    def exact(self) -> bool:
        return (
            self.plan_mismatches == 0
            and self.cost_mismatches == 0
            and self.field_mismatches == 0
            and self.band_mismatches == 0
        )

    @property
    def ok(self) -> bool:
        return self.fast_enough and self.band_fast_enough and self.exact

    def to_dict(self) -> Dict[str, object]:
        return {
            "query": self.query,
            "grid": self.grid,
            "dimensionality": self.dimensionality,
            "reference_seconds": self.reference_seconds,
            "batch_seconds": self.batch_seconds,
            "speedup": self.speedup,
            "min_speedup": self.min_speedup,
            "plan_mismatches": self.plan_mismatches,
            "cost_mismatches": self.cost_mismatches,
            "field_mismatches": self.field_mismatches,
            "band_reference_seconds": self.band_reference_seconds,
            "band_batch_seconds": self.band_batch_seconds,
            "band_speedup": self.band_speedup,
            "min_band_speedup": self.min_band_speedup,
            "band_locations": self.band_locations,
            "band_mismatches": self.band_mismatches,
            "slabs": self.slabs,
            "batched_locations": self.batched_locations,
            "frontier_plans": self.frontier_plans,
            "ok": self.ok,
        }

    def describe(self) -> str:
        lines = [
            f"compile bench: {self.query} "
            f"({self.grid} locations, {self.dimensionality}D)",
            f"  reference compile : {self.reference_seconds:8.3f} s",
            f"  batch compile     : {self.batch_seconds:8.3f} s "
            f"({self.speedup:.1f}x, need >= {self.min_speedup:g}x)"
            + ("" if self.fast_enough else "  FAIL"),
            f"  diagram equality  : {self.plan_mismatches} plan / "
            f"{self.cost_mismatches} cost mismatches (need 0)"
            + ("" if self.plan_mismatches == self.cost_mismatches == 0 else "  FAIL"),
            f"  DP cost fields    : {self.field_mismatches} POSP plans unseeded "
            f"or unequal to cost_plan (need 0)"
            + ("" if self.field_mismatches == 0 else "  FAIL"),
            f"  contour band      : {self.band_reference_seconds:.3f} s ref, "
            f"{self.band_batch_seconds:.3f} s batch ({self.band_speedup:.1f}x, "
            f"need >= {self.min_band_speedup:g}x) "
            f"over {self.band_locations} band locations, "
            f"{self.band_mismatches} mismatches"
            + ("" if self.band_mismatches == 0 and self.band_fast_enough else "  FAIL"),
        ]
        if self.slabs:
            lines.append(
                f"  batch telemetry   : {self.slabs} slabs, "
                f"{self.batched_locations} batched locations, "
                f"{self.frontier_plans:g} frontier plans"
            )
        lines.append(f"  verdict           : {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _signature_map(diagram: PlanDiagram) -> Dict[int, object]:
    """plan_id -> canonical structural signature, for one registry."""
    return {
        plan_id: diagram.registry.plan(plan_id).canonical_signature()
        for plan_id in np.unique(diagram.plan_ids)
    }


def _diagram_mismatches(
    reference: PlanDiagram, batch: PlanDiagram
) -> Tuple[int, int]:
    """(plan, cost) disagreement counts between the two diagrams.

    Plans are compared structurally: the two compiles own independent
    registries, so ids are only comparable through canonical signatures.
    Costs are compared bitwise — both paths execute the same float64
    formula stream, so any difference at all is a divergence.
    """
    ref_sigs = _signature_map(reference)
    batch_sigs = _signature_map(batch)
    plan_bad = 0
    for ref_id, batch_id in zip(reference.plan_ids.ravel(), batch.plan_ids.ravel()):
        if ref_sigs[int(ref_id)] != batch_sigs[int(batch_id)]:
            plan_bad += 1
    cost_bad = int(np.count_nonzero(reference.costs != batch.costs))
    return plan_bad, cost_bad


def _field_mismatches(diagram: PlanDiagram) -> int:
    """POSP plans whose DP-seeded cost field is missing or differs
    (bitwise) from ``cost_plan`` over the ESS meshgrid.

    Call before anything else reads the diagram's cache: every field it
    holds then came from the DP.
    """
    cache = diagram.cache
    posp = diagram.posp_plan_ids
    missing = len(posp) - len(cache)
    reference = PlanCostCache(diagram.space, cache.optimizer, diagram.registry)
    unequal = sum(
        not np.array_equal(cache.cost_array(plan_id), reference.cost_array(plan_id))
        for plan_id in posp
    )
    return missing + unequal


def run_compile_bench(
    query: str = "3D_H_Q5",
    resolution: int = 12,
    scale: float = 0.002,
    stats_sample: int = 1000,
    seed: int = 7,
    ratio: float = 2.0,
    min_speedup: float = 4.0,
    min_band_speedup: float = 4.0,
) -> CompileBenchReport:
    """Build the lab query's ESS and race the batch kernel against the
    scalar loop."""
    schema = tpch_schema(scale)
    database = Database.generate(schema, tpch_generator_spec(scale), seed=seed)
    statistics = database.build_statistics(sample_size=stats_sample, seed=seed)
    workload = full_workload(schema, tpcds_schema(scale))[query]
    dims = workload.dimensions()
    base = actual_selectivities(workload.query, database)
    space = SelectivitySpace(workload.query, dims, resolution, base)

    tracer = Tracer(MemorySink())

    def fresh_optimizer(traced: bool = False) -> Optimizer:
        return Optimizer(
            schema,
            statistics,
            POSTGRES_COST_MODEL,
            tracer=tracer if traced else None,
        )

    opt_ref = fresh_optimizer()
    t0 = time.perf_counter()
    diagram_ref = reference_diagram(opt_ref, space)
    t1 = time.perf_counter()

    opt_batch = fresh_optimizer(traced=True)
    t2 = time.perf_counter()
    diagram_batch = PlanDiagram.exhaustive(opt_batch, space)
    t3 = time.perf_counter()

    field_bad = _field_mismatches(diagram_batch)
    plan_bad, cost_bad = _diagram_mismatches(diagram_ref, diagram_batch)

    # Contour-band race: the §4.2 exploration with the IC cost ladder the
    # reference diagram implies.  Byte-identical ``optimized`` maps are
    # required — same locations, same costs, structurally same plans.
    costs = contour_costs(diagram_ref.cmin, diagram_ref.cmax, ratio=ratio)
    band_opt_ref = fresh_optimizer()
    t4 = time.perf_counter()
    band_ref = contour_focused_posp(
        ScalarSlabOptimizer(band_opt_ref), space, costs
    )
    t5 = time.perf_counter()
    band_opt_batch = fresh_optimizer()
    t6 = time.perf_counter()
    band_batch = contour_focused_posp(band_opt_batch, space, costs)
    t7 = time.perf_counter()

    band_bad = len(set(band_ref.optimized) ^ set(band_batch.optimized))
    ref_registry = band_opt_ref.registry(space.query)
    batch_registry = band_opt_batch.registry(space.query)
    for location in set(band_ref.optimized) & set(band_batch.optimized):
        pid_ref, cost_ref = band_ref.optimized[location]
        pid_batch, cost_batch = band_batch.optimized[location]
        if cost_ref != cost_batch or (
            ref_registry.plan(pid_ref).canonical_signature()
            != batch_registry.plan(pid_batch).canonical_signature()
        ):
            band_bad += 1

    counters = dict(tracer.counters)
    return CompileBenchReport(
        query=query,
        grid=space.size,
        dimensionality=space.dimensionality,
        reference_seconds=t1 - t0,
        batch_seconds=t3 - t2,
        plan_mismatches=plan_bad,
        cost_mismatches=cost_bad,
        field_mismatches=field_bad,
        band_reference_seconds=t5 - t4,
        band_batch_seconds=t7 - t6,
        band_locations=len(band_ref.optimized),
        band_mismatches=band_bad,
        min_speedup=min_speedup,
        min_band_speedup=min_band_speedup,
        slabs=int(counters.get("batchopt.slabs", 0)),
        batched_locations=int(counters.get("optimizer.batched_locations", 0)),
        frontier_plans=counters.get("batchopt.frontier_plans", 0.0),
        counters=counters,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.compile",
        description="benchmark the slab-batched compile kernel against the "
        "scalar per-location optimizer",
    )
    parser.add_argument("--query", default="3D_H_Q5")
    parser.add_argument("--resolution", type=int, default=12)
    parser.add_argument("--scale", type=float, default=0.002)
    parser.add_argument("--stats-sample", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ratio", type=float, default=2.0)
    parser.add_argument("--min-speedup", type=float, default=4.0)
    parser.add_argument(
        "--min-band-speedup", type=float, default=None,
        help="contour-band floor (defaults to --min-speedup)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the report as JSON (e.g. BENCH_compile.json)",
    )
    args = parser.parse_args(argv)
    report = run_compile_bench(
        query=args.query,
        resolution=args.resolution,
        scale=args.scale,
        stats_sample=args.stats_sample,
        seed=args.seed,
        ratio=args.ratio,
        min_speedup=args.min_speedup,
        min_band_speedup=(
            args.min_band_speedup
            if args.min_band_speedup is not None
            else args.min_speedup
        ),
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
