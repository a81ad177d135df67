"""Plan diagrams: plan choice and optimal cost over the ESS grid.

A *plan diagram* (Harish et al., VLDB 2007) colours every ESS location
with the optimizer's plan choice there; the associated cost field is the
POSP infimum curve/surface (PIC).  Diagrams can be produced exhaustively
(one optimizer call per location) or approximately from a candidate plan
set (cost every candidate everywhere, take the argmin) — the latter is
how high-dimensional spaces stay tractable.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..exceptions import EssError
from ..optimizer.optimizer import Optimizer, PlanRegistry
from ..optimizer.plans import cost_plan
from .space import Location, SelectivitySpace


class PlanCostCache:
    """Lazy per-plan cost fields over an ESS grid.

    ``cost(plan_id, location)`` and ``cost_array(plan_id)`` evaluate the
    plan's (abstract) cost function at grid locations, memoizing whole
    arrays per plan — the workhorse behind every ESS-wide metric sweep.

    The cache is thread-safe (the serving layer shares bouquets across
    threads) and optionally
    bounded: with ``max_plans`` set, the least-recently-used arrays are
    evicted once the limit is exceeded.  Stale entries can be dropped
    explicitly with :meth:`invalidate`.
    """

    def __init__(
        self,
        space: SelectivitySpace,
        optimizer: Optimizer,
        registry: PlanRegistry,
        max_plans: Optional[int] = None,
    ):
        if max_plans is not None and max_plans < 1:
            raise EssError("PlanCostCache max_plans must be >= 1")
        self.space = space
        self.optimizer = optimizer
        self.registry = registry
        self.max_plans = max_plans
        self._arrays: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._arrays)

    def __getstate__(self) -> dict:
        # The lock is rebuilt, not pickled (mirroring PlanRegistry) —
        # this is what lets a bouquet payload ship through repro.par's
        # worker queues under any start method.
        with self._lock:
            state = self.__dict__.copy()
            state["_arrays"] = OrderedDict(self._arrays)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def invalidate(self, plan_id: Optional[int] = None) -> None:
        """Drop the cached array for one plan (or all of them)."""
        with self._lock:
            if plan_id is None:
                self._arrays.clear()
            else:
                self._arrays.pop(plan_id, None)

    def cost_array(self, plan_id: int) -> np.ndarray:
        """Full grid of costs for one plan (shape = space.shape).

        Evaluated in a single vectorized pass: the assignment maps each
        error pid to a broadcast grid of its axis values, and the plan's
        (purely arithmetic, monotone) cost formulas evaluate elementwise
        over the whole ESS at once.
        """
        with self._lock:
            array = self._arrays.get(plan_id)
            if array is not None:
                self._arrays.move_to_end(plan_id)
                return array
        # Built outside the lock: cost_plan is pure and two racing
        # builders produce identical arrays, so losing the race only
        # wastes one build.
        tracer = self.optimizer.tracer
        if tracer.enabled:
            tracer.count("ess.cost_array_builds")
        plan = self.registry.plan(plan_id)
        space = self.space
        assignment: Dict[str, object] = dict(space.base_assignment)
        meshes = np.meshgrid(*space.grids, indexing="ij")
        for dim, mesh in zip(space.dimensions, meshes):
            assignment[dim.pid] = mesh
        est = cost_plan(
            plan, self.optimizer.schema, self.optimizer.cost_model, assignment
        )
        array = np.broadcast_to(np.asarray(est.cost, dtype=float), space.shape).copy()
        with self._lock:
            existing = self._arrays.get(plan_id)
            if existing is not None:
                self._arrays.move_to_end(plan_id)
                return existing
            self._arrays[plan_id] = array
            if self.max_plans is not None:
                while len(self._arrays) > self.max_plans:
                    self._arrays.popitem(last=False)
        return array

    def cost(self, plan_id: int, location: Location) -> float:
        return float(self.cost_array(plan_id)[location])

    def cost_at_values(self, plan_id: int, values: Sequence[float]) -> float:
        """Cost at an arbitrary continuous point (used by q_run tracking)."""
        plan = self.registry.plan(plan_id)
        assignment = self.space.assignment_for(values)
        est = cost_plan(
            plan, self.optimizer.schema, self.optimizer.cost_model, assignment
        )
        return est.cost


class PlanDiagram:
    """Plan choice + optimal cost at every ESS grid location."""

    def __init__(
        self,
        space: SelectivitySpace,
        plan_ids: np.ndarray,
        costs: np.ndarray,
        registry: PlanRegistry,
        cache: Optional[PlanCostCache] = None,
    ):
        if plan_ids.shape != space.shape or costs.shape != space.shape:
            raise EssError("diagram arrays do not match the ESS grid shape")
        self.space = space
        self.plan_ids = plan_ids
        self.costs = costs
        self.registry = registry
        self.cache = cache

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def exhaustive(
        cls,
        optimizer: Optimizer,
        space: SelectivitySpace,
        workers: Optional[int] = None,
        engine: str = "batch",
    ) -> "PlanDiagram":
        """Optimal plan at every grid location.

        ``engine="batch"`` (default) runs the DPsize enumeration once for
        the whole grid as a slab (:mod:`repro.batchopt`); the reference
        engine makes one scalar optimizer call per location.  Both visit
        locations in row-major order, so plan ids, costs, and the
        resulting diagram are identical — the engines differ only in
        compile latency.

        POSP generation is "embarrassingly parallel" (§4.2): with
        ``workers > 1`` the grid is partitioned across processes, each
        optimizing its share independently (scalar or slab-at-a-time per
        the engine); the parent merges the plans into one registry.
        Results are identical to the serial run.
        """
        from .posp import resolve_engine

        engine = resolve_engine(optimizer, engine)
        registry = optimizer.registry(space.query)
        plan_ids = np.empty(space.shape, dtype=np.int64)
        costs = np.empty(space.shape, dtype=float)
        with optimizer.tracer.span(
            "ess.exhaustive_diagram",
            locations=space.size,
            workers=workers or 1,
            engine=engine,
        ) as span:
            if workers and workers > 1:
                if engine == "batch":
                    from ..batchopt.shard import parallel_optimize_batch

                    results = parallel_optimize_batch(
                        optimizer, space, list(space.locations()), workers
                    )
                    for location, plan, cost, _rows in results:
                        plan_id, _ = registry.register(plan)
                        plan_ids[location] = plan_id
                        costs[location] = cost
                else:
                    for location, plan, cost in _parallel_optimize(
                        optimizer, space, workers
                    ):
                        plan_id, _ = registry.register(plan)
                        plan_ids[location] = plan_id
                        costs[location] = cost
            elif engine == "batch":
                locations = list(space.locations())
                assignments = [
                    space.assignment_at(location) for location in locations
                ]
                for location, result in zip(
                    locations, optimizer.optimize_batch(space.query, assignments)
                ):
                    plan_ids[location] = result.plan_id
                    costs[location] = result.cost
            else:
                for location in space.locations():
                    assignment = space.assignment_at(location)
                    result = optimizer.optimize(space.query, assignment=assignment)
                    plan_ids[location] = result.plan_id
                    costs[location] = result.cost
            span.set(posp=len(np.unique(plan_ids)))
        cache = PlanCostCache(space, optimizer, registry)
        return cls(space, plan_ids, costs, registry, cache)

    @classmethod
    def from_candidates(
        cls,
        optimizer: Optimizer,
        space: SelectivitySpace,
        seed_locations: Optional[Iterable[Location]] = None,
        engine: str = "batch",
    ) -> "PlanDiagram":
        """Approximate diagram: optimize at seed locations to harvest
        candidate plans, then cost every candidate everywhere and argmin.

        With seeds on a coarse subgrid this is a standard Picasso-style
        approximation; it converges to the exhaustive diagram as seeds
        densify, and is exact wherever a seed sits.  With the default
        batch engine all seeds are optimized by one slab enumeration.
        """
        from .posp import resolve_engine

        engine = resolve_engine(optimizer, engine)
        registry = optimizer.registry(space.query)
        if seed_locations is None:
            seed_locations = coarse_subgrid(space, per_dim=4)
        candidate_ids = set()
        with optimizer.tracer.span(
            "ess.candidate_diagram", locations=space.size, engine=engine
        ) as span:
            seeds = 0
            if engine == "batch":
                locations = list(seed_locations)
                assignments = [
                    space.assignment_at(location) for location in locations
                ]
                for result in optimizer.optimize_batch(space.query, assignments):
                    candidate_ids.add(result.plan_id)
                seeds = len(locations)
            else:
                for location in seed_locations:
                    assignment = space.assignment_at(location)
                    result = optimizer.optimize(space.query, assignment=assignment)
                    candidate_ids.add(result.plan_id)
                    seeds += 1
            span.set(seeds=seeds, candidates=len(candidate_ids))
        cache = PlanCostCache(space, optimizer, registry)
        ordered = sorted(candidate_ids)
        stacked = np.stack([cache.cost_array(pid) for pid in ordered])
        argmin = np.argmin(stacked, axis=0)
        costs = np.min(stacked, axis=0)
        id_lookup = np.array(ordered, dtype=np.int64)
        plan_ids = id_lookup[argmin]
        return cls(space, plan_ids, costs, registry, cache)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def posp_plan_ids(self) -> List[int]:
        """Distinct plan ids appearing in the diagram (the POSP set)."""
        return sorted(int(p) for p in np.unique(self.plan_ids))

    def plan_at(self, location: Location) -> int:
        return int(self.plan_ids[location])

    def cost_at(self, location: Location) -> float:
        return float(self.costs[location])

    def occupancy(self) -> Dict[int, int]:
        """Number of grid locations owned by each plan."""
        ids, counts = np.unique(self.plan_ids, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    @property
    def cmin(self) -> float:
        return float(self.costs[self.space.origin])

    @property
    def cmax(self) -> float:
        return float(self.costs[self.space.corner])

    def check_monotone(self) -> bool:
        """Verify the PIC is non-decreasing along every axis (PCM check)."""
        for axis in range(self.space.dimensionality):
            diffs = np.diff(self.costs, axis=axis)
            if np.any(diffs < -1e-6 * np.abs(self.costs.take(range(diffs.shape[axis]), axis=axis))):
                return False
        return True


# ---------------------------------------------------------------------------
# Parallel POSP generation (§4.2)
# ---------------------------------------------------------------------------


def _optimize_chunk(ctx, payload, locations: List[Location]):
    # repro.par task: payload = (optimizer, space).  Workers never trace —
    # the tracer embedded in the payload degraded to the null tracer
    # while pickling (Tracer.__reduce__).
    optimizer, space = payload
    results = []
    for location in locations:
        assignment = space.assignment_at(location)
        result = optimizer.optimize(space.query, assignment=assignment)
        results.append((location, result.plan, result.cost))
    return results


def _parallel_optimize(optimizer: Optimizer, space: SelectivitySpace, workers: int):
    """Optimize every grid location across ``workers`` processes.

    Runs on the persistent :mod:`repro.par` pool: the start-method
    resolution (fork-preferred, verified-spawn fallback) and the payload
    pickle hardening live there, the ``(optimizer, space)`` payload is
    shipped to each worker at most once per content digest, and chunk
    results are reassembled in submission order so plans register in
    exactly the serial row-major order — plan ids are identical at any
    worker count.
    """
    from ..par import ParError, get_pool

    locations = list(space.locations())
    chunk_size = max(1, len(locations) // (workers * 4))
    chunks = [
        locations[i : i + chunk_size] for i in range(0, len(locations), chunk_size)
    ]
    tracer = optimizer.tracer
    if tracer.enabled:
        tracer.event(
            "ess.parallel_fanout",
            workers=workers,
            chunks=len(chunks),
            locations=len(locations),
        )
    pool = get_pool(workers, tracer=tracer)
    try:
        results = pool.run(
            _optimize_chunk, (optimizer, space), chunks, tracer=tracer
        )
    except ParError as exc:
        raise EssError(f"parallel POSP generation failed: {exc}") from exc
    for chunk_result in results:
        yield from chunk_result


def coarse_subgrid(space: SelectivitySpace, per_dim: int = 4) -> List[Location]:
    """Evenly spaced seed locations, always including both diagonal corners."""
    axes = []
    for res in space.shape:
        count = min(per_dim, res)
        idx = np.unique(np.linspace(0, res - 1, count).round().astype(int))
        axes.append(list(idx))
    return list(itertools.product(*axes))
