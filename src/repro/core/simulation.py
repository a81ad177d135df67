"""ESS-wide simulation of bouquet executions.

The robustness metrics (MSO/ASO/MaxHarm) need the bouquet's total
execution cost at *every* possible actual location ``qa``.  For the basic
algorithm this cost field is computed fully vectorized; the optimized
algorithm's field comes from the vectorized cohort sweep engine in
:mod:`repro.sweep`, which the benches and tests check against
:func:`simulate_at` looped over the grid.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from ..ess.space import Location
from ..exceptions import BouquetError
from .bouquet import PlanBouquet
from .runtime import (
    AbstractExecutionService,
    BouquetRunResult,
    BouquetRunner,
)


def simulate_at(
    bouquet: PlanBouquet,
    qa_location: Location,
    mode: str = "optimized",
    crossing: Optional[object] = None,
    model_error_delta: float = 0.0,
) -> BouquetRunResult:
    """Simulate one bouquet execution for a query actually located at
    ``qa_location`` (a grid index), in the cost-model world.

    ``crossing`` picks the contour-crossing scheduler (see
    :mod:`repro.sched`); ``None`` means sequential.
    ``model_error_delta`` inflates every contour budget by (1+δ), as in
    :class:`~repro.core.runtime.BouquetRunner`."""
    qa_values = bouquet.space.selectivities_at(qa_location)
    service = AbstractExecutionService(bouquet, qa_values)
    runner = BouquetRunner(
        bouquet,
        service,
        mode=mode,
        crossing=crossing,
        model_error_delta=model_error_delta,
    )
    result = runner.run()
    if not result.completed:
        raise BouquetError(
            f"bouquet failed to complete at {qa_location} — contour coverage bug"
        )
    return result


def basic_cost_field(bouquet: PlanBouquet) -> np.ndarray:
    """Total basic-bouquet cost at every grid location, vectorized.

    Mirrors Figure 7 exactly: per contour, resident plans run in plan-id
    order under the (λ-inflated) budget; a failed attempt costs the full
    budget, a completing one costs its true cost.
    """
    cache = bouquet.cost_cache
    shape = bouquet.space.shape
    total = np.zeros(shape, dtype=float)
    done = np.zeros(shape, dtype=bool)
    final_cost = np.zeros(shape, dtype=float)
    for contour, budget in zip(bouquet.contours, bouquet.budgets):
        for plan_id in contour.plan_ids:
            if done.all():
                break
            costs = cache.cost_array(plan_id)
            completes = (~done) & (costs <= budget)
            total[completes] += costs[completes]
            final_cost[completes] = costs[completes]
            running = ~done & ~completes
            total[running] += budget
            done |= completes
        if done.all():
            break
    if not done.all():
        raise BouquetError("basic bouquet did not terminate everywhere")
    return total


def optimized_cost_field(
    bouquet: PlanBouquet,
    locations: Optional[Iterable[Location]] = None,
    crossing: Optional[str] = None,
) -> Dict[Location, float]:
    """Optimized-bouquet total cost per location, via the cohort sweep
    engine (:mod:`repro.sweep`), which memoizes results on the bouquet.

    ``locations`` defaults to the whole grid; pass a sample for very
    large spaces.  ``crossing`` picks the contour-crossing scheduler
    (see :mod:`repro.sched`); ``None`` means sequential.
    """
    # Imported lazily: repro.sweep runs this module's per-location
    # driver for non-sequential crossings.
    from ..sweep import SweepEngine

    if locations is None:
        locations = bouquet.space.locations()
    locations = list(locations)
    totals = SweepEngine(bouquet, crossing=crossing).totals(locations)
    return {loc: float(total) for loc, total in zip(locations, totals)}


def suboptimality_field(cost_field: np.ndarray, pic: np.ndarray) -> np.ndarray:
    """SubOpt(*, qa) = bouquet cost / optimal cost, elementwise."""
    return cost_field / pic


def sample_locations(
    space, count: int, seed: int = 0
) -> List[Location]:
    """Deterministic uniform sample of grid locations (without replacement
    when the grid is small enough)."""
    rng = np.random.default_rng(seed)
    size = space.size
    if count >= size:
        return list(space.locations())
    flat = rng.choice(size, size=count, replace=False)
    return [tuple(int(i) for i in np.unravel_index(f, space.shape)) for f in flat]
