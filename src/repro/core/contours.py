"""Isocost (IC) contour machinery (§3.1, §3.2).

Contour *costs* form a geometric progression with ratio ``r`` (r=2 is
optimal, Theorem 1) satisfying the paper's boundary conditions
``a/r < Cmin <= IC_1`` and ``IC_m = Cmax``.  Contour *locations* on the
discrete ESS grid are the maximal elements (under componentwise
dominance) of the region ``{q : PIC(q) <= IC_k}``: because the PIC is
monotone, every location inside the region is dominated by some contour
location, so executing the contour's plans with budget IC_k is guaranteed
to detect whether the query lies within the contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..exceptions import BouquetError
from ..ess.diagram import PlanDiagram
from ..ess.space import Location
from ..obs.tracer import NULL_TRACER, Tracer


def _diagram_tracer(diagram: PlanDiagram) -> Tracer:
    """The tracer attached to the diagram's optimizer (null if none)."""
    if diagram.cache is not None:
        return diagram.cache.optimizer.tracer
    return NULL_TRACER

#: The optimal geometric ratio (Theorem 1: r=2 minimizes r²/(r−1)).
OPTIMAL_RATIO = 2.0


def contour_costs(cmin: float, cmax: float, ratio: float = OPTIMAL_RATIO) -> List[float]:
    """Geometric IC progression anchored at Cmax.

    ``IC_k = Cmax * ratio**(k - m)`` with ``m = floor(log_r(Cmax/Cmin)) + 1``,
    which satisfies ``IC_1 >= Cmin > IC_1 / r`` and ``IC_m = Cmax``.
    """
    if not (0 < cmin <= cmax):
        raise BouquetError(f"invalid cost range [{cmin}, {cmax}]")
    if ratio <= 1.0:
        raise BouquetError("contour ratio must exceed 1")
    if cmax == cmin:
        return [cmax]
    # m satisfies r^(m-1) <= Cmax/Cmin < r^m, so that Cmin <= IC_1 and
    # IC_1 / r < Cmin; the epsilon absorbs float noise just below integers.
    span = math.log(cmax / cmin, ratio)
    m = int(math.floor(span + 1e-9)) + 1
    return [cmax * ratio ** (k - m) for k in range(1, m + 1)]


def maximal_region_frontier(costs: np.ndarray, ic: float) -> List[Location]:
    """Maximal elements of ``{q : costs[q] <= ic}`` on the grid.

    With a monotone cost field, a location is maximal iff none of its +1
    axis successors stays within the region.
    """
    inside = costs <= ic + 1e-9 * ic
    if not inside.any():
        return []
    frontier = inside.copy()
    for axis in range(costs.ndim):
        # successor_inside[q] = inside[q + e_axis] (False at the boundary).
        successor_inside = np.zeros_like(inside)
        src = [slice(None)] * costs.ndim
        dst = [slice(None)] * costs.ndim
        src[axis] = slice(1, None)
        dst[axis] = slice(0, -1)
        successor_inside[tuple(dst)] = inside[tuple(src)]
        frontier &= ~successor_inside
    return [tuple(int(i) for i in idx) for idx in np.argwhere(frontier)]


@dataclass
class Contour:
    """One isocost step: its cost, grid locations, and resident plans."""

    index: int  # 1-based step number k
    cost: float  # IC_k (uninflated)
    locations: List[Location]
    #: location -> plan id responsible for it (post anorexic reduction).
    plan_at: Dict[Location, int] = field(default_factory=dict)

    @property
    def plan_ids(self) -> List[int]:
        return sorted(set(self.plan_at.values()))

    @property
    def density(self) -> int:
        """Number of distinct plans on this contour (n_k in §3.2)."""
        return len(set(self.plan_at.values()))


def build_contours(
    diagram: PlanDiagram,
    ratio: float = OPTIMAL_RATIO,
) -> List[Contour]:
    """Slice the PIC with geometric IC steps and collect their frontiers.

    Plan residency is the diagram's (optimal) choice at each frontier
    location; anorexic reduction is applied separately by the bouquet
    construction.
    """
    costs = diagram.costs
    steps = contour_costs(diagram.cmin, diagram.cmax, ratio)
    tracer = _diagram_tracer(diagram)
    contours: List[Contour] = []
    for k, ic in enumerate(steps, start=1):
        locations = maximal_region_frontier(costs, ic)
        plan_at = {loc: diagram.plan_at(loc) for loc in locations}
        contour = Contour(index=k, cost=ic, locations=locations, plan_at=plan_at)
        if tracer.enabled:
            tracer.event(
                "compile.contour",
                index=k,
                cost=ic,
                locations=len(locations),
                plans=contour.density,
            )
        contours.append(contour)
    return contours


def densest_contour_plans(contours: Sequence[Contour]) -> int:
    """ρ — the plan cardinality of the densest contour (§3.2)."""
    if not contours:
        raise BouquetError("no contours")
    return max(contour.density for contour in contours)
