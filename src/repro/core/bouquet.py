"""Compile-time bouquet identification (§4).

:func:`identify_bouquet` runs the full compile-time pipeline:

1. build (or accept) a plan diagram over the ESS,
2. slice the PIC into geometric isocost contours,
3. anorexic-reduce the plans residing on the contour frontiers,
4. inflate the contour budgets by ``(1 + λ)`` to pay for the reduction,

producing a :class:`PlanBouquet` — everything the run-time phase needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..ess.diagram import PlanCostCache, PlanDiagram
from ..ess.reduction import DEFAULT_LAMBDA, anorexic_reduce
from ..ess.space import Location, SelectivitySpace
from ..exceptions import BouquetError
from ..optimizer.optimizer import PlanRegistry
from .contours import (
    OPTIMAL_RATIO,
    Contour,
    build_contours,
    densest_contour_plans,
)


@dataclass
class PlanBouquet:
    """The compile-time artifact handed to the run-time phase.

    Attributes
    ----------
    contours:
        IC steps in increasing cost order, each with its (reduced) plans.
    budgets:
        Per-contour execution budgets: ``(1 + λ) * IC_k``.
    plan_ids:
        The bouquet B = union of the contour plan sets.
    """

    space: SelectivitySpace
    diagram: PlanDiagram
    registry: PlanRegistry
    contours: List[Contour]
    budgets: List[float]
    plan_ids: List[int]
    lambda_: float
    ratio: float

    @property
    def cardinality(self) -> int:
        """|B| — the bouquet size (Figure 18's BOU cardinality)."""
        return len(self.plan_ids)

    @property
    def rho(self) -> int:
        """ρ — plan count of the densest contour."""
        return densest_contour_plans(self.contours)

    @property
    def mso_bound(self) -> float:
        """Guaranteed MSO: ρ · (1+λ) · r²/(r−1) (Theorem 3 + §3.3)."""
        r = self.ratio
        return self.rho * (1.0 + self.lambda_) * r * r / (r - 1.0)

    @property
    def cost_cache(self) -> PlanCostCache:
        cache = self.diagram.cache
        if cache is None:
            raise BouquetError("bouquet diagram lacks a cost cache")
        return cache

    def describe(self) -> str:
        lines = [
            f"Plan bouquet for {self.space.query.name}: |B|={self.cardinality}, "
            f"rho={self.rho}, contours={len(self.contours)}, "
            f"lambda={self.lambda_:.0%}, r={self.ratio:g}",
            f"  Cmin={self.diagram.cmin:.4g}  Cmax={self.diagram.cmax:.4g}  "
            f"ratio Cmax/Cmin={self.diagram.cmax / self.diagram.cmin:.1f}",
        ]
        for contour, budget in zip(self.contours, self.budgets):
            plans = ", ".join(f"P{p}" for p in contour.plan_ids)
            lines.append(
                f"  IC{contour.index}: cost={contour.cost:.4g} budget={budget:.4g} "
                f"locations={len(contour.locations)} plans=[{plans}]"
            )
        return "\n".join(lines)


def identify_bouquet(
    diagram: PlanDiagram,
    lambda_: float = DEFAULT_LAMBDA,
    ratio: float = OPTIMAL_RATIO,
) -> PlanBouquet:
    """Identify the plan bouquet from a plan diagram (§4.3).

    Anorexic reduction is performed globally over the union of all contour
    frontier locations, so plans shared between adjacent contours are
    reused and the overall bouquet stays small.
    """
    from .contours import _diagram_tracer

    span = _diagram_tracer(diagram).span(
        "compile.identify_bouquet", lambda_=lambda_, ratio=ratio
    )
    contours = build_contours(diagram, ratio)
    if not contours:
        raise BouquetError("no isocost contours could be built")
    all_locations: List[Location] = []
    seen = set()
    for contour in contours:
        for location in contour.locations:
            if location not in seen:
                seen.add(location)
                all_locations.append(location)
    if lambda_ > 0:
        reduction = anorexic_reduce(diagram, all_locations, lambda_=lambda_)
        owner = reduction.assignment
    else:
        owner = {loc: diagram.plan_at(loc) for loc in all_locations}
    reduced_contours: List[Contour] = []
    for contour in contours:
        plan_at = {loc: owner[loc] for loc in contour.locations}
        reduced_contours.append(
            Contour(
                index=contour.index,
                cost=contour.cost,
                locations=list(contour.locations),
                plan_at=plan_at,
            )
        )
    budgets = [(1.0 + lambda_) * contour.cost for contour in reduced_contours]
    plan_ids = sorted({pid for c in reduced_contours for pid in c.plan_ids})
    span.set(
        cardinality=len(plan_ids),
        rho=densest_contour_plans(reduced_contours),
        contours=len(reduced_contours),
    )
    span.end()
    return PlanBouquet(
        space=diagram.space,
        diagram=diagram,
        registry=diagram.registry,
        contours=reduced_contours,
        budgets=budgets,
        plan_ids=plan_ids,
        lambda_=lambda_,
        ratio=ratio,
    )
