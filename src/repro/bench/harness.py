"""Shared experimental harness ("the lab").

Builds the full evaluation environment of §6 once — TPC-H and TPC-DS
databases, sampled statistics, optimizers — and manufactures per-query
artifacts (ESS, plan diagram, bouquet, baselines) with laptop-scale grid
resolutions.  Used by the benchmark harness, the examples, and the
integration tests so every consumer sees the same world.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..catalog.tpcds import tpcds_generator_spec, tpcds_schema
from ..catalog.tpch import tpch_generator_spec, tpch_schema
from ..core.bouquet import PlanBouquet, identify_bouquet
from ..core.simulation import basic_cost_field
from ..datagen.database import Database
from ..ess.diagram import PlanDiagram, coarse_subgrid
from ..ess.space import SelectivitySpace
from ..obs.tracer import MemorySink, Tracer
from ..obs.summary import summarize_trace
from ..optimizer.cost_model import POSTGRES_COST_MODEL, CostModel
from ..optimizer.optimizer import Optimizer
from ..optimizer.selectivity import actual_selectivities
from ..query.workload import WorkloadQuery, full_workload
from ..robustness.nat import NativeOptimizerStrategy
from ..robustness.seer import SeerStrategy

#: Grid points per dimension, by ESS dimensionality.  Plan cost fields
#: are evaluated in one vectorized pass, so full-ESS sweeps stay cheap
#: even at tens of thousands of grid cells; the remaining cost is the
#: optimizer calls that seed the diagrams.
DEFAULT_RESOLUTIONS = {1: 100, 2: 30, 3: 16, 4: 9, 5: 7}

#: Dimensionality at/above which the Picasso-style candidate approximation
#: replaces the exhaustive one-optimization-per-location diagram.
EXHAUSTIVE_UP_TO = 2


@dataclass
class QueryLab:
    """All per-query artifacts for one workload entry."""

    workload: WorkloadQuery
    space: SelectivitySpace
    diagram: PlanDiagram
    bouquet: PlanBouquet
    nat: NativeOptimizerStrategy
    _seer: Optional[SeerStrategy] = None
    _basic_field: Optional[np.ndarray] = None
    _optimized_field: Optional[np.ndarray] = None

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def seer(self) -> SeerStrategy:
        if self._seer is None:
            self._seer = SeerStrategy(self.diagram)
        return self._seer

    @property
    def bouquet_cost_field(self) -> np.ndarray:
        """Basic-bouquet total cost at every qa (cached)."""
        if self._basic_field is None:
            self._basic_field = basic_cost_field(self.bouquet)
        return self._basic_field

    @property
    def optimized_cost_field(self) -> np.ndarray:
        """Optimized-bouquet total cost at every qa (cached).

        Computed by the vectorized sweep engine (:mod:`repro.sweep`);
        the grid-shaped counterpart of :attr:`bouquet_cost_field` for
        the Figure 13 driver.
        """
        if self._optimized_field is None:
            from ..sweep import optimized_field_array

            self._optimized_field = optimized_field_array(self.bouquet)
        return self._optimized_field

    @property
    def pic(self) -> np.ndarray:
        return self.diagram.costs


class Lab:
    """The full evaluation environment."""

    def __init__(
        self,
        tpch_scale: float = 0.003,
        tpcds_scale: float = 0.003,
        stats_sample: int = 2000,
        seed: int = 42,
        cost_model: CostModel = POSTGRES_COST_MODEL,
        lambda_: float = 0.2,
        ratio: float = 2.0,
        resolutions: Optional[Dict[int, int]] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.lambda_ = lambda_
        self.ratio = ratio
        self.resolutions = dict(DEFAULT_RESOLUTIONS)
        if resolutions:
            self.resolutions.update(resolutions)
        #: Lab-wide telemetry: an in-memory tracer by default so benches
        #: can emit a trace summary next to their results for free.
        self.tracer = tracer if tracer is not None else Tracer(MemorySink())
        self.h_schema = tpch_schema(tpch_scale)
        self.ds_schema = tpcds_schema(tpcds_scale)
        self.h_db = Database.generate(self.h_schema, tpch_generator_spec(tpch_scale), seed=seed)
        self.ds_db = Database.generate(self.ds_schema, tpcds_generator_spec(tpcds_scale), seed=seed + 1)
        self.h_stats = self.h_db.build_statistics(sample_size=stats_sample, seed=seed)
        self.ds_stats = self.ds_db.build_statistics(sample_size=stats_sample, seed=seed)
        self.h_optimizer = Optimizer(self.h_schema, self.h_stats, cost_model, tracer=self.tracer)
        self.ds_optimizer = Optimizer(self.ds_schema, self.ds_stats, cost_model, tracer=self.tracer)
        self.workload = full_workload(self.h_schema, self.ds_schema)
        self._labs: Dict[str, QueryLab] = {}

    # ------------------------------------------------------------------

    def _env_for(self, name: str) -> Tuple[Optimizer, Database]:
        if "DS" in name:
            return self.ds_optimizer, self.ds_db
        return self.h_optimizer, self.h_db

    def resolution_for(self, dimensionality: int) -> int:
        return self.resolutions.get(dimensionality, 5)

    def build(self, name: str, resolution: Optional[int] = None) -> QueryLab:
        """Build (and cache) the per-query lab for one workload entry."""
        cached = self._labs.get(name)
        if cached is not None and resolution is None:
            return cached
        workload = self.workload[name]
        optimizer, database = self._env_for(name)
        dims = workload.dimensions()
        res = resolution or self.resolution_for(len(dims))
        with self.tracer.span("lab.build", query=name, resolution=res):
            base = actual_selectivities(workload.query, database)
            space = SelectivitySpace(workload.query, dims, res, base)
            if space.dimensionality <= EXHAUSTIVE_UP_TO:
                diagram = PlanDiagram.exhaustive(optimizer, space)
            else:
                diagram = PlanDiagram.from_candidates(
                    optimizer, space, coarse_subgrid(space, per_dim=4)
                )
            bouquet = identify_bouquet(diagram, lambda_=self.lambda_, ratio=self.ratio)
        lab = QueryLab(
            workload=workload,
            space=space,
            diagram=diagram,
            bouquet=bouquet,
            nat=NativeOptimizerStrategy(diagram),
        )
        if resolution is None:
            self._labs[name] = lab
        return lab

    def trace_summary(self) -> str:
        """Condense the lab tracer's records + metrics into a text report.

        Works only with a memory-sinked tracer (the default); other sinks
        yield a metrics-only summary.
        """
        records = list(getattr(self.tracer.sink, "records", ()))
        snapshot = self.tracer.snapshot()
        for name, value in sorted(snapshot["counters"].items()):
            records.append({"type": "counter", "name": name, "value": value})
        for name, stats in sorted(snapshot["timings"].items()):
            records.append({"type": "timing", "name": name, **stats})
        return summarize_trace(records).describe()


_SHARED_LAB: Optional[Lab] = None


def shared_lab() -> Lab:
    """A process-wide default lab, shared across benches to amortize the
    (deterministic) database generation and diagram construction."""
    global _SHARED_LAB
    if _SHARED_LAB is None:
        _SHARED_LAB = Lab()
    return _SHARED_LAB
