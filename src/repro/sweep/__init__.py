"""Vectorized ESS sweep engine for optimized-bouquet metrics.

The per-location reference (:func:`repro.core.simulation.simulate_at` in
``optimized`` mode, looped over the grid) re-runs the Figure 13 driver
from scratch at every location.  This package computes the same field
with two cooperating layers:

* :mod:`repro.sweep.cohorts` — cohort batching: locations sharing an
  execution prefix advance together through vectorized replicas of the
  driver's decisions, splitting only when their traces diverge, down to
  cohorts of one location.
* :mod:`repro.sweep.memo` — a full-grid totals memo per run-time knob
  setting, plus the per-contour tables and batch coster that every
  sweep over the same bouquet reuses.

Non-sequential crossing strategies schedule each location's contour
plans on their own, so their sweeps run the reference driver per
location (:func:`repro.core.simulation.simulate_at`).

Entry points: :class:`SweepEngine` for repeated sweeps over one bouquet,
:func:`sweep_cost_field` for the dict-shaped
:func:`~repro.core.simulation.optimized_cost_field` contract, and
:func:`optimized_field_array` for a grid-shaped ndarray (what the
robustness metrics in :mod:`repro.robustness.metrics` consume).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from ..core.bouquet import PlanBouquet
from ..ess.space import Location
from .cohorts import BatchCoster, ContourTables
from .engine import Cohort, SweepEngine
from .memo import SweepCache, sweep_cache

__all__ = [
    "BatchCoster",
    "Cohort",
    "ContourTables",
    "SweepCache",
    "SweepEngine",
    "optimized_field_array",
    "sweep_cache",
    "sweep_cost_field",
]


def sweep_cost_field(
    bouquet: PlanBouquet,
    locations: Optional[Iterable[Location]] = None,
    crossing: Optional[object] = None,
    **engine_kwargs,
) -> Dict[Location, float]:
    """Optimized-bouquet cost field via the sweep engine (dict-shaped).

    Drop-in accelerated equivalent of the per-location loop in
    :func:`repro.core.simulation.optimized_cost_field`.
    """
    engine = SweepEngine(bouquet, crossing=crossing, **engine_kwargs)
    return engine.field_dict(locations)


def optimized_field_array(
    bouquet: PlanBouquet,
    crossing: Optional[object] = None,
    **engine_kwargs,
) -> np.ndarray:
    """Full-grid optimized cost field, shaped like ``space.shape``."""
    engine = SweepEngine(bouquet, crossing=crossing, **engine_kwargs)
    return engine.cost_field()
