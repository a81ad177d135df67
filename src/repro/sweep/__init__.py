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

Entry point: :class:`SweepEngine` — ``cost_field()`` for the full grid
(what the robustness metrics in :mod:`repro.robustness.metrics`
consume) and ``totals(locations)`` for a sample; the dict-shaped
:func:`~repro.core.simulation.optimized_cost_field` wraps the latter.
"""

from __future__ import annotations

from .cohorts import BatchCoster, ContourTables
from .engine import Cohort, SweepEngine
from .memo import SweepCache, sweep_cache

__all__ = [
    "BatchCoster",
    "Cohort",
    "ContourTables",
    "SweepCache",
    "SweepEngine",
    "sweep_cache",
]
