"""The cohort-stepping sweep engine.

:class:`SweepEngine` computes the optimized-bouquet total cost at many
ESS locations at once by advancing *cohorts* — batches of locations that
share the same discrete execution prefix — through an exact vectorized
replica of :meth:`repro.core.runtime.BouquetRunner._run_optimized`:

1. every location starts in one cohort at the first contour with
   ``q_run = (lo, …, lo)``;
2. each step evaluates the driver's decisions for the whole cohort with
   numpy (first-quadrant dominance against precomputed contour tables,
   AxisPlans candidates via gather tables, spill floors and candidate
   picks via batched abstract plan costing, the spill bisection run on
   all members at once);
3. the cohort then *splits* by decision signature — (contour, plan,
   spill outcome, early-crossing verdict) — and each child continues as
   its own cohort, down to cohorts of one location.

Two closed forms avoid per-location loops entirely: once every dimension
is learned exactly, the remaining climb reduces to masked lookups over
the :class:`~repro.ess.diagram.PlanCostCache` cost arrays (the cheapest
runnable plan either completes immediately or every runnable plan fails
and the contour is crossed); and the no-productive-candidate fallback is
a rank computation over batched plan costs.

The arithmetic mirrors the reference exactly — same tolerance constants,
same interpolation formulas — so fields agree to float rounding noise,
far inside the 1e-9 relative tolerance enforced by ``make bench-sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

import numpy as np

from ..core.bouquet import PlanBouquet
from ..core.simulation import simulate_at
from ..ess.space import Location
from ..exceptions import BouquetError
from ..obs.tracer import Tracer
from .memo import SweepCache, sweep_cache

__all__ = ["SweepEngine", "Cohort"]

_NEG = -(10**9)


@dataclass
class Cohort:
    """Locations sharing one discrete execution prefix."""

    rows: np.ndarray  # (N,) indices into the engine's location table
    qrun: np.ndarray  # (N, D) running selectivity lower bounds
    total: np.ndarray  # (N,) accumulated execution cost
    cid: int  # current contour position
    exact: FrozenSet[int]  # dims learned exactly
    attempted: FrozenSet[int]  # plans spilled at this contour
    exhausted: FrozenSet[int]  # plans that consumed this contour's budget

    @property
    def size(self) -> int:
        return len(self.rows)


class SweepEngine:
    """Vectorized optimized-bouquet cost-field sweeps for one bouquet.

    ``equivalence_threshold`` and ``model_error_delta`` are the run-time
    knobs of :class:`~repro.core.runtime.BouquetRunner`: the field is
    what that runner charges at every location under the same values.
    """

    def __init__(
        self,
        bouquet: PlanBouquet,
        crossing: Optional[object] = None,
        equivalence_threshold: float = 0.2,
        model_error_delta: float = 0.0,
        tracer: Optional[Tracer] = None,
    ):
        from ..sched.strategy import resolve_crossing

        if model_error_delta < 0:
            raise BouquetError("model_error_delta must be non-negative")
        self.bouquet = bouquet
        self.space = bouquet.space
        self.crossing = resolve_crossing(crossing)
        self.equivalence_threshold = equivalence_threshold
        self.model_error_delta = model_error_delta
        if tracer is not None:
            self.tracer = tracer
        else:
            self.tracer = bouquet.cost_cache.optimizer.tracer
        self.cache: SweepCache = sweep_cache(bouquet)
        # Same inflation as BouquetRunner, so the arithmetic matches.
        self.budgets = [
            budget * (1.0 + model_error_delta) for budget in bouquet.budgets
        ]
        # Every knob that changes the field keys its own totals memo.
        self._memo_key = (
            self.crossing.name, equivalence_threshold, model_error_delta
        )
        self.D = self.space.dimensionality
        self._shape = self.space.shape
        # Per-run state (set by _sweep):
        self._flat: Optional[np.ndarray] = None
        self._out: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def cost_field(self, refresh: bool = False) -> np.ndarray:
        """The full-grid optimized cost field (shape = space.shape)."""
        if refresh:
            self.cache.invalidate()
        flat = np.arange(self.space.size, dtype=np.int64)
        totals = self._totals_for_flat(flat)
        return totals.reshape(self._shape)

    def totals(
        self, locations: Iterable[Location], refresh: bool = False
    ) -> np.ndarray:
        """Per-location totals, aligned with the ``locations`` order."""
        if refresh:
            self.cache.invalidate()
        locs = list(locations)
        if not locs:
            return np.empty(0)
        coords = np.array(locs, dtype=np.int64).reshape(len(locs), self.D)
        flat = np.ravel_multi_index(tuple(coords.T), self._shape)
        return self._totals_for_flat(flat)

    def field_dict(
        self, locations: Optional[Iterable[Location]] = None
    ) -> Dict[Location, float]:
        """Dict-shaped field (the :func:`optimized_cost_field` contract)."""
        locs = (
            list(locations) if locations is not None
            else list(self.space.locations())
        )
        values = self.totals(locs)
        return {loc: float(v) for loc, v in zip(locs, values)}

    # ------------------------------------------------------------------
    # Sweep driver
    # ------------------------------------------------------------------

    def _totals_for_flat(self, flat: np.ndarray) -> np.ndarray:
        cache = self.cache
        tracer = self.tracer
        with tracer.span(
            "sweep.field",
            locations=len(flat),
            crossing=self.crossing.name,
            contours=len(self.bouquet.contours),
        ) as span:
            known = cache.known(flat, self._memo_key)
            hits = int(known.sum())
            if tracer.enabled and hits:
                tracer.count("sweep.memo_hits", hits)
            todo = flat[~known]
            stats = {"cohorts": 0, "splits": 0}
            if len(todo):
                if self.crossing.name == "sequential":
                    values = self._sweep(todo, stats)
                else:
                    values = self._per_location(todo)
                cache.store(todo, values, self._memo_key)
            span.set(
                memo_hits=hits,
                cohorts=stats["cohorts"],
                splits=stats["splits"],
                batched_costings=cache.coster.batched_costings,
            )
        return cache.totals(self._memo_key)[flat].copy()

    def _per_location(self, flat: np.ndarray) -> np.ndarray:
        """A non-sequential crossing schedules each location's contour
        plans on its own, so those sweeps run the reference driver at
        every location."""
        if self.tracer.enabled:
            self.tracer.count("sweep.residue_locations", len(flat))
        return np.array([
            simulate_at(
                self.bouquet,
                tuple(int(i) for i in np.unravel_index(f, self._shape)),
                crossing=self.crossing,
                model_error_delta=self.model_error_delta,
            ).total_cost
            for f in flat
        ])

    def _sweep(self, flat: np.ndarray, stats: Dict[str, int]) -> np.ndarray:
        tracer = self.tracer
        n = len(flat)
        self._flat = flat
        self._out = np.full(n, np.nan)
        lo = np.array([dim.lo for dim in self.space.dimensions])
        queue: List[Cohort] = [
            Cohort(
                rows=np.arange(n, dtype=np.int64),
                qrun=np.broadcast_to(lo, (n, self.D)).copy(),
                total=np.zeros(n),
                cid=0,
                exact=frozenset(),
                attempted=frozenset(),
                exhausted=frozenset(),
            )
        ]
        while queue:
            cohort = queue.pop()
            stats["cohorts"] += 1
            if tracer.enabled:
                tracer.count("sweep.cohorts")
                tracer.observe("sweep.cohort_size", cohort.size)
            children = self._step(cohort)
            stats["splits"] += max(0, len(children) - 1)
            if tracer.enabled and len(children) > 1:
                tracer.count("sweep.cohort_splits", len(children) - 1)
            queue.extend(children)
        out = self._out
        self._flat = None
        self._out = None
        if np.isnan(out).any():
            raise BouquetError("sweep engine left locations unswept")
        return out

    # ------------------------------------------------------------------
    # One cohort step (one contour interaction)
    # ------------------------------------------------------------------

    @staticmethod
    def _child(
        mask: np.ndarray,
        qrun: np.ndarray,
        total: np.ndarray,
        rows: np.ndarray,
        *,
        cid: int,
        exact: FrozenSet[int],
        attempted: FrozenSet[int],
        exhausted: FrozenSet[int],
    ) -> Cohort:
        return Cohort(
            rows=rows[mask],
            qrun=qrun[mask],
            total=total[mask],
            cid=cid,
            exact=exact,
            attempted=attempted,
            exhausted=exhausted,
        )

    def _step(self, cohort: Cohort) -> List[Cohort]:
        contours = self.bouquet.contours
        if cohort.cid >= len(contours):
            # The reference run would return completed=False here and
            # simulate_at would raise: contour coverage is broken.
            raise BouquetError(
                "sweep reached the end of the contour ladder without "
                "completing — contour coverage bug"
            )
        cid = cohort.cid
        budget = self.budgets[cid]
        tables = self.cache.tables(cid)
        children: List[Cohort] = []

        dom = tables.dominating(cohort.qrun)
        has_dom = dom.any(axis=1)
        if not has_dom.all():
            # First-quadrant pruning: qa cannot lie inside this contour —
            # cross without execution.
            children.append(
                self._child(
                    ~has_dom, cohort.qrun, cohort.total, cohort.rows,
                    cid=cid + 1, exact=cohort.exact,
                    attempted=frozenset(), exhausted=frozenset(),
                )
            )
        if not has_dom.any():
            return children
        rows = cohort.rows[has_dom]
        qrun = cohort.qrun[has_dom]
        total = cohort.total[has_dom]
        dom = dom[has_dom]
        flat = self._flat[rows]

        if len(cohort.exact) == self.D:
            # Endgame: every dimension learned exactly, so AxisPlans has
            # nothing to offer and the driver goes straight to the
            # run-the-dominating-plans fallback.
            self._fallback(
                cohort, children, rows, qrun, total, dom, flat,
                np.zeros((len(rows), 0), dtype=bool), [], tables, budget,
            )
            return children

        self._spill_step(
            cohort, children, rows, qrun, total, dom, flat, tables, budget
        )
        return children

    # -- spill step ------------------------------------------------------

    def _spill_step(
        self, cohort, children, rows, qrun, total, dom, flat, tables, budget
    ) -> None:
        coster = self.cache.coster
        cid = cohort.cid
        n = len(rows)
        D = self.D
        exact = cohort.exact
        unlearned_dims = [d for d in range(D) if d not in exact]
        unlearned = frozenset(
            self.space.dimensions[d].pid for d in unlearned_dims
        )

        # AxisPlans candidates via the precomputed gather tables.
        snapped = coster.snap(qrun)
        snap_flat = np.ravel_multi_index(tuple(snapped.T), self._shape)
        inside0 = tables.inside_flat[snap_flat]
        cand = np.full((n, D), -1, dtype=np.int64)
        for d in unlearned_dims:
            cand[:, d] = np.where(
                inside0, tables.axis_plan_flat[d][snap_flat], -1
            )
        plan_list = sorted(
            set(int(p) for p in np.unique(cand) if p >= 0) - set(cohort.attempted)
        )
        P = len(plan_list)
        if P == 0:
            self._fallback(
                cohort, children, rows, qrun, total, dom, flat,
                np.zeros((n, 0), dtype=bool), [], tables, budget,
            )
            return
        present = np.zeros((n, P), dtype=bool)
        depth = np.full((n, P), _NEG, dtype=np.int64)
        for k, pid in enumerate(plan_list):
            hit = cand == pid
            present[:, k] = hit.any(axis=1)
            depth[:, k] = np.where(hit, coster.depths(pid)[None, :], _NEG).max(axis=1)

        # Spill-floor pre-check: candidates whose spilled subtree already
        # prices at/above the budget at q_run are pruned (and exhausted).
        pruned = np.zeros((n, P), dtype=bool)
        for k, pid in enumerate(plan_list):
            r = present[:, k]
            if r.any():
                floor = coster.spill_floor(pid, qrun[r], unlearned)
                pruned[r, k] = floor >= budget * (1.0 - 1e-9)
        productive = present & ~pruned

        # Candidate pick: cheapest cost-equivalence group, deepest error
        # node first, plan id as the final tie break.
        costq = np.full((n, P), np.inf)
        for k, pid in enumerate(plan_list):
            r = productive[:, k]
            if r.any():
                costq[r, k] = coster.plan_cost(pid, qrun[r])
        cheapest = np.min(np.where(productive, costq, np.inf), axis=1)
        with np.errstate(invalid="ignore"):
            in_group = productive & (
                costq <= (cheapest * (1.0 + self.equivalence_threshold))[:, None]
            )
        best_depth = np.full(n, _NEG, dtype=np.int64)
        best_cost = np.full(n, np.inf)
        winner = np.full(n, -1, dtype=np.int64)
        for k, pid in enumerate(plan_list):
            g = in_group[:, k]
            d_k = depth[:, k]
            c_k = costq[:, k]
            better = g & (
                (d_k > best_depth)
                | ((d_k == best_depth) & (c_k < best_cost))
            )
            best_depth[better] = d_k[better]
            best_cost[better] = c_k[better]
            winner[better] = pid

        # Pruned-set bitmask: pruned plans join attempted/exhausted, so
        # rows with different pruned sets diverge discretely.
        if P:
            bits = (pruned @ (1 << np.arange(P, dtype=np.int64))).astype(np.int64)
        else:
            bits = np.zeros(n, dtype=np.int64)

        fallback = winner < 0
        if fallback.any():
            self._fallback(
                cohort, children, rows[fallback], qrun[fallback],
                total[fallback], dom[fallback], flat[fallback],
                pruned[fallback], plan_list, tables, budget,
            )

        active = ~fallback
        if not active.any():
            return
        may_cross = cid + 1 < len(self.bouquet.contours)
        # Group spill executions by (pruned bitmask, winner) — the spill
        # itself only depends on the winner, but the pruned set feeds the
        # child cohorts' attempted/exhausted state.
        pair = np.stack([bits, winner], axis=1)
        for b_val, w_val in sorted({tuple(p) for p in pair[active].tolist()}):
            sel = active & (bits == b_val) & (winner == w_val)
            self._execute_spill(
                cohort, children, sel, rows, qrun, total, flat,
                int(w_val), int(b_val), plan_list, unlearned, budget, may_cross,
            )

    def _execute_spill(
        self, cohort, children, sel, rows, qrun, total, flat,
        plan_id, bits, plan_list, unlearned, budget, may_cross,
    ) -> None:
        coster = self.cache.coster
        cid = cohort.cid
        truth = self.cache.truth[flat[sel]]
        answered, exact_mask, spent, learned, target_dims = coster.run_spilled(
            plan_id, budget, unlearned, truth
        )
        qrun_new = qrun[sel].copy()
        for col, j in enumerate(target_dims):
            qrun_new[:, j] = np.maximum(qrun_new[:, j], learned[:, col])
        total_new = total[sel] + spent
        rows_sel = rows[sel]

        # Spill-to-store completions: the resumed plan finished under the
        # budget, answering the query — these locations are done (direct
        # writes, like the fallback winners).
        if answered.any():
            self._out[rows_sel[answered]] = total_new[answered]
        remaining = ~answered
        if not remaining.any():
            return

        # Early contour change (Figure 13's last step): the learned
        # location already prices at/above this contour's budget.
        estimate = coster.optimal_estimate(qrun_new)
        crossed = (estimate >= budget) & may_cross

        pruned_plans = frozenset(
            pid for k, pid in enumerate(plan_list) if bits >> k & 1
        )
        for exact_spill in (True, False):
            kind_mask = remaining & (exact_mask == exact_spill)
            if not kind_mask.any():
                continue
            exact2 = cohort.exact
            if exact_spill and target_dims:
                exact2 = cohort.exact | set(target_dims)
            attempted2 = cohort.attempted | pruned_plans | {plan_id}
            # A non-answering spill always consumed the full budget, so
            # the plan is proven unable to complete under it (PCM).
            exhausted2 = cohort.exhausted | pruned_plans | {plan_id}
            for crs in (True, False):
                mask = kind_mask & (crossed == crs)
                if not mask.any():
                    continue
                children.append(
                    self._child(
                        mask, qrun_new, total_new, rows_sel,
                        cid=cid + 1 if crs else cid,
                        exact=exact2,
                        attempted=frozenset() if crs else attempted2,
                        exhausted=frozenset() if crs else exhausted2,
                    )
                )

    # -- no-productive-candidate fallback -------------------------------

    def _fallback(
        self, cohort, children, rows, qrun, total, dom, flat,
        pruned, plan_list, tables, budget,
    ) -> None:
        """Nothing left to learn on this contour: run the dominating
        resident plans fully (cheapest at q_run first), pruning plans
        already beyond the budget at q_run; cross if none completes."""
        coster = self.cache.coster
        cache = self.bouquet.cost_cache
        cid = cohort.cid
        n = len(rows)
        Pc = len(tables.plan_ids)
        costq = np.full((n, Pc), np.inf)
        eligible = np.zeros((n, Pc), dtype=bool)
        col_of = {pid: k for k, pid in enumerate(plan_list)}
        for j, pid in enumerate(tables.plan_ids):
            r = dom[:, j].copy()
            if pid in cohort.exhausted:
                r[:] = False
            k = col_of.get(pid)
            if k is not None:
                r &= ~pruned[:, k]
            if r.any():
                costq[r, j] = coster.plan_cost(pid, qrun[r])
            eligible[:, j] = r
        runnable = eligible & (costq <= budget * (1.0 + 1e-9))
        true_cost = np.empty((n, Pc))
        for j, pid in enumerate(tables.plan_ids):
            true_cost[:, j] = cache.cost_array(pid).ravel()[flat]
        completes = runnable & (true_cost <= budget)

        # First completer in ascending (cost-at-q_run, plan id) order.
        win_cost = np.full(n, np.inf)
        win_col = np.full(n, -1, dtype=np.int64)
        for j in range(Pc):
            c = np.where(completes[:, j], costq[:, j], np.inf)
            better = c < win_cost
            win_cost[better] = c[better]
            win_col[better] = j
        has_winner = win_col >= 0
        if has_winner.any():
            # Failed attempts before the winner — ascending (cost-at-
            # q_run, plan id) — each burn the budget.
            cols = np.arange(Pc, dtype=np.int64)
            before = runnable & (
                (costq < win_cost[:, None])
                | ((costq == win_cost[:, None]) & (cols[None, :] < win_col[:, None]))
            )
            fails = before.sum(axis=1)
            w = np.where(has_winner, win_col, 0)
            final = true_cost[np.arange(n), w]
            done = has_winner
            self._out[rows[done]] = (
                total[done] + budget * fails[done] + final[done]
            )
        failed = ~has_winner
        if failed.any():
            total_after = total + budget * runnable.sum(axis=1)
            children.append(
                self._child(
                    failed, qrun, total_after, rows,
                    cid=cid + 1, exact=cohort.exact,
                    attempted=frozenset(), exhausted=frozenset(),
                )
            )
