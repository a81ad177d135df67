"""Physical plan trees and abstract plan costing.

Plans are immutable operator trees.  Costing is *parametric*: a plan can be
costed at any selectivity assignment (`abstract plan costing`, the engine
facility the bouquet technique leans on, §5.4).  All formulas are monotone
non-decreasing in every selectivity, so Plan Cost Monotonicity (PCM) holds
by construction — the assumption underlying the bouquet guarantees (§2).

Operator inventory: sequential scan, index scan, index lookup (inner side
of an index nested-loop join), and four join algorithms (materialized
nested loops, hash, sort-merge, index nested loops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from ..catalog.schema import IndexInfo, Schema
from ..exceptions import OptimizerError
from .cost_model import CostModel


@dataclass(frozen=True)
class NodeEstimate:
    """Output cardinality and cumulative cost of a plan node.

    Fields are floats for point costing, or numpy arrays when the
    assignment maps pids to arrays — the same formulas then evaluate the
    plan over a whole grid of selectivity points at once (vectorized
    abstract plan costing)."""

    rows: float
    cost: float


class CostContext:
    """Everything needed to cost a plan at one point in selectivity space.

    The assignment may map pids to scalars (point costing) or to 1-D
    numpy arrays (slab costing): every operator formula is plain
    elementwise arithmetic, so an array-valued context evaluates a plan
    at a whole slab of ESS locations in one pass.  :meth:`for_slab` is
    the explicit batch entry point used by :mod:`repro.batchopt`.
    """

    def __init__(
        self,
        schema: Schema,
        cost_model: CostModel,
        assignment: Mapping[str, float],
    ):
        self.schema = schema
        self.cost_model = cost_model
        self.assignment = assignment
        # Memo holds (node, estimate): keeping a strong reference to the
        # node guarantees its id() is not recycled for a different node
        # within this context's lifetime.
        self._memo: Dict[int, Tuple[PlanNode, NodeEstimate]] = {}

    @classmethod
    def for_slab(
        cls,
        schema: Schema,
        cost_model: CostModel,
        columns: Mapping[str, object],
    ) -> "CostContext":
        """Array-valued costing context over a slab of ESS locations.

        ``columns`` maps each pid to either a python float (the pid is
        constant over the slab) or a 1-D array of per-location
        selectivities.  Estimates memoize whole arrays per node, so a
        frontier plan shared by many DP candidates is costed once.
        """
        return cls(schema, cost_model, columns)

    def selectivity(self, pid: str) -> float:
        try:
            return self.assignment[pid]
        except KeyError:
            raise OptimizerError(f"no selectivity for predicate {pid!r}") from None

    def product(self, pids) -> float:
        result = 1.0
        for pid in pids:
            result *= self.selectivity(pid)
        return result


class PlanNode:
    """Base class for plan operators."""

    #: Child operators (leaf nodes have none).
    children: Tuple["PlanNode", ...] = ()

    # -- identity ------------------------------------------------------

    def signature(self) -> str:
        """Stable structural identity; two plans with equal signatures are
        the same plan for POSP/bouquet purposes."""
        raise NotImplementedError

    def canonical_signature(self) -> str:
        """Memoized :meth:`signature`.

        Plan trees are immutable after construction, so the signature is
        computed once and cached on the instance.  The batch compile
        kernel registers the same frontier plan for many grid locations;
        the cache turns those repeat registrations into a dict hit
        instead of an O(tree) string rebuild.
        """
        sig = getattr(self, "_signature_cache", None)
        if sig is None:
            sig = self.signature()
            self._signature_cache = sig
        return sig

    # -- metadata ------------------------------------------------------

    @property
    def local_pids(self) -> FrozenSet[str]:
        """Predicates evaluated *at* this node."""
        raise NotImplementedError

    def all_pids(self) -> FrozenSet[str]:
        pids = set(self.local_pids)
        for child in self.children:
            pids |= child.all_pids()
        return frozenset(pids)

    def tables(self) -> FrozenSet[str]:
        raise NotImplementedError

    # -- costing -------------------------------------------------------

    def estimate(self, ctx: CostContext) -> NodeEstimate:
        cached = ctx._memo.get(id(self))
        if cached is not None:
            return cached[1]
        result = self._estimate(ctx)
        # Memoized estimates are shared by every plan that embeds this
        # node; freeze array fields so an accidental in-place update in a
        # parent's formula raises instead of corrupting the slab memo.
        for field in (result.rows, result.cost):
            if isinstance(field, np.ndarray):
                field.setflags(write=False)
        ctx._memo[id(self)] = (self, result)
        return result

    def _estimate(self, ctx: CostContext) -> NodeEstimate:
        raise NotImplementedError

    # -- traversal -----------------------------------------------------

    def postorder(self):
        """Yield nodes in execution order (children before parents)."""
        for child in self.children:
            yield from child.postorder()
        yield self

    def depth(self) -> int:
        """Height of the subtree rooted here."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def __repr__(self):
        return self.signature()


class SeqScan(PlanNode):
    """Full sequential scan of a base table with conjunctive filters."""

    def __init__(self, table: str, filter_pids: Tuple[str, ...] = ()):
        self.table = table
        self.filter_pids = tuple(sorted(filter_pids))

    def signature(self):
        filters = ",".join(self.filter_pids)
        return f"SS({self.table}|{filters})"

    @property
    def local_pids(self):
        return frozenset(self.filter_pids)

    def tables(self):
        return frozenset((self.table,))

    def _estimate(self, ctx):
        table = ctx.schema.table(self.table)
        model = ctx.cost_model
        rows_in = float(table.row_count)
        cost = table.pages * model.seq_page_cost
        cost += rows_in * model.cpu_tuple_cost
        cost += rows_in * len(self.filter_pids) * model.cpu_operator_cost
        rows_out = rows_in * ctx.product(self.filter_pids)
        return NodeEstimate(rows=rows_out, cost=cost)


class IndexScan(PlanNode):
    """B-tree index scan driven by one selection predicate.

    ``index_pid`` is the predicate satisfied via the index; remaining
    filters are applied to fetched heap rows.  Heap fetches are charged as
    random page reads, so the scan loses to :class:`SeqScan` at high
    selectivity — which is what makes the POSP set non-trivial.
    """

    def __init__(self, table: str, index_pid: str, filter_pids: Tuple[str, ...] = ()):
        self.table = table
        self.index_pid = index_pid
        self.filter_pids = tuple(sorted(filter_pids))

    def signature(self):
        filters = ",".join(self.filter_pids)
        return f"IS({self.table}:{self.index_pid}|{filters})"

    @property
    def local_pids(self):
        return frozenset((self.index_pid,) + self.filter_pids)

    def tables(self):
        return frozenset((self.table,))

    def _estimate(self, ctx):
        table = ctx.schema.table(self.table)
        model = ctx.cost_model
        sel = ctx.selectivity(self.index_pid)
        matched = table.row_count * sel
        index = IndexInfo.for_table(table, self.index_pid)
        cost = index.height * model.random_page_cost
        cost += sel * index.leaf_pages * model.seq_page_cost
        cost += matched * model.cpu_index_tuple_cost
        cost += matched * model.random_page_cost  # heap fetches (uncorrelated)
        cost += matched * model.cpu_tuple_cost
        cost += matched * len(self.filter_pids) * model.cpu_operator_cost
        rows_out = matched * ctx.product(self.filter_pids)
        return NodeEstimate(rows=rows_out, cost=cost)


class IndexLookup(PlanNode):
    """Inner side of an index nested-loop join: per-outer-tuple lookups.

    Never costed standalone; :class:`Join` with ``algo='inl'`` folds the
    per-lookup cost into the join formula.  For the same reason its
    ``local_pids`` are empty: the residual ``filter_pids`` are evaluated
    per-lookup *by the enclosing join*, which reports them — so spill
    machinery (``first_error_node``) targets the join, the smallest
    subtree that can actually be costed or executed.
    """

    def __init__(self, table: str, lookup_column: str, filter_pids: Tuple[str, ...] = ()):
        self.table = table
        self.lookup_column = lookup_column
        self.filter_pids = tuple(sorted(filter_pids))

    def signature(self):
        filters = ",".join(self.filter_pids)
        return f"IXL({self.table}.{self.lookup_column}|{filters})"

    @property
    def local_pids(self):
        return frozenset()

    def tables(self):
        return frozenset((self.table,))

    def _estimate(self, ctx):
        raise OptimizerError("IndexLookup cannot be costed outside an INL join")


class Aggregate(PlanNode):
    """Hash aggregation: COUNT(*) per group (global count when no groups).

    Output cardinality is capped by the product of the group columns'
    distinct-value hints (falling back to their tables' row counts), and
    is therefore monotone non-decreasing in every selectivity — PCM is
    preserved.
    """

    def __init__(self, child: PlanNode, group_columns: Tuple[Tuple[str, str], ...] = ()):
        if isinstance(child, IndexLookup):
            raise OptimizerError("aggregate cannot consume an IndexLookup")
        self.child = child
        self.group_columns = tuple(sorted(group_columns))
        self.children = (child,)

    def signature(self):
        groups = ",".join(f"{t}.{c}" for t, c in self.group_columns)
        return f"AGG({self.child.signature()}|{groups})"

    @property
    def local_pids(self):
        return frozenset()

    def tables(self):
        return self.child.tables()

    def group_limit(self, ctx: CostContext) -> float:
        """Upper bound on the number of groups."""
        limit = 1.0
        for table, column in self.group_columns:
            col = ctx.schema.table(table).column(column)
            hint = col.distinct
            limit *= float(hint if hint else ctx.schema.table(table).row_count)
        return limit

    def _estimate(self, ctx):
        model = ctx.cost_model
        child = self.child.estimate(ctx)
        if self.group_columns:
            rows_out = np.minimum(child.rows, self.group_limit(ctx))
        else:
            rows_out = 1.0
        # Binary + first: ``child.cost`` may be a memoized array shared
        # with other plans in a slab context, so the running total must
        # start as a fresh object before any in-place accumulation.
        cost = child.cost + child.rows * (
            model.hash_tuple_cost + len(self.group_columns) * model.cpu_operator_cost
        )
        cost += rows_out * model.cpu_tuple_cost
        return NodeEstimate(rows=rows_out, cost=cost)


#: Join algorithm tags.
JOIN_ALGOS = ("hash", "merge", "nl", "inl")

_ALGO_LABEL = {"hash": "HJ", "merge": "MJ", "nl": "NL", "inl": "INL"}


class Join(PlanNode):
    """A binary join.

    Conventions: for ``hash`` the right child is the build side; for
    ``nl`` the right child is materialized and rescanned; for ``inl`` the
    right child must be an :class:`IndexLookup`.
    """

    def __init__(
        self,
        algo: str,
        left: PlanNode,
        right: PlanNode,
        join_pids: Tuple[str, ...],
    ):
        if algo not in JOIN_ALGOS:
            raise OptimizerError(f"unknown join algorithm {algo!r}")
        if algo == "inl" and not isinstance(right, IndexLookup):
            raise OptimizerError("inl join requires an IndexLookup inner side")
        if algo != "inl" and isinstance(right, IndexLookup):
            raise OptimizerError(f"{algo} join cannot consume an IndexLookup")
        if not join_pids:
            raise OptimizerError("join requires at least one join predicate")
        self.algo = algo
        self.left = left
        self.right = right
        self.join_pids = tuple(sorted(join_pids))
        self.children = (left, right)

    def signature(self):
        label = _ALGO_LABEL[self.algo]
        return f"{label}({self.left.signature()},{self.right.signature()})"

    @property
    def local_pids(self):
        # An INL join also evaluates the inner side's residual filters
        # (per-lookup); IndexLookup itself reports none — see its docs.
        if self.algo == "inl":
            inner: IndexLookup = self.right  # type: ignore[assignment]
            return frozenset(self.join_pids) | frozenset(inner.filter_pids)
        return frozenset(self.join_pids)

    def tables(self):
        return self.left.tables() | self.right.tables()

    def _estimate(self, ctx):
        model = ctx.cost_model
        join_sel = ctx.product(self.join_pids)
        left = self.left.estimate(ctx)

        if self.algo == "inl":
            inner: IndexLookup = self.right  # type: ignore[assignment]
            table = ctx.schema.table(inner.table)
            matched_per_outer = join_sel * table.row_count
            residual_sel = ctx.product(inner.filter_pids)
            rows_out = left.rows * matched_per_outer * residual_sel
            per_lookup = model.random_page_cost  # B-tree descent to leaf
            per_match = (
                model.cpu_index_tuple_cost
                + model.random_page_cost  # heap fetch
                + model.cpu_tuple_cost
                + len(inner.filter_pids) * model.cpu_operator_cost
            )
            # Binary + first (see Aggregate): never ``+=`` onto the
            # memoized child cost, which may be a shared slab array.
            cost = left.cost + left.rows * per_lookup
            cost += left.rows * matched_per_outer * per_match
            cost += rows_out * model.cpu_tuple_cost
            return NodeEstimate(rows=rows_out, cost=cost)

        right = self.right.estimate(ctx)
        rows_out = join_sel * left.rows * right.rows
        if self.algo == "hash":
            cost = left.cost + right.cost
            cost += right.rows * model.hash_tuple_cost  # build
            cost += left.rows * model.hash_tuple_cost  # probe
            cost += rows_out * model.cpu_tuple_cost
        elif self.algo == "merge":
            cost = left.cost + right.cost
            cost += model.sort_cost(left.rows) + model.sort_cost(right.rows)
            cost += (left.rows + right.rows) * model.cpu_operator_cost
            cost += rows_out * model.cpu_tuple_cost
        elif self.algo == "nl":
            cost = left.cost + right.cost
            cost += right.rows * model.cpu_tuple_cost  # materialize inner
            cost += left.rows * right.rows * model.cpu_operator_cost
            cost += rows_out * model.cpu_tuple_cost
        else:  # pragma: no cover - guarded in __init__
            raise OptimizerError(f"unhandled join algorithm {self.algo!r}")
        return NodeEstimate(rows=rows_out, cost=cost)


# ---------------------------------------------------------------------------
# Plan-level helpers
# ---------------------------------------------------------------------------


def cost_plan(
    plan: PlanNode,
    schema: Schema,
    cost_model: CostModel,
    assignment: Mapping[str, float],
) -> NodeEstimate:
    """Cost a complete plan at one selectivity assignment."""
    ctx = CostContext(schema, cost_model, assignment)
    return plan.estimate(ctx)


def first_error_node(
    plan: PlanNode, error_pids: FrozenSet[str]
) -> Optional[PlanNode]:
    """First node in execution (post-) order that evaluates an error pid.

    Its subtree is error-free below it, so its output tuple count yields an
    exact lower bound for the error selectivities evaluated at the node —
    the basis of the selectivity-monitoring machinery of §5.2.
    """
    for node in plan.postorder():
        if node.local_pids & error_pids:
            return node
    return None


def error_node_depth(plan: PlanNode, error_pids: FrozenSet[str]) -> int:
    """Depth (from the root, root=0) of the deepest error-prone node.

    Used by the AxisPlans heuristic: deeper error nodes mean less budget is
    wasted on error-free upstream work.  Returns -1 if no error node.
    """
    best = -1

    def walk(node: PlanNode, depth: int):
        nonlocal best
        if node.local_pids & error_pids:
            best = max(best, depth)
        for child in node.children:
            walk(child, depth + 1)

    walk(plan, 0)
    return best


def spilled_cost(
    plan: PlanNode,
    schema: Schema,
    cost_model: CostModel,
    assignment: Mapping[str, float],
    error_pids: FrozenSet[str],
) -> Tuple[float, FrozenSet[str]]:
    """Cost of the *spilled* execution of ``plan`` (§5.3).

    The pipeline is broken immediately after the first error-prone node and
    its output discarded, so only that node's subtree is executed.  Returns
    ``(cost, learned_pids)`` where ``learned_pids`` are the error pids whose
    selectivities the spilled run measures.  Falls back to the full plan
    cost when the plan has no error-prone node.
    """
    node = first_error_node(plan, error_pids)
    if node is None:
        est = cost_plan(plan, schema, cost_model, assignment)
        return est.cost, frozenset()
    ctx = CostContext(schema, cost_model, assignment)
    est = node.estimate(ctx)
    return est.cost, node.local_pids & error_pids


def plan_tables_in_order(plan: PlanNode) -> List[str]:
    """Base tables in execution order (for display)."""
    tables: List[str] = []
    for node in plan.postorder():
        if isinstance(node, (SeqScan, IndexScan, IndexLookup)):
            tables.append(node.table)
    return tables
