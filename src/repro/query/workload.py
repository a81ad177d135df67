"""The paper's query workload (Table 2) plus the special instances.

Queries are structurally faithful SPJ skeletons of the cited TPC-H /
TPC-DS queries: same join-graph geometry (chain/star/branch), same
relation counts, and the same number of error-prone (join) selectivity
dimensions.  Naming follows the paper: ``xD_y_Qz`` = x error dimensions,
benchmark y (H or DS), query z.

Extra instances: ``EQ`` (the running 1D example of Figures 1-4),
``2D_H_Q8a`` (the Table 3 run-time experiment) and ``3D_H_Q5b`` /
``4D_H_Q8b`` (selection-dimension variants for the commercial-engine
experiment of §6.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..catalog.schema import Schema
from ..ess.space import ErrorDimension
from ..exceptions import QueryError
from .predicates import JoinPredicate, SelectionPredicate
from .query import Query

#: Default selectivity range (in decades below the legal maximum) for
#: error-prone join dimensions.
JOIN_DIM_DECADES = 3.0

#: Default range for error-prone selection dimensions.
SELECTION_DIM_RANGE = (1e-4, 1.0)


@dataclass
class WorkloadQuery:
    """A benchmark query plus its error-dimension specification."""

    name: str
    query: Query
    dim_pids: List[str]
    expected_geometry: str

    def __post_init__(self):
        actual = self.query.join_graph.describe()
        if actual != self.expected_geometry:
            raise QueryError(
                f"{self.name}: join graph is {actual}, expected {self.expected_geometry}"
            )
        for pid in self.dim_pids:
            self.query.predicate(pid)

    @property
    def dimensionality(self) -> int:
        return len(self.dim_pids)

    def dimensions(self, decades: float = JOIN_DIM_DECADES) -> List[ErrorDimension]:
        """Error dimensions with schematically-legal selectivity ranges.

        For a PK-FK join the maximum legal selectivity is the reciprocal
        of the PK relation's cardinality (§4.1); the range spans
        ``decades`` orders of magnitude below that.  Selection dimensions
        span :data:`SELECTION_DIM_RANGE`.
        """
        dims = []
        schema = self.query.schema
        for pid in self.dim_pids:
            pred = self.query.predicate(pid)
            if isinstance(pred, JoinPredicate):
                hi = join_dim_maximum(schema, pred)
                lo = hi / (10.0 ** decades)
                label = f"{pred.left_table}x{pred.right_table}"
            else:
                lo, hi = SELECTION_DIM_RANGE
                label = f"{pred.table}.{pred.column}"
            dims.append(ErrorDimension(pid=pid, lo=lo, hi=hi, label=label))
        return dims


def join_dim_maximum(schema: Schema, pred: JoinPredicate) -> float:
    """Legal maximum join selectivity: 1/|PK relation| for FK joins."""
    fk = schema.foreign_key_between(
        pred.left_table, pred.left_column, pred.right_table, pred.right_column
    )
    if fk is not None:
        return 1.0 / schema.table(fk.parent_table).row_count
    # Non-FK equi-join: bound by the smaller side's cardinality.
    smaller = min(
        schema.table(pred.left_table).row_count,
        schema.table(pred.right_table).row_count,
    )
    return 1.0 / smaller


# ---------------------------------------------------------------------------
# TPC-H workload
# ---------------------------------------------------------------------------


def example_query(schema: Schema) -> WorkloadQuery:
    """EQ — the paper's running example (Figure 1): orders of cheap parts.

    One error-prone dimension: the p_retailprice selection predicate.
    """
    query = Query(
        "EQ",
        schema,
        ["lineitem", "orders", "part"],
        selections=[SelectionPredicate("part", "p_retailprice", "<", 1000.0)],
        joins=[
            JoinPredicate("part", "p_partkey", "lineitem", "l_partkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ],
    )
    return WorkloadQuery(
        name="EQ",
        query=query,
        dim_pids=[query.selections[0].pid],
        expected_geometry="chain(3)",
    )


def _h_q5(schema: Schema) -> Query:
    """Chain(6): region—nation—customer—orders—lineitem—supplier."""
    return Query(
        "H_Q5",
        schema,
        ["region", "nation", "customer", "orders", "lineitem", "supplier"],
        selections=[SelectionPredicate("region", "r_regionkey", "<=", 3.0)],
        joins=[
            JoinPredicate("nation", "n_regionkey", "region", "r_regionkey"),
            JoinPredicate("customer", "c_nationkey", "nation", "n_nationkey"),
            JoinPredicate("orders", "o_custkey", "customer", "c_custkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
            JoinPredicate("lineitem", "l_suppkey", "supplier", "s_suppkey"),
        ],
    )


def _h_q7(schema: Schema) -> Query:
    """Chain(6): region—nation—supplier—lineitem—orders—customer."""
    return Query(
        "H_Q7",
        schema,
        ["region", "nation", "supplier", "lineitem", "orders", "customer"],
        selections=[SelectionPredicate("supplier", "s_acctbal", ">", 0.0)],
        joins=[
            JoinPredicate("nation", "n_regionkey", "region", "r_regionkey"),
            JoinPredicate("supplier", "s_nationkey", "nation", "n_nationkey"),
            JoinPredicate("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
            JoinPredicate("orders", "o_custkey", "customer", "c_custkey"),
        ],
    )


def _h_q8(schema: Schema) -> Query:
    """Branch(8): partsupp—part—lineitem—{supplier, orders—customer—nation—region}."""
    return Query(
        "H_Q8",
        schema,
        [
            "partsupp",
            "part",
            "lineitem",
            "supplier",
            "orders",
            "customer",
            "nation",
            "region",
        ],
        selections=[SelectionPredicate("part", "p_size", "<", 20.0)],
        joins=[
            JoinPredicate("partsupp", "ps_partkey", "part", "p_partkey"),
            JoinPredicate("lineitem", "l_partkey", "part", "p_partkey"),
            JoinPredicate("lineitem", "l_suppkey", "supplier", "s_suppkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
            JoinPredicate("orders", "o_custkey", "customer", "c_custkey"),
            JoinPredicate("customer", "c_nationkey", "nation", "n_nationkey"),
            JoinPredicate("nation", "n_regionkey", "region", "r_regionkey"),
        ],
    )


def _h_q8a(schema: Schema) -> Query:
    """The 2D run-time instance of §6.7: part—lineitem—orders.

    The two error dimensions are selection selectivities whose actual
    values land near the paper's qa = (33.7%, 45.6%): p_retailprice is
    uniform on [900, 2100] so ``< 1300`` selects ≈33.3%, and o_totalprice
    is uniform on [800, 500000] so ``< 228000`` selects ≈45.5%.
    """
    return Query(
        "H_Q8a",
        schema,
        ["part", "lineitem", "orders"],
        selections=[
            SelectionPredicate("part", "p_retailprice", "<", 1300.0),
            SelectionPredicate("orders", "o_totalprice", "<", 228000.0),
        ],
        joins=[
            JoinPredicate("lineitem", "l_partkey", "part", "p_partkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ],
    )


def tpch_workload(schema: Schema) -> Dict[str, WorkloadQuery]:
    """The TPC-H side of Table 2 (plus EQ and 2D_H_Q8a)."""
    q5 = _h_q5(schema)
    q7 = _h_q7(schema)
    q8 = _h_q8(schema)
    q8a = _h_q8a(schema)

    def jpid(query: Query, left: str, right: str) -> str:
        for join in query.joins:
            if set(join.tables) == {left, right}:
                return join.pid
        raise QueryError(f"no join between {left} and {right} in {query.name}")

    workload = {
        "EQ": example_query(schema),
        "3D_H_Q5": WorkloadQuery(
            "3D_H_Q5",
            _rename(q5, "3D_H_Q5"),
            [
                jpid(q5, "customer", "nation"),
                jpid(q5, "orders", "customer"),
                jpid(q5, "lineitem", "orders"),
            ],
            "chain(6)",
        ),
        "3D_H_Q7": WorkloadQuery(
            "3D_H_Q7",
            _rename(q7, "3D_H_Q7"),
            [
                jpid(q7, "supplier", "nation"),
                jpid(q7, "lineitem", "supplier"),
                jpid(q7, "orders", "customer"),
            ],
            "chain(6)",
        ),
        "4D_H_Q8": WorkloadQuery(
            "4D_H_Q8",
            _rename(q8, "4D_H_Q8"),
            [
                jpid(q8, "lineitem", "part"),
                jpid(q8, "lineitem", "supplier"),
                jpid(q8, "lineitem", "orders"),
                jpid(q8, "orders", "customer"),
            ],
            "branch(8)",
        ),
        "5D_H_Q7": WorkloadQuery(
            "5D_H_Q7",
            _rename(q7, "5D_H_Q7"),
            [join.pid for join in q7.joins],
            "chain(6)",
        ),
        "2D_H_Q8a": WorkloadQuery(
            "2D_H_Q8a",
            _rename(q8a, "2D_H_Q8a"),
            [sel.pid for sel in q8a.selections],
            "chain(3)",
        ),
    }
    # Selection-dimension variants (dims are the selections themselves),
    # used for the commercial-engine experiment where selectivities can
    # only be steered via query constants (§6.8).
    q5b, q8b = _h_q5b(schema), _h_q8b(schema)
    workload["3D_H_Q5b"] = WorkloadQuery(
        "3D_H_Q5b", q5b, [sel.pid for sel in q5b.selections], "chain(3)"
    )
    workload["4D_H_Q8b"] = WorkloadQuery(
        "4D_H_Q8b", q8b, [sel.pid for sel in q8b.selections], "chain(4)"
    )
    return workload


def _h_q5b(schema: Schema) -> Query:
    """COM-experiment variant: 3 selection dims on base relations."""
    return Query(
        "3D_H_Q5b",
        schema,
        ["customer", "orders", "lineitem"],
        selections=[
            SelectionPredicate("customer", "c_acctbal", ">", 0.0),
            SelectionPredicate("orders", "o_totalprice", "<", 100000.0),
            SelectionPredicate("lineitem", "l_quantity", "<", 25.0),
        ],
        joins=[
            JoinPredicate("orders", "o_custkey", "customer", "c_custkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ],
    )


def _h_q8b(schema: Schema) -> Query:
    """COM-experiment variant: 4 selection dims on base relations."""
    return Query(
        "4D_H_Q8b",
        schema,
        ["part", "lineitem", "orders", "customer"],
        selections=[
            SelectionPredicate("part", "p_retailprice", "<", 1500.0),
            SelectionPredicate("lineitem", "l_quantity", "<", 30.0),
            SelectionPredicate("orders", "o_totalprice", "<", 200000.0),
            SelectionPredicate("customer", "c_acctbal", ">", -500.0),
        ],
        joins=[
            JoinPredicate("lineitem", "l_partkey", "part", "p_partkey"),
            JoinPredicate("lineitem", "l_orderkey", "orders", "o_orderkey"),
            JoinPredicate("orders", "o_custkey", "customer", "c_custkey"),
        ],
    )


def _rename(query: Query, name: str) -> Query:
    """Clone a query under a workload-specific name."""
    return Query(
        name,
        query.schema,
        query.tables,
        selections=query.selections,
        joins=query.joins,
    )


# ---------------------------------------------------------------------------
# TPC-DS workload
# ---------------------------------------------------------------------------


def _ds_q15(schema: Schema) -> Query:
    """Chain(4): date_dim—catalog_sales—customer—customer_address."""
    return Query(
        "DS_Q15",
        schema,
        ["date_dim", "catalog_sales", "customer", "customer_address"],
        selections=[SelectionPredicate("date_dim", "d_year", "<=", 2000.0)],
        joins=[
            JoinPredicate("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk"),
            JoinPredicate("catalog_sales", "cs_bill_customer_sk", "customer", "c_customer_sk"),
            JoinPredicate("customer", "c_current_addr_sk", "customer_address", "ca_address_sk"),
        ],
    )


def _ds_q96(schema: Schema) -> Query:
    """Star(4): store_sales hub with date_dim, household_demographics, store."""
    return Query(
        "DS_Q96",
        schema,
        ["store_sales", "date_dim", "household_demographics", "store"],
        selections=[SelectionPredicate("household_demographics", "hd_dep_count", "<=", 3.0)],
        joins=[
            JoinPredicate("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
            JoinPredicate("store_sales", "ss_hdemo_sk", "household_demographics", "hd_demo_sk"),
            JoinPredicate("store_sales", "ss_store_sk", "store", "s_store_sk"),
        ],
    )


def _ds_q7(schema: Schema) -> Query:
    """Star(5): store_sales hub with item, customer_demographics, date_dim, promotion."""
    return Query(
        "DS_Q7",
        schema,
        ["store_sales", "item", "customer_demographics", "date_dim", "promotion"],
        selections=[SelectionPredicate("customer_demographics", "cd_marital_status", "<=", 2.0)],
        joins=[
            JoinPredicate("store_sales", "ss_item_sk", "item", "i_item_sk"),
            JoinPredicate("store_sales", "ss_cdemo_sk", "customer_demographics", "cd_demo_sk"),
            JoinPredicate("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
            JoinPredicate("store_sales", "ss_promo_sk", "promotion", "p_promo_sk"),
        ],
    )


def _ds_q19(schema: Schema) -> Query:
    """Branch(6): store_sales hub + customer—customer_address spur."""
    return Query(
        "DS_Q19",
        schema,
        ["store_sales", "date_dim", "item", "customer", "customer_address", "store"],
        selections=[SelectionPredicate("item", "i_current_price", "<", 50.0)],
        joins=[
            JoinPredicate("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
            JoinPredicate("store_sales", "ss_item_sk", "item", "i_item_sk"),
            JoinPredicate("store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
            JoinPredicate("customer", "c_current_addr_sk", "customer_address", "ca_address_sk"),
            JoinPredicate("store_sales", "ss_store_sk", "store", "s_store_sk"),
        ],
    )


def _ds_q26(schema: Schema) -> Query:
    """Star(5): catalog_sales hub with item, customer_demographics, date_dim, promotion."""
    return Query(
        "DS_Q26",
        schema,
        ["catalog_sales", "item", "customer_demographics", "date_dim", "promotion"],
        selections=[SelectionPredicate("customer_demographics", "cd_education_status", "<=", 3.0)],
        joins=[
            JoinPredicate("catalog_sales", "cs_item_sk", "item", "i_item_sk"),
            JoinPredicate("catalog_sales", "cs_bill_cdemo_sk", "customer_demographics", "cd_demo_sk"),
            JoinPredicate("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk"),
            JoinPredicate("catalog_sales", "cs_promo_sk", "promotion", "p_promo_sk"),
        ],
    )


def _ds_q91(schema: Schema) -> Query:
    """Branch(7): catalog_sales and customer both branch."""
    return Query(
        "DS_Q91",
        schema,
        [
            "catalog_sales",
            "call_center",
            "date_dim",
            "customer",
            "customer_address",
            "customer_demographics",
            "household_demographics",
        ],
        selections=[SelectionPredicate("call_center", "cc_employees", ">", 200.0)],
        joins=[
            JoinPredicate("catalog_sales", "cs_call_center_sk", "call_center", "cc_call_center_sk"),
            JoinPredicate("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk"),
            JoinPredicate("catalog_sales", "cs_bill_customer_sk", "customer", "c_customer_sk"),
            JoinPredicate("customer", "c_current_addr_sk", "customer_address", "ca_address_sk"),
            JoinPredicate("customer", "c_current_cdemo_sk", "customer_demographics", "cd_demo_sk"),
            JoinPredicate("customer", "c_current_hdemo_sk", "household_demographics", "hd_demo_sk"),
        ],
    )


def tpcds_workload(schema: Schema) -> Dict[str, WorkloadQuery]:
    """The TPC-DS side of Table 2."""
    q15, q96, q7 = _ds_q15(schema), _ds_q96(schema), _ds_q7(schema)
    q19, q26, q91 = _ds_q19(schema), _ds_q26(schema), _ds_q91(schema)

    def jpid(query: Query, left: str, right: str) -> str:
        for join in query.joins:
            if set(join.tables) == {left, right}:
                return join.pid
        raise QueryError(f"no join between {left} and {right} in {query.name}")

    return {
        "3D_DS_Q15": WorkloadQuery(
            "3D_DS_Q15", _rename(q15, "3D_DS_Q15"), [j.pid for j in q15.joins], "chain(4)"
        ),
        "3D_DS_Q96": WorkloadQuery(
            "3D_DS_Q96", _rename(q96, "3D_DS_Q96"), [j.pid for j in q96.joins], "star(4)"
        ),
        "4D_DS_Q7": WorkloadQuery(
            "4D_DS_Q7", _rename(q7, "4D_DS_Q7"), [j.pid for j in q7.joins], "star(5)"
        ),
        "5D_DS_Q19": WorkloadQuery(
            "5D_DS_Q19", _rename(q19, "5D_DS_Q19"), [j.pid for j in q19.joins], "branch(6)"
        ),
        "4D_DS_Q26": WorkloadQuery(
            "4D_DS_Q26", _rename(q26, "4D_DS_Q26"), [j.pid for j in q26.joins], "star(5)"
        ),
        "4D_DS_Q91": WorkloadQuery(
            "4D_DS_Q91",
            _rename(q91, "4D_DS_Q91"),
            [
                jpid(q91, "catalog_sales", "customer"),
                jpid(q91, "customer", "customer_address"),
                jpid(q91, "customer", "customer_demographics"),
                jpid(q91, "catalog_sales", "date_dim"),
            ],
            "branch(7)",
        ),
    }


#: Names of the ten Table 2 benchmark spaces, in the paper's order.
TABLE2_NAMES = [
    "3D_H_Q5",
    "3D_H_Q7",
    "4D_H_Q8",
    "5D_H_Q7",
    "3D_DS_Q15",
    "3D_DS_Q96",
    "4D_DS_Q7",
    "5D_DS_Q19",
    "4D_DS_Q26",
    "4D_DS_Q91",
]


def full_workload(h_schema: Schema, ds_schema: Schema) -> Dict[str, WorkloadQuery]:
    """All Table 2 queries, keyed by their paper names."""
    workload: Dict[str, WorkloadQuery] = {}
    workload.update(tpch_workload(h_schema))
    workload.update(tpcds_workload(ds_schema))
    return workload
