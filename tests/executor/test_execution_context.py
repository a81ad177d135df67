"""The per-database execution context: sorted columns and join
selectivities are built once per database, shared by every engine, and
dropped when the data is invalidated."""

import gc
import pickle
import sys
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.api import BouquetConfig, Catalog, compile_bouquet, execute
from repro.catalog import tpch_generator_spec, tpch_schema
from repro.core import BouquetRunner
from repro.datagen import Database
from repro.datagen.database import ExecutionContext
from repro.executor import ExecutionEngine, RealExecutionService
from repro.executor.reference import reference_row_count
from repro.optimizer.plans import IndexScan
from repro.query import parse_query

SCALE = 0.002
SEED = 42  # the seed of the ``lab`` fixture's TPC-H database


def fresh_database():
    return Database.generate(tpch_schema(SCALE), tpch_generator_spec(SCALE), seed=SEED)


def counters(plan, inst):
    """Per-node (signature, tuples out, cost, finished), in plan order."""
    return [
        (node.signature(), c.tuples_out, c.cost, c.finished)
        for node in plan.postorder()
        for c in [inst.counters(node)]
    ]


class TestSortedColumn:
    def test_matches_a_stable_argsort_and_is_built_once(self):
        database = fresh_database()
        keys = database.context.sorted_column("lineitem", "l_partkey")
        column = database.column("lineitem", "l_partkey")
        order = np.argsort(column, kind="stable")
        assert np.array_equal(keys.order, order)
        assert np.array_equal(keys.values, column[order])
        assert not keys.unique
        assert database.context.sorted_column("lineitem", "l_partkey") is keys
        assert not keys.values.flags.writeable and not keys.order.flags.writeable
        assert database.context.sorted_column("orders", "o_orderkey").unique

    def test_engines_share_the_database_context(self):
        database = fresh_database()
        query = parse_query("select * from part where p_size < 10", database.schema)
        plan = IndexScan("part", query.selections[0].pid)
        ExecutionEngine(database).execute(query, plan)
        keys = database.context.sorted_column("part", "p_size")
        ExecutionEngine(database, batch_size=64).execute(query, plan)
        assert database.context.sorted_column("part", "p_size") is keys

    def test_dropped_database_is_freed_without_the_cycle_collector(self):
        database = fresh_database()
        database.context.sorted_column("part", "p_size")
        database.actual_join_selectivity("lineitem", "l_partkey", "part", "p_partkey")
        ref = weakref.ref(database)
        gc.disable()
        try:
            del database
            assert ref() is None
        finally:
            gc.enable()

    def test_pickle_rebuilds_the_context(self):
        database = fresh_database()
        database.context.sorted_column("part", "p_size")
        clone = pickle.loads(pickle.dumps(database))
        assert clone.context is not database.context
        assert clone.context._entries == {}
        assert clone.fingerprint() == database.fingerprint()
        assert clone.actual_join_selectivity(
            "lineitem", "l_partkey", "part", "p_partkey"
        ) == database.actual_join_selectivity("lineitem", "l_partkey", "part", "p_partkey")


class TestInvalidation:
    def test_index_scan_sees_mutated_data(self):
        database = fresh_database()
        query = parse_query("select * from part where p_size < 10", database.schema)
        plan = IndexScan("part", query.selections[0].pid)
        column = database.column("part", "p_size")
        before = ExecutionEngine(database).execute(query, plan).rows
        assert before == int((column < 10).sum()) > 0
        column[:] = 50  # in place: no row passes any more
        database.invalidate_fingerprint()
        assert ExecutionEngine(database).execute(query, plan).rows == 0

    def test_join_selectivity_sees_mutated_data(self):
        database = fresh_database()
        args = ("lineitem", "l_partkey", "part", "p_partkey")
        assert database.actual_join_selectivity(*args) > 0
        database.column("part", "p_partkey")[:] += 10**9  # no key matches now
        database.invalidate_fingerprint()
        assert database.actual_join_selectivity(*args) == 0.0


class TestBitIdentity:
    @pytest.mark.parametrize("name", ["2D_H_Q8a", "3D_H_Q5"])
    def test_cold_warm_and_fresh_contexts_agree(self, lab, name):
        ql = lab.build(name)
        query = ql.workload.query
        database = fresh_database()
        assert database.fingerprint() == lab.h_db.fingerprint()
        worlds = [database, database, fresh_database()]  # cold, warm, fresh
        expected_rows = reference_row_count(database, query)

        accounts = []
        for world in worlds:
            engine = ExecutionEngine(world)
            plans = []
            for plan_id in ql.bouquet.plan_ids:
                plan = ql.bouquet.registry.plan(plan_id)
                result = engine.execute(query, plan, collect=True)
                assert result.completed and result.rows == expected_rows
                batch = result.result
                plans.append(
                    (
                        result.spent,
                        counters(plan, result.instrumentation),
                        {k: (v.dtype, v.tobytes()) for k, v in batch.items()},
                    )
                )
            run = BouquetRunner(
                ql.bouquet, RealExecutionService(ql.bouquet, ExecutionEngine(world))
            ).run()
            accounts.append(
                (plans, run.total_cost, run.executions, run.result_rows)
            )
        assert accounts[0] == accounts[1] == accounts[2]


class TestConcurrentExecute:
    def test_four_threads_one_argsort_per_column(self, monkeypatch, schema, statistics, database):
        sql = (
            "select * from lineitem, orders, part where p_partkey = l_partkey "
            "and l_orderkey = o_orderkey and p_retailprice < 1000"
        )
        catalog = Catalog(schema=schema, statistics=statistics, database=database)
        compiled = compile_bouquet(sql, catalog, config=BouquetConfig(resolution=16))
        data = Database.generate(schema, tpch_generator_spec(0.003), seed=7)

        builds = Counter()
        lock = threading.Lock()
        original = ExecutionContext._sort

        def counting_sort(self, table, column):
            with lock:
                builds[table, column] += 1
            time.sleep(0.005)  # widen the window for a racing second build
            return original(self, table, column)

        monkeypatch.setattr(ExecutionContext, "_sort", counting_sort)
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(i):
            barrier.wait(timeout=60)
            results[i] = execute(compiled, data)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        serial = execute(compiled, data)
        assert serial.completed
        for result in results:
            assert result.total_cost == serial.total_cost
            assert result.executions == serial.executions
            assert result.result_rows == serial.result_rows
        assert builds and set(builds.values()) == {1}
