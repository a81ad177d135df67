"""BouquetServer.warm_sweep: pre-sweeping optimized cost fields onto
cached compile artifacts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import MemorySink, Tracer
from repro.serve import BouquetServer

SQL = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000"
)


@pytest.fixture
def tracer():
    return Tracer(MemorySink())


@pytest.fixture
def server(catalog, small_config, tracer):
    with BouquetServer(catalog, config=small_config, tracer=tracer) as srv:
        yield srv


def test_warm_sweep_returns_field_and_counts(server, tracer):
    field = server.warm_sweep(SQL)
    compiled, source = server.compile(SQL)
    assert source == "memory"
    assert field.shape == compiled.bouquet.space.shape
    assert (field > 0).all()
    stats = server.stats()
    assert stats["counters"]["serve.warm_sweeps"] == 1
    assert any(
        s["name"] == "serve.warm_sweep" for s in tracer.sink.spans()
    )


def test_warm_sweep_memoizes_on_the_artifact(server):
    first = server.warm_sweep(SQL)
    compiled, _ = server.compile(SQL)
    cache = compiled.bouquet._sweep_cache
    costings = cache.coster.batched_costings
    second = server.warm_sweep(SQL)
    assert np.array_equal(first, second)
    # Second warm-up is answered from the totals memo: no new costings.
    assert cache.coster.batched_costings == costings


def test_warm_sweep_matches_reference(server):
    from repro.core.simulation import optimized_cost_field

    field = server.warm_sweep(SQL)
    compiled, _ = server.compile(SQL)
    ref = optimized_cost_field(compiled.bouquet, engine="reference")
    for loc, total in ref.items():
        assert field[loc] == pytest.approx(total, rel=1e-9)


def test_warm_sweep_runs_under_the_artifacts_knobs(catalog):
    """The warm-swept field is what api.simulate charges on the same
    artifact, including the (1+δ) budget inflation."""
    from repro.api import BouquetConfig, simulate

    sql = SQL + " and o_totalprice < 20000"
    config = BouquetConfig(resolution=8, model_error_delta=0.3)
    with BouquetServer(catalog, config=config) as server:
        field = server.warm_sweep(sql)
        compiled, _ = server.compile(sql)
    space = compiled.bouquet.space
    for loc in space.locations():
        ref = simulate(compiled, space.selectivities_at(loc)).total_cost
        assert field[loc] == pytest.approx(ref, rel=1e-9)
