"""DP-seeded cost fields: a cold compile builds no plan cost field.

The batch DP costs every top-level frontier plan over the whole grid on
its way to the per-location winners.  ``PlanDiagram.exhaustive`` keeps
those fields in the diagram's :class:`PlanCostCache`, so the anorexic
reduction (and everything downstream) reads them instead of re-costing
each POSP plan over a meshgrid.  These tests pin that no field is built
on a cold compile and that every seeded field is bit-identical to
``cost_plan`` over the ESS meshgrid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import BouquetConfig, Catalog, compile_bouquet
from repro.bench.compile import reference_diagram
from repro.catalog import tpcds_schema
from repro.ess import PlanDiagram, SelectivitySpace
from repro.ess.diagram import PlanCostCache
from repro.obs import MemorySink, Tracer
from repro.optimizer import Optimizer, actual_selectivities
from repro.optimizer.plans import cost_plan
from repro.query.workload import full_workload
from repro.wlgen import GeneratorConfig, QueryGenerator


@pytest.fixture(scope="module")
def catalog(schema, statistics, database):
    return Catalog(schema, statistics=statistics, database=database)


@pytest.fixture(scope="module")
def workload(schema):
    return full_workload(schema, tpcds_schema(0.002))


def meshgrid_field(diagram: PlanDiagram, plan_id: int) -> np.ndarray:
    """``cost_plan`` of one plan over the ESS meshgrid, built here."""
    space = diagram.space
    optimizer = diagram.cache.optimizer
    assignment = dict(space.base_assignment)
    meshes = np.meshgrid(*space.grids, indexing="ij")
    for dim, mesh in zip(space.dimensions, meshes):
        assignment[dim.pid] = mesh
    cost = cost_plan(
        diagram.registry.plan(plan_id),
        optimizer.schema,
        optimizer.cost_model,
        assignment,
    ).cost
    return np.broadcast_to(np.asarray(cost, dtype=float), space.shape)


def assert_cold_compile_builds_no_field(compiled, tracer):
    diagram = compiled.bouquet.diagram
    posp = diagram.posp_plan_ids
    assert tracer.counters.get("ess.cost_array_builds", 0) == 0
    # Every POSP plan's field was seeded by the DP, none built.
    assert len(diagram.cache) == len(posp)
    for plan_id in posp:
        held = diagram.cache.cost_array(plan_id)
        assert np.array_equal(held, meshgrid_field(diagram, plan_id))
    assert tracer.counters.get("ess.cost_array_builds", 0) == 0


class TestColdCompileSeedsFields:
    @pytest.mark.parametrize(
        "name, resolution", [("2D_H_Q8a", 12), ("3D_H_Q5", 7)]
    )
    def test_lab_queries(self, catalog, workload, name, resolution):
        entry = workload[name]
        tracer = Tracer(MemorySink())
        compiled = compile_bouquet(
            entry.query,
            catalog,
            config=BouquetConfig(resolution=resolution),
            dimensions=entry.dimensions(),
            tracer=tracer,
        )
        assert_cold_compile_builds_no_field(compiled, tracer)

    def test_generated_shapes(self, catalog, schema, database):
        generator = QueryGenerator(
            schema,
            database,
            GeneratorConfig(min_joins=2, max_joins=2, min_predicates=2, max_predicates=2),
        )
        for index in range(4):
            query = generator.instantiate(11, index, 0).query
            tracer = Tracer(MemorySink())
            compiled = compile_bouquet(
                query, catalog, config=BouquetConfig(resolution=10), tracer=tracer
            )
            assert_cold_compile_builds_no_field(compiled, tracer)


class TestExhaustiveMatchesReference:
    def test_3d_grid_byte_identical(self, schema, statistics, database, workload):
        """Plan ids (registration order included) and costs equal the
        scalar per-location oracle on a 3D grid; the oracle's built
        fields equal the DP-seeded ones."""
        entry = workload["3D_H_Q5"]
        base = actual_selectivities(entry.query, database)
        space = SelectivitySpace(entry.query, entry.dimensions(), 5, base)
        reference = reference_diagram(Optimizer(schema, statistics), space)
        batch = PlanDiagram.exhaustive(Optimizer(schema, statistics), space)
        assert np.array_equal(reference.plan_ids, batch.plan_ids)
        assert np.array_equal(reference.costs, batch.costs)
        for plan_id in batch.posp_plan_ids:
            assert np.array_equal(
                reference.cache.cost_array(plan_id), batch.cache.cost_array(plan_id)
            )


class TestSeededFieldsAreShared:
    def test_seed_keeps_an_existing_entry(self, eq_diagram):
        cache = eq_diagram.cache
        plan_id = eq_diagram.posp_plan_ids[0]
        held = cache.cost_array(plan_id)
        assert cache.seed(plan_id, np.zeros(eq_diagram.space.shape)) is held

    def test_seed_accepts_row_major_flat_fields(self, eq_diagram):
        base = eq_diagram.cache
        cache = PlanCostCache(base.space, base.optimizer, base.registry)
        plan_id = eq_diagram.posp_plan_ids[0]
        field = base.cost_array(plan_id)
        held = cache.seed(plan_id, field.ravel())
        assert held.shape == eq_diagram.space.shape
        assert np.array_equal(held, field)
        assert not held.flags.writeable
