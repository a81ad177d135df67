"""The sweep engine must be an exact, faster replica of the reference
per-location optimized driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulation import optimized_cost_field, simulate_at
from repro.core.runtime import BouquetRunner
from repro.sweep import SweepEngine, optimized_field_array, sweep_cost_field
from repro.sweep.memo import sweep_cache

RTOL = 1e-9


def _reference_field(bouquet):
    ref = optimized_cost_field(bouquet, engine="reference")
    shape = bouquet.space.shape
    out = np.empty(shape)
    for loc, total in ref.items():
        out[loc] = total
    return out


@pytest.fixture(scope="module")
def q3d(lab):
    return lab.build("3D_H_Q5")


@pytest.fixture(scope="module")
def campaign_bouquet():
    """W1000_8: a generated 3-dimension TPC-H campaign query whose sweep
    splits into many single-location cohorts."""
    from repro.api import BouquetConfig, compile_bouquet
    from repro.wlgen.campaign import (
        CAMPAIGN_RESOLUTIONS,
        CampaignConfig,
        build_env,
    )
    from repro.wlgen.dimensioning import dimension_query

    config = CampaignConfig(seed=1000)
    env = build_env(config)
    generated = env.generator.generate(config.seed, 8)
    dims = dimension_query(
        env.optimizer,
        generated.query,
        env.catalog.database,
        max_dims=config.max_dims,
        min_penalty=config.min_penalty,
        resolution=config.sensitivity_resolution,
    )
    assert len(dims.dimensions) == 3
    compiled = compile_bouquet(
        generated.query,
        env.catalog,
        config=BouquetConfig(
            ratio=config.ratio,
            lambda_=config.lambda_,
            resolution=CAMPAIGN_RESOLUTIONS[3],
        ),
        dimensions=dims.dimensions,
        base_assignment=dims.base_assignment,
        optimizer=env.optimizer,
    )
    return compiled.bouquet


class TestFieldEquality:
    def test_1d_matches_reference(self, eq_bouquet):
        field = SweepEngine(eq_bouquet).cost_field()
        np.testing.assert_allclose(
            field, _reference_field(eq_bouquet), rtol=RTOL, atol=0.0
        )

    def test_3d_matches_reference(self, q3d):
        field = SweepEngine(q3d.bouquet).cost_field()
        np.testing.assert_allclose(
            field, _reference_field(q3d.bouquet), rtol=RTOL, atol=0.0
        )

    def test_subset_locations_dict_contract(self, q3d):
        locations = [(0, 0, 0), (2, 4, 6), (6, 6, 6), (3, 1, 5)]
        swept = sweep_cost_field(q3d.bouquet, locations=locations)
        assert set(swept) == set(locations)
        for loc in locations:
            ref = simulate_at(q3d.bouquet, loc, mode="optimized").total_cost
            assert swept[loc] == pytest.approx(ref, rel=RTOL)

    def test_default_engine_is_sweep_and_matches_reference(self, q3d):
        swept = optimized_cost_field(q3d.bouquet)
        ref = optimized_cost_field(q3d.bouquet, engine="reference")
        assert set(swept) == set(ref)
        for loc, total in ref.items():
            assert swept[loc] == pytest.approx(total, rel=RTOL)

    def test_campaign_query_matches_simulate_at(self, campaign_bouquet):
        field = SweepEngine(campaign_bouquet).cost_field(refresh=True)
        for loc in campaign_bouquet.space.locations():
            ref = simulate_at(campaign_bouquet, loc).total_cost
            assert field[loc] == pytest.approx(ref, rel=RTOL)


class TestEngineMechanics:
    def test_totals_memo_short_circuits(self, q3d):
        engine = SweepEngine(q3d.bouquet)
        first = engine.cost_field()
        cache = sweep_cache(q3d.bouquet)
        costings_after_first = cache.coster.batched_costings
        second = engine.cost_field()
        assert np.array_equal(first, second)
        # The second sweep is answered from the totals memo: no new
        # batched costings at all.
        assert cache.coster.batched_costings == costings_after_first

    def test_refresh_invalidates_totals(self, q3d):
        engine = SweepEngine(q3d.bouquet)
        first = engine.cost_field()
        tables = engine.cache.tables_built
        second = engine.cost_field(refresh=True)
        # A refreshed sweep reuses the contour tables and replays the
        # same arithmetic, so the field comes back bit-identical.
        np.testing.assert_array_equal(first, second)
        assert engine.cache.tables_built == tables

    def test_sequential_sweep_never_runs_the_scalar_driver(
        self, q3d, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("sequential sweep constructed a BouquetRunner")

        monkeypatch.setattr(BouquetRunner, "__init__", forbidden)
        field = SweepEngine(q3d.bouquet).cost_field(refresh=True)
        assert (field > 0).all()

    def test_knobs_key_separate_memos(self, q3d):
        default = SweepEngine(q3d.bouquet).cost_field()
        inflated = SweepEngine(q3d.bouquet, model_error_delta=0.3).cost_field()
        assert not np.array_equal(default, inflated)
        loc = (3, 3, 3)
        ref = simulate_at(q3d.bouquet, loc, model_error_delta=0.3).total_cost
        assert inflated[loc] == pytest.approx(ref, rel=RTOL)
        np.testing.assert_array_equal(
            SweepEngine(q3d.bouquet).cost_field(), default
        )

    def test_crossing_knob_reaches_residue(self, q3d):
        field = SweepEngine(q3d.bouquet, crossing="concurrent").cost_field()
        loc = (3, 3, 3)
        ref = simulate_at(
            q3d.bouquet, loc, mode="optimized", crossing="concurrent"
        ).total_cost
        assert field[loc] == pytest.approx(ref, rel=RTOL)

    def test_crossing_memos_are_isolated(self, q3d):
        sequential = SweepEngine(q3d.bouquet).cost_field()
        concurrent = SweepEngine(q3d.bouquet, crossing="concurrent").cost_field()
        again = SweepEngine(q3d.bouquet).cost_field()
        np.testing.assert_array_equal(sequential, again)
        # Concurrent crossing reschedules executions, so the fields differ
        # somewhere (and must not leak into the sequential memo).
        assert not np.allclose(sequential, concurrent, rtol=1e-6)

    def test_array_entry_point_shape(self, q3d):
        field = optimized_field_array(q3d.bouquet)
        assert field.shape == q3d.space.shape
        assert (field > 0).all()


class TestPropertyEquality:
    """Hypothesis: engine totals == per-location simulate_at totals for
    arbitrary location samples."""

    @given(data=st.data(), dims=st.sampled_from([1, 3]))
    @settings(max_examples=10, deadline=None)
    def test_engine_matches_simulate_at(self, lab, eq_bouquet, data, dims):
        bouquet = eq_bouquet if dims == 1 else lab.build("3D_H_Q5").bouquet
        shape = bouquet.space.shape
        locations = data.draw(
            st.lists(
                st.tuples(
                    *(st.integers(min_value=0, max_value=r - 1) for r in shape)
                ),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        engine = SweepEngine(bouquet)
        engine.cache.invalidate()
        totals = engine.totals(locations)
        for loc, total in zip(locations, totals):
            ref = simulate_at(bouquet, loc, mode="optimized").total_cost
            assert total == pytest.approx(ref, rel=RTOL)
