"""Rebinding compiled bouquets: bit-for-bit equivalence with a fresh
compile across random wlgen instances, and the loud fallback paths."""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import BouquetConfig, Catalog, compile_bouquet
from repro.drift import bouquets_equal, perturb_statistics
from repro.exceptions import TemplateError
from repro.query import Query, SelectionPredicate
from repro.template import rebind_compiled, template_signature

INDICES = st.integers(min_value=0, max_value=40)
BINDINGS = st.integers(min_value=1, max_value=5)


class TestRebindEquivalence:
    @given(index=INDICES, binding=BINDINGS)
    @settings(max_examples=8, deadline=None)
    def test_rebind_matches_fresh_compile_bit_for_bit(
        self, catalog, templated_generator, small_config, index, binding
    ):
        exemplar = templated_generator.instantiate(7, index, 0).query
        instance = templated_generator.instantiate(7, index, binding).query
        assume(len(exemplar.selections) >= 1)

        compiled = compile_bouquet(exemplar, catalog, config=small_config)
        sig = template_signature(
            exemplar, catalog.schema, catalog.statistics
        )
        outcome = rebind_compiled(compiled, sig, instance, catalog)
        reference = compile_bouquet(instance, catalog, config=small_config)
        assert bouquets_equal(outcome.compiled.bouquet, reference.bouquet) == []

    @given(index=INDICES, binding=BINDINGS)
    @settings(max_examples=6, deadline=None)
    def test_range_only_instances_rebind_without_optimizer_work(
        self, catalog, templated_generator, small_config, index, binding
    ):
        """Constants moving only on error-dimension pids take the
        identity path: zero ESS locations planned."""
        exemplar = templated_generator.instantiate(7, index, 0).query
        instance = templated_generator.instantiate(7, index, binding).query
        assume(len(exemplar.selections) >= 1)

        compiled = compile_bouquet(exemplar, catalog, config=small_config)
        sig = template_signature(exemplar, catalog.schema, catalog.statistics)
        outcome = rebind_compiled(compiled, sig, instance, catalog)
        assert outcome.strategy == "identity"
        assert outcome.planned_locations == 0


@pytest.fixture
def etl_template(schema, statistics, templated_generator, small_config):
    """A template compiled in the ETL regime (statistics, no database):
    the base assignment is *estimated*, so statistics drift genuinely
    moves the rebind's compile inputs."""
    catalog = Catalog(schema, statistics=statistics)
    exemplar = templated_generator.instantiate(7, 0, 0).query
    instance = templated_generator.instantiate(7, 0, 1).query
    compiled = compile_bouquet(exemplar, catalog, config=small_config)
    sig = template_signature(exemplar, schema, statistics)
    return catalog, compiled, sig, instance


class TestFallbackPaths:
    def test_drifted_statistics_force_divergence(
        self, schema, statistics, etl_template
    ):
        """Under drifted statistics the re-costed contours diverge from
        the DP optimum; with zero tolerance the rebind must refuse."""
        _, compiled, sig, instance = etl_template
        drifted = perturb_statistics(
            statistics, "part", "p_partkey", distinct_scale=0.02
        )
        with pytest.raises(TemplateError) as excinfo:
            rebind_compiled(
                compiled,
                sig,
                instance,
                Catalog(schema, statistics=drifted),
                max_probe_divergence=0.0,
                max_suspect_fraction=0.0,
            )
        assert excinfo.value.reason == "divergence"

    def test_tolerated_drift_repairs_through_the_delta_path(
        self, schema, statistics, etl_template
    ):
        """The same drift under default tolerances is *repaired*: the
        delta path re-plans the suspect locations instead of bailing."""
        _, compiled, sig, instance = etl_template
        drifted = perturb_statistics(
            statistics, "part", "p_partkey", distinct_scale=0.02
        )
        outcome = rebind_compiled(
            compiled, sig, instance, Catalog(schema, statistics=drifted)
        )
        assert outcome.strategy == "delta"
        assert 0 < outcome.planned_locations < outcome.total_locations

    def test_non_instance_query_is_rejected(
        self, catalog, schema, templated_generator, small_config
    ):
        exemplar = templated_generator.instantiate(7, 0, 0).query
        compiled = compile_bouquet(exemplar, catalog, config=small_config)
        sig = template_signature(exemplar, catalog.schema, catalog.statistics)
        other = Query(
            "other-shape",
            schema,
            ["part"],
            selections=[SelectionPredicate("part", "p_retailprice", "<", 500.0)],
        )
        with pytest.raises(TemplateError) as excinfo:
            rebind_compiled(compiled, sig, other, catalog)
        assert excinfo.value.reason == "template-mismatch"


class TestFieldReuse:
    def test_delta_rebind_builds_each_field_once(
        self, monkeypatch, schema, statistics, etl_template
    ):
        """The delta path builds each candidate's cost field once, in its
        own passes; the final cache takes those fields over, so the
        bouquet identification builds none."""
        import numpy as np

        import repro.drift.refresh as refresh_module
        import repro.ess.diagram as diagram_module

        _, compiled, sig, instance = etl_template
        drifted = perturb_statistics(
            statistics, "part", "p_partkey", distinct_scale=0.02
        )
        builds = []
        inside = {"identify": False}
        real_cost_plan = diagram_module.cost_plan
        real_identify = refresh_module.identify_bouquet

        def counting_cost_plan(plan, schema, cost_model, assignment):
            if any(isinstance(value, np.ndarray) for value in assignment.values()):
                builds.append((plan.canonical_signature(), inside["identify"]))
            return real_cost_plan(plan, schema, cost_model, assignment)

        def tracking_identify(*args, **kwargs):
            inside["identify"] = True
            try:
                return real_identify(*args, **kwargs)
            finally:
                inside["identify"] = False

        monkeypatch.setattr(diagram_module, "cost_plan", counting_cost_plan)
        monkeypatch.setattr(refresh_module, "identify_bouquet", tracking_identify)
        outcome = rebind_compiled(
            compiled, sig, instance, Catalog(schema, statistics=drifted)
        )
        assert outcome.strategy == "delta"
        signatures = [signature for signature, _ in builds]
        assert signatures
        assert len(signatures) == len(set(signatures))
        assert not any(during for _, during in builds)

