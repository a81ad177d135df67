"""Serialization round-trip for compiled-bouquet artifacts on a seeded
2D ESS: the restored artifact must be observationally identical."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BouquetConfig, Catalog, CompiledBouquet, compile_bouquet, simulate
from repro.ess import ErrorDimension
from repro.exceptions import BouquetError

SQL_2D = (
    "select * from lineitem, orders, part "
    "where p_partkey = l_partkey and l_orderkey = o_orderkey "
    "and p_retailprice < 1000 and o_totalprice < 150000"
)
RES = 8


@pytest.fixture(scope="module")
def roundtrip(schema, statistics, database):
    catalog = Catalog(schema, statistics=statistics, database=database)
    config = BouquetConfig(resolution=RES)
    from repro.query import parse_query

    query = parse_query(SQL_2D, schema)
    dims = [
        ErrorDimension(pred.pid, 1e-4, 1.0, f"{pred.table}.{pred.column}")
        for pred in query.selections
    ]
    assert len(dims) == 2
    original = compile_bouquet(SQL_2D, catalog, config=config, dimensions=dims)
    assert original.space.dimensionality == 2
    restored = CompiledBouquet.from_dict(original.to_dict(), catalog)
    return catalog, original, restored


def test_envelope_and_config_survive(roundtrip):
    _, original, restored = roundtrip
    assert restored.sql == SQL_2D
    assert restored.config == original.config
    assert restored.mso_bound == pytest.approx(original.mso_bound)
    assert restored.bouquet.cardinality == original.bouquet.cardinality
    assert sorted(restored.bouquet.plan_ids) == sorted(original.bouquet.plan_ids)


def test_contour_structure_survives(roundtrip):
    _, original, restored = roundtrip
    assert len(restored.bouquet.contours) == len(original.bouquet.contours)
    for before, after in zip(original.bouquet.contours, restored.bouquet.contours):
        assert after.index == before.index
        assert after.cost == pytest.approx(before.cost)
        assert after.plan_at == before.plan_at


@given(i=st.integers(0, RES - 1), j=st.integers(0, RES - 1))
@settings(max_examples=30, deadline=None)
def test_diagram_identical_everywhere(roundtrip, i, j):
    _, original, restored = roundtrip
    location = (i, j)
    assert restored.bouquet.diagram.plan_at(location) == (
        original.bouquet.diagram.plan_at(location)
    )
    assert restored.bouquet.diagram.cost_at(location) == pytest.approx(
        original.bouquet.diagram.cost_at(location)
    )


@given(
    qa=st.tuples(
        st.floats(min_value=1e-3, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1.0),
    )
)
@settings(max_examples=15, deadline=None)
def test_simulated_runs_identical(roundtrip, qa):
    _, original, restored = roundtrip
    before = simulate(original, list(qa))
    after = simulate(restored, list(qa))
    assert after.total_cost == pytest.approx(before.total_cost)
    assert [
        (e.contour_index, e.plan_id, e.spilled) for e in after.executions
    ] == [(e.contour_index, e.plan_id, e.spilled) for e in before.executions]


def test_save_load_roundtrip(roundtrip, tmp_path):
    catalog, original, _ = roundtrip
    path = str(tmp_path / "artifact.json")
    original.save(path)
    loaded = CompiledBouquet.load(path, catalog)
    assert loaded.mso_bound == pytest.approx(original.mso_bound)
    assert loaded.sql == SQL_2D


def test_unknown_format_rejected(roundtrip):
    catalog, original, _ = roundtrip
    payload = original.to_dict()
    payload["format"] = "repro.bouquet.artifact.v999"
    with pytest.raises(BouquetError):
        CompiledBouquet.from_dict(payload, catalog)


def test_artifact_with_legacy_compile_engine_key_loads(roundtrip, tmp_path):
    """Artifacts written while the compile-engine selector existed carry
    a ``compile_engine`` config key; it never affected the artifact, so
    loading drops it."""
    import json

    catalog, original, _ = roundtrip
    payload = original.to_dict()
    payload["config"]["compile_engine"] = "reference"
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(payload))
    loaded = CompiledBouquet.load(str(path), catalog)
    assert loaded.config == original.config
    assert "compile_engine" not in loaded.config.to_dict()
    assert loaded.mso_bound == pytest.approx(original.mso_bound)


def test_unknown_config_key_rejected(roundtrip, tmp_path):
    import json

    catalog, original, _ = roundtrip
    payload = original.to_dict()
    payload["config"]["warp_factor"] = 9
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(BouquetError, match="warp_factor"):
        CompiledBouquet.load(str(path), catalog)
