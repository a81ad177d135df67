"""Unit + property tests for the vectorized executor helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ExecutionError
from repro.executor.arrays import (
    apply_selections,
    batch_length,
    concat,
    join_indices,
    join_sorted,
    merge_batches,
    qualify,
    selection_mask,
    sort_keys,
    take,
)
from repro.query import SelectionPredicate


def batch(**cols):
    return {name: np.asarray(values) for name, values in cols.items()}


class TestBasics:
    def test_qualify(self):
        assert qualify("part", "p_size") == "part.p_size"

    def test_batch_length(self):
        assert batch_length({}) == 0
        assert batch_length(batch(**{"t.a": [1, 2, 3]})) == 3

    def test_take_and_concat(self):
        b = batch(**{"t.a": [10, 20, 30]})
        assert list(take(b, np.array([2, 0]))["t.a"]) == [30, 10]
        joined = concat([b, b])
        assert batch_length(joined) == 6

    def test_concat_empty(self):
        assert concat([]) == {}
        b = batch(**{"t.a": []})
        assert batch_length(concat([b])) == 0


class TestSelections:
    def test_mask_ops(self):
        b = batch(**{"t.a": [1.0, 2.0, 3.0]})
        assert list(selection_mask(b, SelectionPredicate("t", "a", "<", 2.5))) == [
            True,
            True,
            False,
        ]
        assert list(selection_mask(b, SelectionPredicate("t", "a", "=", 2.0))) == [
            False,
            True,
            False,
        ]
        assert list(selection_mask(b, SelectionPredicate("t", "a", ">=", 2.0))) == [
            False,
            True,
            True,
        ]

    def test_missing_column_raises(self):
        b = batch(**{"t.a": [1.0]})
        with pytest.raises(ExecutionError):
            selection_mask(b, SelectionPredicate("t", "b", "<", 1.0))

    def test_apply_multiple(self):
        b = batch(**{"t.a": [1.0, 2.0, 3.0], "t.b": [9.0, 5.0, 1.0]})
        out = apply_selections(
            b,
            [
                SelectionPredicate("t", "a", ">", 1.0),
                SelectionPredicate("t", "b", ">", 2.0),
            ],
        )
        assert list(out["t.a"]) == [2.0]


class TestJoinIndices:
    def brute_force(self, probe, build):
        pairs = []
        for i, p in enumerate(probe):
            for j, b in enumerate(build):
                if p == b:
                    pairs.append((i, j))
        return sorted(pairs)

    @given(
        probe=st.lists(st.integers(min_value=0, max_value=8), max_size=30),
        build=st.lists(st.integers(min_value=0, max_value=8), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, probe, build):
        probe_arr = np.array(probe, dtype=np.int64)
        build_arr = np.array(build, dtype=np.int64)
        order = np.argsort(build_arr, kind="stable")
        p_idx, b_idx = join_indices(probe_arr, build_arr[order], order)
        got = sorted(zip(p_idx.tolist(), b_idx.tolist()))
        assert got == self.brute_force(probe, build)

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        p, b = join_indices(empty, empty, empty)
        assert p.size == 0 and b.size == 0


def _int_keys(unique):
    return st.lists(st.integers(min_value=-20, max_value=20), max_size=40, unique=unique)


def _float_keys(unique):
    values = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False).map(
        lambda x: round(x, 1)  # coarse, so probes hit build keys
    )
    return st.lists(values, max_size=40, unique=unique)


class TestJoinSorted:
    """The unique-key path gives the two-pass path's pairs and dtypes."""

    @staticmethod
    def check(probe, build):
        keys = sort_keys(build)
        got = join_sorted(probe, keys)
        want = join_indices(probe, keys.values, keys.order)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        return keys

    @given(data=st.data(), dtype=st.sampled_from(["int", "float"]), unique=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_two_pass(self, data, dtype, unique):
        keys = _int_keys if dtype == "int" else _float_keys
        numpy_dtype = np.int64 if dtype == "int" else np.float64
        build = np.array(data.draw(keys(unique)), dtype=numpy_dtype)
        probe = np.array(data.draw(keys(False)), dtype=numpy_dtype)
        sorted_build = self.check(probe, build)
        if unique:
            assert sorted_build.unique
        elif len(set(build.tolist())) < build.size:
            assert not sorted_build.unique
        # All-miss probes: every probe key lies outside the build range.
        self.check(probe + 1000, build)

    def test_empty_build_and_empty_probe(self):
        empty = np.empty(0, dtype=np.int64)
        some = np.array([-3, 0, 5], dtype=np.int64)
        for probe, build in ((some, empty), (empty, some), (empty, empty)):
            self.check(probe, build)

    def test_nan_keys_take_the_two_pass_path(self):
        build = np.array([np.nan, 1.0, 2.0])
        assert not sort_keys(build).unique
        assert not sort_keys(np.array([np.nan])).unique
        self.check(np.array([np.nan, 2.0, 3.0]), build)
        self.check(np.array([np.nan, 2.0]), np.array([np.nan]))


class TestMergeBatches:
    def test_column_collision_rejected(self):
        left = batch(**{"t.a": [1]})
        right = batch(**{"t.a": [2]})
        with pytest.raises(ExecutionError):
            merge_batches(left, np.array([0]), right, np.array([0]))

    def test_merges_aligned(self):
        left = batch(**{"l.k": [1, 2]})
        right = batch(**{"r.k": [10, 20]})
        out = merge_batches(left, np.array([1, 0]), right, np.array([0, 1]))
        assert list(out["l.k"]) == [2, 1]
        assert list(out["r.k"]) == [10, 20]
