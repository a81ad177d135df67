"""Vectorized array helpers for the execution engine.

Batches are dictionaries mapping *qualified* column names
(``table.column``) to equal-length numpy arrays.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from ..exceptions import ExecutionError
from ..query.predicates import SelectionPredicate

Batch = Dict[str, np.ndarray]


def qualify(table: str, column: str) -> str:
    return f"{table}.{column}"


def batch_length(batch: Batch) -> int:
    if not batch:
        return 0
    return len(next(iter(batch.values())))


def empty_like(batch: Batch) -> Batch:
    return {name: array[:0] for name, array in batch.items()}


def take(batch: Batch, indices: np.ndarray) -> Batch:
    return {name: array[indices] for name, array in batch.items()}


def concat(batches: Sequence[Batch]) -> Batch:
    non_empty = [b for b in batches if batch_length(b)]
    if not non_empty:
        return {} if not batches else empty_like(batches[0])
    keys = non_empty[0].keys()
    return {key: np.concatenate([b[key] for b in non_empty]) for key in keys}


def selection_mask(batch: Batch, pred: SelectionPredicate) -> np.ndarray:
    """Boolean mask for a selection predicate over a batch."""
    column = batch.get(qualify(pred.table, pred.column))
    if column is None:
        raise ExecutionError(
            f"batch lacks column {pred.table}.{pred.column} for predicate {pred}"
        )
    if pred.op == "=":
        return column == pred.value
    if pred.op == "<":
        return column < pred.value
    if pred.op == "<=":
        return column <= pred.value
    if pred.op == ">":
        return column > pred.value
    if pred.op == ">=":
        return column >= pred.value
    if pred.op == "in":
        return np.isin(column, np.asarray(pred.value))
    raise ExecutionError(f"unsupported operator {pred.op!r}")


def apply_selections(batch: Batch, preds: Sequence[SelectionPredicate]) -> Batch:
    if not preds or not batch_length(batch):
        return batch
    mask = np.ones(batch_length(batch), dtype=bool)
    for pred in preds:
        mask &= selection_mask(batch, pred)
    if mask.all():
        return batch
    return {name: array[mask] for name, array in batch.items()}


class SortedKeys(NamedTuple):
    """Keys in ascending order: ``values == keys[order]`` with ``order``
    the stable argsort; ``unique`` when no key repeats."""

    values: np.ndarray
    order: np.ndarray
    unique: bool


def sort_keys(keys: np.ndarray) -> SortedKeys:
    """Sort a build side (or an index column) once for :func:`join_sorted`."""
    order = np.argsort(keys, kind="stable")
    values = keys[order]
    # Strictly increasing means unique; NaN (sorted last) never counts as
    # unique, because searchsorted matches NaN to NaN and ``==`` does not.
    unique = bool(np.all(values[1:] > values[:-1])) and not (
        values.size and values[-1] != values[-1]
    )
    return SortedKeys(values, order, unique)


def join_sorted(probe_keys: np.ndarray, build: SortedKeys) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`join_indices` against a sorted build side.

    With unique build keys every probe key matches at most once, so one
    searchsorted pass plus an equality test finds the same pairs, in the
    same order and dtypes, as the two-pass general case.
    """
    if not build.unique:
        return join_indices(probe_keys, build.values, build.order)
    size = build.values.size
    empty = np.empty(0, dtype=np.int64)
    if size == 0:
        return empty, empty
    lo = np.searchsorted(build.values, probe_keys, side="left")
    probe_idx = np.flatnonzero(build.values[np.minimum(lo, size - 1)] == probe_keys)
    if probe_idx.size == 0:
        return empty, empty
    return probe_idx, build.order[lo[probe_idx]]


def join_indices(
    probe_keys: np.ndarray,
    build_keys_sorted: np.ndarray,
    build_order: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe_idx, build_idx) equi-join matches.

    ``build_keys_sorted`` must be ``build_keys[build_order]``; matching is
    done with two searchsorted passes, so duplicates on both sides are
    handled (many-to-many joins expand correctly).
    """
    lo = np.searchsorted(build_keys_sorted, probe_keys, side="left")
    hi = np.searchsorted(build_keys_sorted, probe_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    probe_idx = np.repeat(np.arange(probe_keys.size), counts)
    # Per-match offsets into each probe key's sorted range, fully vectorized:
    # within a run of matches for one probe key, offsets count 0,1,2,...
    ends = np.cumsum(counts)
    starts = ends - counts
    offsets = np.arange(total) - np.repeat(starts, counts)
    build_pos = np.repeat(lo, counts) + offsets
    return probe_idx, build_order[build_pos]


def merge_batches(left: Batch, left_idx: np.ndarray, right: Batch, right_idx: np.ndarray) -> Batch:
    """Form the joined batch from matched index pairs."""
    out: Batch = {}
    for name, array in left.items():
        out[name] = array[left_idx]
    for name, array in right.items():
        if name in out:
            raise ExecutionError(f"column collision on join output: {name}")
        out[name] = array[right_idx]
    return out
