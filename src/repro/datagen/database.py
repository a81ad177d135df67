"""In-memory database: generated tables plus derived statistics.

A :class:`Database` holds one numpy array per column and can build the
optimizer-facing :class:`~repro.catalog.statistics.DatabaseStatistics`
either *exactly* (perfect statistics) or from a sample (stale/inaccurate
statistics), which is the knob that creates realistic estimation errors.
"""

from __future__ import annotations

import hashlib
import threading
import zlib
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Mapping, Optional, TypeVar

import numpy as np

from ..catalog.schema import Schema
from ..catalog.statistics import (
    ColumnStatistics,
    DatabaseStatistics,
    TableStatistics,
)
from ..exceptions import CatalogError
from .generators import ColumnGenerator, CorrelatedFloat

if TYPE_CHECKING:
    from ..executor.arrays import SortedKeys

#: Generator spec type: table -> column -> generator.
GeneratorSpec = Mapping[str, Mapping[str, ColumnGenerator]]

T = TypeVar("T")


def _column_rng(root: np.random.SeedSequence, table: str, column: str) -> np.random.Generator:
    """Independent RNG stream per (table, column), stable across processes.

    Uses CRC32 (not Python's salted ``hash``) so the same seed always
    generates byte-identical databases — required for the repeatability
    guarantees this library makes."""
    key = zlib.crc32(f"{table}.{column}".encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root.entropy, spawn_key=(key,))
    )


def _table(tables: Dict[str, Dict[str, np.ndarray]], name: str) -> Dict[str, np.ndarray]:
    try:
        return tables[name]
    except KeyError:
        raise CatalogError(f"database has no table {name!r}") from None


def _column(tables: Dict[str, Dict[str, np.ndarray]], table: str, column: str) -> np.ndarray:
    try:
        return _table(tables, table)[column]
    except KeyError:
        raise CatalogError(f"table {table!r} has no column {column!r}") from None


class ExecutionContext:
    """Facts that depend only on one database's data, built once and shared.

    Every execution over the database reads the same context — per-request
    engines, ``native_run``, concurrent-crossing workers — so each fact is
    paid for once per database instead of once per request:

    * :meth:`sorted_column` — a column as a simulated B-tree index (sorted
      values, stable argsort order, unique-keys flag), keyed by
      ``(table, column)``;
    * :meth:`join_selectivity` — a measured equi-join selectivity, keyed
      by the ordered column pair.

    Entries are built on first use under a lock, so concurrent readers
    build each one exactly once.  :meth:`Database.invalidate_fingerprint`
    replaces the whole context after in-place data mutation.  The context
    holds the database's tables, not the database: a reference cycle would
    keep every dropped database's arrays alive until a full collection.
    """

    def __init__(self, tables: Dict[str, Dict[str, np.ndarray]]):
        self._tables = tables
        self._lock = threading.Lock()
        self._entries: Dict[Hashable, object] = {}

    def _memo(self, key: Hashable, build: Callable[[], T]) -> T:
        entry = self._entries.get(key)
        if entry is None:
            with self._lock:
                entry = self._entries.get(key)
                if entry is None:
                    entry = self._entries[key] = build()
        return entry  # type: ignore[return-value]

    def sorted_column(self, table: str, column: str) -> "SortedKeys":
        """``table.column`` as a simulated B-tree index."""
        return self._memo(("sorted", table, column), lambda: self._sort(table, column))

    def join_selectivity(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> float:
        """Ground-truth join selectivity |L ⋈ R| / (|L| * |R|)."""
        return self._memo(
            ("join", left_table, left_column, right_table, right_column),
            lambda: self._measure_join(left_table, left_column, right_table, right_column),
        )

    def _sort(self, table: str, column: str) -> "SortedKeys":
        # Imported here: the executor package imports this module.
        from ..executor.arrays import sort_keys

        keys = sort_keys(_column(self._tables, table, column))
        # Shared by every execution: nothing may write to it.
        keys.values.flags.writeable = False
        keys.order.flags.writeable = False
        return keys

    def _measure_join(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> float:
        left = _column(self._tables, left_table, left_column)
        right = _column(self._tables, right_table, right_column)
        values, left_counts = np.unique(left, return_counts=True)
        rvalues, right_counts = np.unique(right, return_counts=True)
        common, li, ri = np.intersect1d(values, rvalues, return_indices=True)
        if common.size == 0:
            return 0.0
        matches = float(np.dot(left_counts[li].astype(float), right_counts[ri].astype(float)))
        return matches / (left.size * right.size)


class Database:
    """Generated relational data for a :class:`~repro.catalog.schema.Schema`.

    ``context`` is the database's :class:`ExecutionContext`: the sorted
    columns and join selectivities every execution reuses.
    """

    def __init__(self, schema: Schema, tables: Dict[str, Dict[str, np.ndarray]]):
        self.schema = schema
        self._tables = tables
        self._fingerprint: Optional[str] = None
        self.context = ExecutionContext(self._tables)
        for name, cols in tables.items():
            table = schema.table(name)
            lengths = {arr.size for arr in cols.values()}
            if len(lengths) > 1:
                raise CatalogError(f"ragged columns in generated table {name!r}")
            if lengths and lengths.pop() != table.row_count:
                raise CatalogError(
                    f"generated table {name!r} does not match catalog row count"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def generate(schema: Schema, spec: GeneratorSpec, seed: int = 42) -> "Database":
        """Generate all tables of ``schema`` from the generator ``spec``.

        Generation is deterministic in ``seed``; each (table, column) pair
        gets an independent child RNG stream so adding a column does not
        reshuffle the others.
        """
        root = np.random.SeedSequence(seed)
        tables: Dict[str, Dict[str, np.ndarray]] = {}
        for tname in schema.table_names:
            table = schema.table(tname)
            col_spec = spec.get(tname)
            if col_spec is None:
                raise CatalogError(f"no generator spec for table {tname!r}")
            arrays: Dict[str, np.ndarray] = {}
            deferred = []
            for col in table.columns:
                gen = col_spec.get(col.name)
                if gen is None:
                    raise CatalogError(
                        f"no generator for column {tname}.{col.name}"
                    )
                if isinstance(gen, CorrelatedFloat):
                    deferred.append((col.name, gen))
                    continue
                rng = _column_rng(root, tname, col.name)
                arrays[col.name] = gen.generate(table.row_count, rng)
            for col_name, gen in deferred:
                if gen.base_column not in arrays:
                    raise CatalogError(
                        f"correlated column {tname}.{col_name} references missing "
                        f"base column {gen.base_column!r}"
                    )
                rng = _column_rng(root, tname, col_name)
                arrays[col_name] = gen.generate_correlated(
                    arrays[gen.base_column], table.row_count, rng
                )
            tables[tname] = arrays
        return Database(schema, tables)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def table(self, name: str) -> Dict[str, np.ndarray]:
        return _table(self._tables, name)

    def column(self, table: str, column: str) -> np.ndarray:
        return _column(self._tables, table, column)

    def row_count(self, table: str) -> int:
        return self.schema.table(table).row_count

    def fingerprint(self) -> str:
        """Content digest of every table's data, cached after first use.

        Distinguishes regenerated/different datasets so caches keyed on
        "which data am I looking at" (e.g. the execution service's
        cardinality cache) cannot serve stale answers.  If arrays are
        mutated in place, call :meth:`invalidate_fingerprint`.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for tname in sorted(self._tables):
                digest.update(tname.encode("utf-8"))
                cols = self._tables[tname]
                for cname in sorted(cols):
                    digest.update(cname.encode("utf-8"))
                    arr = np.ascontiguousarray(cols[cname])
                    digest.update(str(arr.dtype).encode("utf-8"))
                    digest.update(arr.tobytes())
            self._fingerprint = digest.hexdigest()[:20]
        return self._fingerprint

    def invalidate_fingerprint(self) -> None:
        """Drop everything derived from the data after in-place mutation:
        the cached fingerprint and the execution context (sorted columns
        and measured join selectivities), which is rebuilt on demand."""
        self._fingerprint = None
        self.context = ExecutionContext(self._tables)

    def __getstate__(self) -> dict:
        # The context (and its lock) is rebuilt, not pickled.
        state = dict(self.__dict__)
        del state["context"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.context = ExecutionContext(self._tables)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def build_statistics(
        self,
        sample_size: Optional[int] = None,
        buckets: int = 100,
        seed: int = 0,
    ) -> DatabaseStatistics:
        """Build optimizer statistics over every column.

        ``sample_size=None`` gives perfect statistics; a finite sample
        produces the realistic, error-prone variety.
        """
        stats = DatabaseStatistics()
        for tname in self.schema.table_names:
            table = self.schema.table(tname)
            tstats = TableStatistics(tname, table.row_count)
            for col in table.columns:
                arr = self.column(tname, col.name)
                tstats.set_column(
                    col.name,
                    ColumnStatistics.from_array(
                        arr, buckets=buckets, sample_size=sample_size, seed=seed
                    ),
                )
            stats.set_table(tstats)
        return stats

    def actual_selection_selectivity(self, table: str, column: str, op: str, value) -> float:
        """Ground-truth selectivity of ``table.column <op> value``."""
        arr = self.column(table, column)
        if op == "=":
            frac = float(np.mean(arr == value))
        elif op == "<":
            frac = float(np.mean(arr < value))
        elif op == "<=":
            frac = float(np.mean(arr <= value))
        elif op == ">":
            frac = float(np.mean(arr > value))
        elif op == ">=":
            frac = float(np.mean(arr >= value))
        elif op == "in":
            frac = float(np.mean(np.isin(arr, np.asarray(value))))
        else:
            raise CatalogError(f"unsupported operator {op!r}")
        return max(frac, 0.0)

    def actual_join_selectivity(
        self, left_table: str, left_column: str, right_table: str, right_column: str
    ) -> float:
        """Ground-truth join selectivity |L ⋈ R| / (|L| * |R|), measured
        once per column pair (see :class:`ExecutionContext`)."""
        return self.context.join_selectivity(
            left_table, left_column, right_table, right_column
        )
