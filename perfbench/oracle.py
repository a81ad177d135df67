"""Result-row counting for the benchmark's correctness checks.

Both serving workloads check each answer's row count against
:class:`RowCounter`: an independent count over the query's join tree
that never materializes the join and shares no code with the program's
executors.  The benchmark's tests hold it equal to
``repro.executor.reference.reference_row_count`` (a dict-per-row
evaluator, about 2 s per Table 2 query at scale 0.02: too slow to run
on every answer) on the Table 2 queries and on generated ones.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.executor.reference import reference_row_count


class RowCounter:
    """Counts result rows of tree-shaped join queries over one database.

    The key index of each join edge (distinct child keys, each child
    row's key slot, each parent row's matching slot) depends only on
    the data, so it is built once per edge and reused by every query.
    """

    def __init__(self, database):
        self.database = database
        self._keys: Dict[Tuple[str, str], Tuple[np.ndarray, np.ndarray]] = {}
        self._probes: Dict[Tuple[str, str, str, str], Tuple[np.ndarray, np.ndarray]] = {}

    def _key_index(self, table: str, column: str):
        """(distinct keys, key slot of every row) of ``table.column``."""
        found = self._keys.get((table, column))
        if found is None:
            found = np.unique(self.database.column(table, column), return_inverse=True)
            self._keys[(table, column)] = found
        return found

    def _probe(self, table: str, column: str, child: str, child_column: str):
        """(slot, matched) of every ``table`` row in the child's key index."""
        key = (table, column, child, child_column)
        found = self._probes.get(key)
        if found is None:
            keys, _ = self._key_index(child, child_column)
            probe = self.database.column(table, column)
            slot = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
            found = (slot, keys[slot] == probe)
            self._probes[key] = found
        return found

    def _selected(self, query, table: str) -> np.ndarray:
        """Boolean mask of ``table``'s rows passing the query's selections."""
        database = self.database
        mask = np.ones(database.row_count(table), dtype=bool)
        for sel in query.selections_on(table):
            column = database.column(table, sel.column)
            if sel.op == "=":
                mask &= column == sel.value
            elif sel.op == "<":
                mask &= column < sel.value
            elif sel.op == "<=":
                mask &= column <= sel.value
            elif sel.op == ">":
                mask &= column > sel.value
            elif sel.op == ">=":
                mask &= column >= sel.value
            elif sel.op == "in":
                mask &= np.isin(column, list(sel.value))
            else:
                raise ValueError(f"oracle: unsupported operator {sel.op!r}")
        return mask

    def count(self, query) -> int:
        """Result rows of the query's join, counted bottom-up over its join tree.

        Each row of a table carries a weight: the number of result rows
        of its subtree it takes part in.  A parent row's weight is the
        product, over its children, of the summed weights of the child
        rows sharing its join key.  Queries whose join graph is not a
        tree fall back to the reference evaluator.
        """
        tables = list(query.tables)
        if len(query.joins) != len(tables) - 1:
            return reference_row_count(self.database, query)
        edges: Dict[str, List] = {table: [] for table in tables}
        for join in query.joins:
            for table in join.tables:
                edges[table].append(join)
        reached = set()

        def weights(table: str, via) -> np.ndarray:
            weight = self._selected(query, table).astype(np.float64)
            for join in edges[table]:
                if join is via:
                    continue
                child = join.other(table)
                child_column = join.column_for(child)
                child_weight = weights(child, join)
                keys, inverse = self._key_index(child, child_column)
                sums = np.bincount(inverse, weights=child_weight, minlength=len(keys))
                slot, matched = self._probe(
                    table, join.column_for(table), child, child_column
                )
                weight *= np.where(matched, sums[slot], 0.0)
            reached.add(table)
            return weight

        total = float(weights(sorted(tables)[0], None).sum())
        if reached != set(tables):
            return reference_row_count(self.database, query)
        return int(round(total))
