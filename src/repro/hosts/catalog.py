"""The host catalog: named tables and the planner statistics derived from
them (ANALYZE-style distinct counts, taken once per table)."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..columnar import Table
from ..sql import TableStats

__all__ = ["Catalog"]


class Catalog:
    """What every host keeps per database: ``tables`` and their stats."""

    def __init__(self):
        self.tables: dict[str, Table] = {}
        # name -> (the table the counts were taken from, column -> ndv)
        self._distinct: dict[str, tuple[Table, dict[str, int]]] = {}

    def create_table(self, name: str, table: Table) -> None:
        self.tables[name] = table

    def load_tables(self, tables: Mapping[str, Table]) -> None:
        for name, table in tables.items():
            self.create_table(name, table)

    def row_counts(self) -> dict[str, int]:
        return {name: t.num_rows for name, t in self.tables.items()}

    def stats(self, distinct: bool = True) -> dict[str, TableStats]:
        """Planner statistics per table; a planner that never reorders
        joins has no use for the distinct counts."""
        return {
            name: TableStats(
                t.schema, t.num_rows, self._distinct_counts(name, t) if distinct else None
            )
            for name, t in self.tables.items()
        }

    def _distinct_counts(self, name: str, table: Table) -> dict[str, int]:
        cached = self._distinct.get(name)
        if cached is not None and cached[0] is table:
            return cached[1]
        counts = {
            field.name: int(len(np.unique(col.data)))
            for field, col in zip(table.schema, table.columns)
        }
        self._distinct[name] = (table, counts)
        return counts
