"""Schemas and host-side tables (ordered collections of equal-length columns)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._keys import bucket_rows, concat_validity, merge_dictionaries, partition_ids
from .column import Column, column_from_pylist
from .dtypes import DType, dtype_from_name

__all__ = ["Field", "Schema", "Table", "concat_tables"]


@dataclass(frozen=True)
class Field:
    """A named, typed slot in a schema."""

    name: str
    dtype: DType

    def __repr__(self) -> str:
        return f"{self.name}: {self.dtype}"


class Schema:
    """An ordered list of fields with by-name lookup."""

    __slots__ = ("fields", "_index")

    def __init__(self, fields: Iterable[Field | tuple[str, DType | str]]):
        resolved = []
        for f in fields:
            if isinstance(f, Field):
                resolved.append(f)
            else:
                name, dtype = f
                if isinstance(dtype, str):
                    dtype = dtype_from_name(dtype)
                resolved.append(Field(name, dtype))
        self.fields: tuple[Field, ...] = tuple(resolved)
        self._index = {f.name: i for i, f in enumerate(self.fields)}
        if len(self._index) != len(self.fields):
            raise ValueError("duplicate field names in schema")

    def __len__(self) -> int:
        return len(self.fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.fields == other.fields

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def dtypes(self) -> list[DType]:
        return [f.dtype for f in self.fields]

    def index_of(self, name: str) -> int:
        """Position of ``name``; raises KeyError if absent."""
        return self._index[name]

    def field(self, name: str) -> Field:
        return self.fields[self._index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        inner = ", ".join(repr(f) for f in self.fields)
        return f"Schema({inner})"


class Table:
    """An immutable-by-convention host table: a schema plus its columns.

    This is the format the host databases (MiniDuck / MiniDoris) hold data
    in; Sirius' buffer manager copies it into the device caching region on
    the cold run, after which execution is fully GPU-resident.
    """

    __slots__ = ("schema", "columns")

    def __init__(self, schema: Schema, columns: Sequence[Column]):
        columns = list(columns)
        if len(columns) != len(schema):
            raise ValueError("column count does not match schema")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged table: column lengths {sorted(lengths)}")
        for field, col in zip(schema, columns):
            if col.dtype is not field.dtype:
                raise TypeError(f"column {field.name!r} is {col.dtype}, schema says {field.dtype}")
        self.schema = schema
        self.columns = tuple(columns)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_pydict(cls, data: Mapping[str, Sequence[Any]], schema: Schema) -> "Table":
        """Build a table from ``{name: python_values}`` following ``schema``."""
        columns = [column_from_pylist(data[f.name], f.dtype) for f in schema]
        return cls(schema, columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls.from_pydict({f.name: [] for f in schema}, schema)

    # -- properties ---------------------------------------------------------

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(self.columns[0])

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.columns)

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> Column:
        return self.columns[self.schema.index_of(name)]

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    # -- transformations ----------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Project a subset (or reordering) of columns by name."""
        schema = Schema([self.schema.field(n) for n in names])
        return Table(schema, [self.column(n) for n in names])

    def take(self, indices: np.ndarray) -> "Table":
        return Table(self.schema, [c.take(indices) for c in self.columns])

    def mask(self, keep: np.ndarray) -> "Table":
        return Table(self.schema, [c.mask(keep) for c in self.columns])

    def slice(self, start: int, length: int) -> "Table":
        return Table(self.schema, [c.slice(start, length) for c in self.columns])

    def partition(self, key_ordinals: Sequence[int], num_partitions: int) -> list["Table"]:
        """Piece ``p`` holds, in source order, the rows whose key columns at
        ``key_ordinals`` hash to ``p`` — the level-0 ids
        ``kernels.hash_partition_ids`` gives the same keys on a device."""
        keys = [self.columns[i].arrays for i in key_ordinals]
        ids = partition_ids(keys, num_partitions)
        return [self.take(rows) for rows in bucket_rows(ids, num_partitions)]

    def rename(self, names: Sequence[str]) -> "Table":
        if len(names) != self.num_columns:
            raise ValueError("rename needs one name per column")
        schema = Schema([Field(n, f.dtype) for n, f in zip(names, self.schema)])
        return Table(schema, self.columns)

    def with_column(self, name: str, column: Column) -> "Table":
        """Append (or replace) a column."""
        if name in self.schema:
            cols = list(self.columns)
            cols[self.schema.index_of(name)] = column
            return Table(self.schema, cols)
        schema = Schema(list(self.schema.fields) + [Field(name, column.dtype)])
        return Table(schema, list(self.columns) + [column])

    # -- output ---------------------------------------------------------------

    def to_pydict(self) -> dict[str, list[Any]]:
        return {f.name: c.to_pylist() for f, c in zip(self.schema, self.columns)}

    def to_rows(self) -> list[tuple[Any, ...]]:
        cols = [c.to_pylist() for c in self.columns]
        return list(zip(*cols)) if cols else []

    def pretty(self, max_rows: int = 20) -> str:
        """Render an ASCII preview, the way a CLI result grid would."""
        names = self.schema.names()
        shown = self.slice(0, min(self.num_rows, max_rows))
        rows = [[_fmt(v) for v in row] for row in shown.to_rows()]
        widths = [
            max(len(n), *(len(r[i]) for r in rows)) if rows else len(n)
            for i, n in enumerate(names)
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [" | ".join(v.ljust(w) for v, w in zip(row, widths)) for row in rows]
        lines = [header, sep] + body
        if self.num_rows > max_rows:
            lines.append(f"... ({self.num_rows} rows total)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Table[{self.num_rows} rows x {self.num_columns} cols]"


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def concat_tables(tables: Sequence[Table]) -> Table:
    """Vertically concatenate tables sharing a schema.

    Used by the exchange layer to merge shuffled partitions back into one
    input table for the consuming fragment.
    """
    tables = [t for t in tables if t is not None]
    if not tables:
        raise ValueError("concat_tables needs at least one table")
    schema = tables[0].schema
    for t in tables[1:]:
        if t.schema.names() != schema.names() or t.schema.dtypes() != schema.dtypes():
            raise ValueError("concat_tables: mismatched schemas")
    out_cols = []
    for i, field in enumerate(schema):
        parts = [t.columns[i].arrays for t in tables]
        if field.dtype.is_string:
            # The dictionary is the sorted set of entries valid rows use.
            dictionary, codes = merge_dictionaries(parts)
            out_cols.append(Column(field.dtype, codes, codes >= 0, dictionary))
        else:
            data = np.concatenate([data for data, _validity, _dictionary in parts])
            out_cols.append(Column(field.dtype, data, concat_validity(parts)))
    return Table(schema, out_cols)
