"""TPC-H substrate: schemas, deterministic dbgen, and the 22 queries."""

from .dbgen import generate_table, generate_tpch
from .queries import (
    CLICKHOUSE_REWRITES,
    CLICKHOUSE_UNSUPPORTED,
    TPCH_QUERIES,
    tpch_query,
)
from .schema import TABLE_BASE_ROWS, TPCH_SCHEMAS

__all__ = [
    "CLICKHOUSE_REWRITES",
    "CLICKHOUSE_UNSUPPORTED",
    "TABLE_BASE_ROWS",
    "TPCH_QUERIES",
    "TPCH_SCHEMAS",
    "generate_table",
    "generate_tpch",
    "tpch_query",
]
