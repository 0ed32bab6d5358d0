"""TPC-H schemas (all eight tables) in the reproduction's type system.

DECIMALs are float64 (see ``repro.columnar.dtypes``); keys are int64 —
matching Sirius' uint64-row-id-capable engine width.
"""

from __future__ import annotations

from ..columnar import Schema

__all__ = ["TPCH_SCHEMAS", "TABLE_BASE_ROWS"]

TPCH_SCHEMAS: dict[str, Schema] = {
    "region": Schema(
        [
            ("r_regionkey", "int64"),
            ("r_name", "string"),
            ("r_comment", "string"),
        ]
    ),
    "nation": Schema(
        [
            ("n_nationkey", "int64"),
            ("n_name", "string"),
            ("n_regionkey", "int64"),
            ("n_comment", "string"),
        ]
    ),
    "supplier": Schema(
        [
            ("s_suppkey", "int64"),
            ("s_name", "string"),
            ("s_address", "string"),
            ("s_nationkey", "int64"),
            ("s_phone", "string"),
            ("s_acctbal", "float64"),
            ("s_comment", "string"),
        ]
    ),
    "customer": Schema(
        [
            ("c_custkey", "int64"),
            ("c_name", "string"),
            ("c_address", "string"),
            ("c_nationkey", "int64"),
            ("c_phone", "string"),
            ("c_acctbal", "float64"),
            ("c_mktsegment", "string"),
            ("c_comment", "string"),
        ]
    ),
    "part": Schema(
        [
            ("p_partkey", "int64"),
            ("p_name", "string"),
            ("p_mfgr", "string"),
            ("p_brand", "string"),
            ("p_type", "string"),
            ("p_size", "int64"),
            ("p_container", "string"),
            ("p_retailprice", "float64"),
            ("p_comment", "string"),
        ]
    ),
    "partsupp": Schema(
        [
            ("ps_partkey", "int64"),
            ("ps_suppkey", "int64"),
            ("ps_availqty", "int64"),
            ("ps_supplycost", "float64"),
            ("ps_comment", "string"),
        ]
    ),
    "orders": Schema(
        [
            ("o_orderkey", "int64"),
            ("o_custkey", "int64"),
            ("o_orderstatus", "string"),
            ("o_totalprice", "float64"),
            ("o_orderdate", "date"),
            ("o_orderpriority", "string"),
            ("o_clerk", "string"),
            ("o_shippriority", "int64"),
            ("o_comment", "string"),
        ]
    ),
    "lineitem": Schema(
        [
            ("l_orderkey", "int64"),
            ("l_partkey", "int64"),
            ("l_suppkey", "int64"),
            ("l_linenumber", "int64"),
            ("l_quantity", "float64"),
            ("l_extendedprice", "float64"),
            ("l_discount", "float64"),
            ("l_tax", "float64"),
            ("l_returnflag", "string"),
            ("l_linestatus", "string"),
            ("l_shipdate", "date"),
            ("l_commitdate", "date"),
            ("l_receiptdate", "date"),
            ("l_shipinstruct", "string"),
            ("l_shipmode", "string"),
            ("l_comment", "string"),
        ]
    ),
}

# Rows at scale factor 1.0 per the TPC-H specification.
TABLE_BASE_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,  # approximate: 1-7 lines per order
}
