"""Kernel library: the libcudf stand-in executing on simulated devices.

Out-of-core operators partition through one export,
:func:`partition_by_keys` (``hash_partition_ids`` then
``scatter_to_partitions``); NULL is one key value for every dtype.
"""

from .compute import (
    absolute,
    binary_arith,
    case_when,
    cast_column,
    coalesce,
    compare,
    concat_strings,
    contains,
    extract_date_part,
    fill_constant,
    hash_partition_ids,
    in_list,
    is_null,
    like,
    logical_and,
    logical_not,
    logical_or,
    round_column,
    string_case,
    string_length,
    substring,
)
from .copying import (
    concat_gtables,
    gather_column,
    gather_table,
    mask_table,
    partition_by_keys,
    scatter_to_partitions,
    slice_table,
)
from .groupby import AGG_OPS, AggSpec, groupby
from .gtable import GColumn, GTable, NULL_INDEX
from .join import (
    JoinResult,
    anti_join,
    build_hash_table,
    inner_join,
    left_join,
    probe_hash_table,
    semi_join,
)
from .keys import factorize_keys
from .reduce import reduce_column
from .sort import sorted_order, top_n_order

__all__ = [
    "AGG_OPS",
    "AggSpec",
    "GColumn",
    "GTable",
    "JoinResult",
    "NULL_INDEX",
    "absolute",
    "anti_join",
    "binary_arith",
    "build_hash_table",
    "case_when",
    "cast_column",
    "coalesce",
    "compare",
    "concat_gtables",
    "concat_strings",
    "contains",
    "extract_date_part",
    "factorize_keys",
    "fill_constant",
    "gather_column",
    "gather_table",
    "groupby",
    "hash_partition_ids",
    "in_list",
    "inner_join",
    "is_null",
    "left_join",
    "like",
    "logical_and",
    "logical_not",
    "logical_or",
    "mask_table",
    "partition_by_keys",
    "probe_hash_table",
    "reduce_column",
    "round_column",
    "scatter_to_partitions",
    "semi_join",
    "slice_table",
    "sorted_order",
    "string_case",
    "string_length",
    "substring",
    "top_n_order",
]
