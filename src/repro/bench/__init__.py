"""Benchmark harness: one runner per paper table/figure plus ablations."""

from .ablations import (
    fusion_ablation,
    impl_swap_string_groupby,
    multi_gpu_ablation,
    oocore_ablation,
    overlap_ablation,
    predicate_transfer_ablation,
    AblationHarness,
    batch_execution,
    hot_vs_cold,
    impl_swap,
    interconnect_sweep,
)
from .distributed_bench import DistributedHarness, TABLE2_QUERIES, Table2Result
from .hardware import figure1_all, figure1_series, table1
from .report import ascii_table, bar_series, format_ms, geomean
from .single_node import Figure4Result, SingleNodeHarness

__all__ = [
    "AblationHarness",
    "DistributedHarness",
    "Figure4Result",
    "SingleNodeHarness",
    "TABLE2_QUERIES",
    "Table2Result",
    "ascii_table",
    "bar_series",
    "batch_execution",
    "figure1_all",
    "figure1_series",
    "format_ms",
    "geomean",
    "hot_vs_cold",
    "impl_swap",
    "fusion_ablation",
    "impl_swap_string_groupby",
    "multi_gpu_ablation",
    "oocore_ablation",
    "overlap_ablation",
    "predicate_transfer_ablation",
    "interconnect_sweep",
    "table1",
]
