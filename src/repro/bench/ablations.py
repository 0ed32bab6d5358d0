"""Ablation harness for the design choices DESIGN.md calls out.

* **Hot vs cold caching region** — the paper reports hot runs; this
  quantifies what the pre-allocated caching region buys (§3.2.3).
* **Kernel implementation swap** — libcudf vs "custom kernel"
  implementations of join and group-by (§3.2.2's modular design); the
  custom hash group-by avoids libcudf's sort path for string keys.
* **Interconnect generation sweep** — cold-run time under PCIe4 / PCIe5 /
  NVLink-C2C (the §2.1 hardware-trend argument).
* **Batch (out-of-core) execution** — whole-table pipelines vs §3.4's
  partitioned batch execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import SiriusEngine
from ..gpu.specs import A100_40G, GH200, DeviceSpec
from ..hosts import MiniDuck
from ..tpch import generate_tpch, tpch_query
from .report import ascii_table

__all__ = [
    "AblationHarness",
    "hot_vs_cold",
    "impl_swap",
    "interconnect_sweep",
    "batch_execution",
    "overlap_ablation",
    "oocore_ablation",
    "fusion_ablation",
]


@dataclass
class AblationHarness:
    """Shared dataset + host planner for the ablation experiments."""

    sf: float = 0.05
    seed: int = 19920101

    def __post_init__(self):
        self.data = generate_tpch(sf=self.sf, seed=self.seed)
        self.host = MiniDuck()
        self.host.load_tables(self.data)

    def plan(self, query: int):
        return self.host.plan(tpch_query(query))

    def fresh_engine(self, **kwargs) -> SiriusEngine:
        return SiriusEngine.for_spec(GH200, **kwargs)


def hot_vs_cold(
    harness: AblationHarness, query: int = 6, spec: DeviceSpec = A100_40G
) -> dict[str, float]:
    """Cold run (caching region empty, pays host->device copies) vs hot.

    Defaults to the PCIe4-attached A100, where the cold-run penalty is
    largest; over NVLink-C2C (GH200) the gap shrinks dramatically — which
    is exactly the paper's §2.1 argument that faster interconnects let
    GPUs reach beyond device memory.
    """
    plan = harness.plan(query)
    engine = SiriusEngine.for_spec(spec)
    engine.execute(plan, harness.data)
    cold = engine.last_profile.sim_seconds
    engine.execute(plan, harness.data)
    hot = engine.last_profile.sim_seconds
    return {"cold_s": cold, "hot_s": hot, "speedup": cold / hot}


def impl_swap(
    harness: AblationHarness, query: int = 10, op_kinds: tuple[str, ...] = ("groupby",)
) -> dict[str, float]:
    """libcudf vs custom implementations of the given operator kinds.

    Swapping only ``groupby`` isolates the string-key sort-path question
    (the custom kernel hashes strings directly); swapping only ``join``
    compares hash join vs the sort-merge custom kernel.
    """
    plan = harness.plan(query)
    engine = harness.fresh_engine()
    engine.warm_cache(harness.data)
    results = {}
    for impl in ("libcudf", "custom"):
        for kind in op_kinds:
            engine.use_implementation(kind, impl)
        engine.execute(plan, harness.data)
        results[impl] = engine.last_profile.sim_seconds
    return results


def interconnect_sweep(harness: AblationHarness, query: int = 1) -> str:
    """Cold-run time across interconnect generations (data load included)."""
    plan = harness.plan(query)
    rows = []
    for name, gbps, latency in (
        ("PCIe 4.0 x16", 25.6, 5.0),
        ("PCIe 5.0 x16", 64.0, 4.0),
        ("NVLink-C2C", 450.0, 2.0),
    ):
        spec = DeviceSpec(
            name=f"GH200-class over {name}",
            kind="gpu",
            memory_gb=GH200.memory_gb,
            memory_bw_gbps=GH200.memory_bw_gbps,
            random_access_efficiency=GH200.random_access_efficiency,
            row_throughput_grows=GH200.row_throughput_grows,
            kernel_launch_us=GH200.kernel_launch_us,
            interconnect_gbps=gbps,
            interconnect_latency_us=latency,
        )
        engine = SiriusEngine.for_spec(spec)
        engine.execute(plan, harness.data)  # cold: pays the load
        rows.append((name, f"{gbps:g} GB/s", f"{engine.last_profile.sim_seconds*1000:.3f} ms"))
    return ascii_table(["interconnect", "bandwidth", "cold-run time"], rows)


def batch_execution(harness: AblationHarness, query: int = 1, batch_rows: int = 50_000):
    """Whole-table pipelines vs batched (out-of-core style) execution."""
    plan = harness.plan(query)
    whole = harness.fresh_engine()
    whole.warm_cache(harness.data)
    whole.execute(plan, harness.data)
    batched = harness.fresh_engine(batch_rows=batch_rows)
    batched.warm_cache(harness.data)
    result = batched.execute(plan, harness.data)
    return {
        "whole_s": whole.last_profile.sim_seconds,
        "batched_s": batched.last_profile.sim_seconds,
        "batched_rows": result.num_rows,
    }


def impl_swap_string_groupby(harness: AblationHarness) -> dict[str, float]:
    """Micro-ablation: group the customer table by its (string) name.

    Maximises the sort-path vs hash-path difference: every key is a
    distinct string, so libcudf's sort-based group-by pays its full
    log-factor while the custom hash kernel streams once.
    """
    from ..plan import PlanBuilder

    schema = harness.data["customer"].schema
    plan = (
        PlanBuilder.read("customer", schema)
        .aggregate(groups=["c_name"], aggs=[("sum", "c_acctbal", "total")])
        .build()
    )
    engine = harness.fresh_engine()
    engine.warm_cache(harness.data, names=["customer"])
    results = {}
    for impl in ("libcudf", "custom"):
        engine.use_implementation("groupby", impl)
        engine.execute(plan, harness.data)
        results[impl] = engine.last_profile.sim_seconds
    return results


def multi_gpu_ablation(sf: float = 0.02, query: int = 1) -> dict[str, float]:
    """Multi-GPU per node (§3.4): compute time at 1 vs 2 GPUs per host."""
    from ..hosts import MiniDoris
    from ..tpch import generate_tpch, tpch_query

    data = generate_tpch(sf=sf)
    out = {}
    for gpus in (1, 2):
        db = MiniDoris(num_nodes=4, mode="sirius", gpus_per_node=gpus)
        db.load_tables(data)
        db.warm_caches()
        result = db.execute(tpch_query(query))
        out[f"gpus{gpus}_total_s"] = result.total_seconds
        out[f"gpus{gpus}_compute_s"] = result.compute_seconds
    return out


def overlap_ablation(
    harness: AblationHarness,
    queries: tuple[int, ...] = (1, 3, 6),
    spec: DeviceSpec = A100_40G,
    distributed_query: int = 3,
    num_nodes: int = 4,
) -> dict[str, float]:
    """Copy/compute overlap (async streams + prefetch) on and off.

    Single-node: cold runs of the given queries on a PCIe4-attached A100
    (the configuration where exposed copy time is largest), synchronous
    loads vs chunked double-buffered loads on the copy stream.
    Distributed: the Table-2 Q3 shuffle with pipelined exchanges
    overlapping sends with fragment compute.
    """
    from ..hosts import MiniDoris

    out: dict[str, float] = {}
    for query in queries:
        plan = harness.plan(query)
        for enabled in (False, True):
            engine = SiriusEngine.for_spec(spec, overlap=enabled)
            engine.execute(plan, harness.data)  # cold: pays the load
            key = "overlap" if enabled else "baseline"
            out[f"q{query}_{key}_s"] = engine.last_profile.sim_seconds
            if enabled:
                out[f"q{query}_hidden_s"] = engine.last_profile.overlap_hidden_s
    sql = tpch_query(distributed_query)
    for enabled in (False, True):
        db = MiniDoris(num_nodes=num_nodes, mode="sirius", overlap=enabled)
        db.load_tables(harness.data)
        db.warm_caches()
        result = db.execute(sql)
        key = "overlap" if enabled else "baseline"
        out[f"dist_{key}_total_s"] = result.total_seconds
        out[f"dist_{key}_exchange_s"] = result.exchange_seconds
        out[f"dist_{key}_exchange_frac"] = result.profile.table2_fractions()["exchange"]
        if enabled:
            out["dist_hidden_s"] = result.profile.overlap_hidden_s
    return out


def oocore_ablation(
    sf: float = 0.02,
    query: int = 9,
    memory_limits_gb: tuple[float, ...] = (0.1, 0.08, 0.05, 0.04, 0.03),
) -> dict:
    """Out-of-core partitioned execution vs the degradation ladder.

    Runs an over-HBM query (Q9's working set exceeds the processing pool
    at the smaller limits) on devices whose memory shrinks step by step,
    once with ``out_of_core`` off (the engine only recovers via the
    fallback ladder after hitting OOM) and once with it on (radix
    partitions spill through the tiered store and the first attempt
    completes on the GPU).  The sweep exposes the slowdown curve: it
    should be smooth and monotone, not a cliff.
    """
    from ..sql import SqlPlanner, TableStats
    from ..tpch import TABLE_BASE_ROWS, TPCH_QUERIES, TPCH_SCHEMAS

    data = generate_tpch(sf=sf)
    # Plan without projection pruning stats so the query's working set
    # genuinely exceeds the shrunken pools (MiniDuck's pruned plans fit
    # even the smallest limits in this sweep).
    stats = {
        name: TableStats(schema, max(int(TABLE_BASE_ROWS[name] * sf), 1))
        for name, schema in TPCH_SCHEMAS.items()
    }
    plan = SqlPlanner(stats).plan_sql(TPCH_QUERIES[query])
    baseline = SiriusEngine.for_spec(GH200)
    expected = baseline.execute(plan, data)
    out: dict = {
        "sf": sf,
        "query": query,
        "baseline_s": baseline.last_profile.sim_seconds,
        "baseline_rows": expected.num_rows,
        "sweep": [],
    }
    for mem in memory_limits_gb:
        entry: dict = {"memory_gb": mem}
        for ooc in (False, True):
            engine = SiriusEngine.for_spec(
                GH200, memory_limit_gb=mem, out_of_core=ooc
            )
            result = engine.execute(plan, data)
            profile = engine.last_profile
            key = "ooc" if ooc else "off"
            entry[f"{key}_s"] = profile.sim_seconds
            entry[f"{key}_tier"] = profile.fallback_tier
            entry[f"{key}_rows_match"] = result.num_rows == expected.num_rows
            if ooc:
                entry["spilled_bytes"] = profile.spill.get("spilled_bytes", 0)
                entry["unspilled_bytes"] = profile.spill.get("unspilled_bytes", 0)
        out["sweep"].append(entry)
    return out


def fusion_ablation(
    harness: AblationHarness, queries: tuple[int, ...] = (1, 6, 3)
) -> dict:
    """Fused billing against per-part billing of the same fused plans.

    Cold and hot runs of the given queries with ``fusion`` toggled (the
    ``baseline`` is per-part billing, the paper's configuration).  The
    streaming-bound queries (Q1, Q6) are where intermediate
    materialisation dominates, so fusion's effect is largest there; Q3 is
    the join-heavy control where most time sits in probe/build kernels
    and fusion only trims the residual streaming hops.

    Plans come from the raw SQL planner (as in ``oocore_ablation``), not
    MiniDuck's optimized pipeline: MiniDuck pushes filters into the scan
    and prunes projections, which *already* removes the intermediate
    materialisations fusion targets — the unpushed Filter -> Project
    chains are the shape whose cost fusion is meant to collapse.
    """
    from ..sql import SqlPlanner, TableStats
    from ..tpch import TABLE_BASE_ROWS, TPCH_QUERIES, TPCH_SCHEMAS

    stats = {
        name: TableStats(schema, max(int(TABLE_BASE_ROWS[name] * harness.sf), 1))
        for name, schema in TPCH_SCHEMAS.items()
    }
    planner = SqlPlanner(stats)
    out: dict = {"queries": list(queries), "per_query": {}}
    for query in queries:
        plan = planner.plan_sql(TPCH_QUERIES[query])
        entry: dict = {}
        for enabled in (False, True):
            engine = harness.fresh_engine(fusion=enabled)
            engine.execute(plan, harness.data)  # cold: pays the load
            cold = engine.last_profile
            engine.execute(plan, harness.data)
            hot = engine.last_profile
            key = "fused" if enabled else "baseline"
            entry[f"{key}_cold_s"] = cold.sim_seconds
            entry[f"{key}_hot_s"] = hot.sim_seconds
            entry[f"{key}_kernels"] = hot.kernel_count
            if enabled:
                entry["fused_regions"] = hot.fused_kernels
                entry["saved_bytes"] = hot.fusion_saved_bytes
        entry["hot_speedup"] = (
            entry["baseline_hot_s"] / entry["fused_hot_s"]
            if entry["fused_hot_s"]
            else float("inf")
        )
        out["per_query"][f"q{query}"] = entry
    return out


def predicate_transfer_ablation(sf: float = 0.05, query: int = 3) -> dict[str, float]:
    """The paper's §3.4 predicate-transfer optimisation on its Table 2
    bottleneck: Q3's shuffle."""
    from ..hosts import MiniDoris
    from ..tpch import generate_tpch, tpch_query

    data = generate_tpch(sf=sf)
    out = {}
    for enabled in (False, True):
        db = MiniDoris(num_nodes=4, mode="sirius", predicate_transfer=enabled)
        db.load_tables(data)
        db.warm_caches()
        result = db.execute(tpch_query(query))
        key = "pt" if enabled else "baseline"
        out[f"{key}_total_s"] = result.total_seconds
        out[f"{key}_exchange_s"] = result.exchange_seconds
        out[f"{key}_bytes"] = result.exchanged_bytes
    return out
