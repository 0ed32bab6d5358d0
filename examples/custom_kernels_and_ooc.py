#!/usr/bin/env python3
"""Advanced engine features: kernel swapping, out-of-core, fallback.

Demonstrates three §3.2/§3.4 mechanisms:

1. **operator implementation registry** — switch the group-by between
   libcudf's (sort-based for strings) and a custom hash kernel, and the
   join between hash and sort-merge, without touching the plan;
2. **out-of-core execution** — a device with a deliberately tiny memory
   limit spills cached tables to pinned host memory and streams pipelines
   in batches, still producing exact results;
3. **graceful CPU fallback** — an engine whose device cannot hold the
   data even with spilling walks its GPU retries, then falls back to the
   host CPU engine.

Run:  python examples/custom_kernels_and_ooc.py
"""

from repro.core import SiriusEngine
from repro.gpu.specs import A100_40G, GH200
from repro.hosts import CpuEngine, MiniDuck
from repro.tpch import generate_tpch, tpch_query


def main() -> None:
    data = generate_tpch(sf=0.05)
    host = MiniDuck()
    host.load_tables(data)

    # --- 1. implementation registry -------------------------------------
    plan = host.plan(tpch_query(10))  # string-keyed group-by
    engine = SiriusEngine.for_spec(GH200)
    engine.warm_cache(data)
    print("Operator implementations available:",
          {k: engine.registry.available(k) for k in ("join", "groupby")})
    for impl in ("libcudf", "custom"):
        engine.use_implementation("groupby", impl)
        result = engine.execute(plan, data)
        print(
            f"Q10 with {impl:7s} group-by: {engine.last_profile.sim_seconds*1000:7.3f} ms "
            f"({result.num_rows} rows)"
        )

    # --- 2. out-of-core: tiny device + batched pipelines -----------------
    # The SF-0.05 database is ~35 MB but the caching region only gets
    # ~32 MB: warming every table forces the LRU spill path (tables
    # shuttle between device and pinned host memory over PCIe), and
    # pipelines stream in 20k-row batches (3.4's out-of-core execution).
    small = SiriusEngine.for_spec(
        A100_40G,
        memory_limit_gb=0.4,
        caching_fraction=0.08,
        batch_rows=20_000,
    )
    small.warm_cache(data)
    plan1 = host.plan(tpch_query(1))
    result = small.execute(plan1, data)
    stats = small.buffer_manager.stats()
    print(
        f"\nOut-of-core Q1 with a 32 MB caching region: {result.num_rows} rows, "
        f"{stats['spills']} spills, {stats['pinned_host_bytes']/1e6:.1f} MB pinned"
    )

    reference = SiriusEngine.for_spec(GH200)
    assert result.to_pydict() == reference.execute(plan1, data).to_pydict()
    print("out-of-core result identical to the in-memory run")

    # --- 3. graceful CPU fallback ----------------------------------------
    # A 2 MB caching region cannot hold lineitem's Q1 columns even with
    # spilling: both GPU retries run out of memory too.
    strict = SiriusEngine.for_spec(A100_40G, memory_limit_gb=0.004)
    strict.set_host_executor(CpuEngine().execute)
    result = strict.execute(plan1, data)  # device OOMs -> host engine runs it
    event = strict.fallback.events[-1]
    print(
        f"\n4 MB device fell back to the host engine "
        f"({strict.fallback.fallback_count} fallback events, tiers tried: "
        f"{', '.join(event.tiers_attempted)}): {result.num_rows} rows"
    )
    print("last fallback reason:", strict.fallback.events[-1].reason[:80])


if __name__ == "__main__":
    main()
