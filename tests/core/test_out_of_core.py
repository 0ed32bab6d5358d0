"""Out-of-core partitioned execution (the graceful-spill path).

``SiriusEngine(out_of_core=True)`` runs joins and group-bys as radix
partitions whose fragments spill through the tiered store instead of
falling back off the GPU.  These tests pin:

* correctness — every TPC-H query agrees with the in-core engine
  (up to float summation order: partitioning reorders join outputs);
* the acceptance scenario — an over-HBM Q9 completes *on the GPU tier*
  (no fallback, no rejection) with spill activity in the profile;
* observability — the profile's spill section and the fallback events'
  memory context (watermark, attempted spill bytes);
* defaults — with the flag off and comfortable memory, nothing spills
  and the profile's spill section stays empty.
"""

import numpy as np
import pytest

from repro.columnar import INT64, Column, Schema, Table
from repro.core import SiriusEngine
from repro.core.fallback import OOC_RETRY_BATCH_ROWS
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine, MiniDuck
from repro.kernels import GTable
from repro.sql import SqlPlanner, TableStats
from repro.tpch import TPCH_SCHEMAS, generate_tpch, tpch_query

SF = 0.01
# Pool size (GB) at which Q9's working set exceeds device memory at this
# scale and its sink inputs outgrow the spool's in-core hold (one leaf, a
# quarter of the processing pool), so fragments really spill — the
# benchmarks sweep a curve; here one point pins the behaviour.
OVER_HBM_GB = 0.012


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=SF)


@pytest.fixture(scope="module")
def planner(data):
    stats = {}
    for name, t in data.items():
        distinct = {
            f.name: int(len(np.unique(c.data))) for f, c in zip(t.schema, t.columns)
        }
        stats[name] = TableStats(TPCH_SCHEMAS[name], t.num_rows, distinct)
    return SqlPlanner(stats)


@pytest.fixture(scope="module")
def in_core(data):
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0)
    engine.warm_cache(data)
    return engine


@pytest.fixture(scope="module")
def ooc(data):
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0, out_of_core=True)
    engine.warm_cache(data)
    return engine


def normalise(table):
    """Rows as tuples with tolerant float representation (partitioned
    execution reorders the floating-point sums)."""
    out = []
    for row in table.to_rows():
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(f"{value:.6g}")
            else:
                cells.append(repr(value))
        out.append(tuple(cells))
    out.sort()
    return out


@pytest.mark.usefixtures("partition_every_sink")
class TestOutOfCoreCorrectness:
    @pytest.mark.parametrize("q", range(1, 23))
    def test_matches_in_core_engine(self, data, planner, in_core, ooc, q):
        plan = planner.plan_sql(tpch_query(q))
        expected = in_core.execute(plan, data)
        got = ooc.execute(plan, data)
        assert normalise(got) == normalise(expected)

    def test_partitioned_path_leaves_pool_stable(self, data, planner, ooc):
        """Every partition fragment and intermediate chunk is released:
        repeated queries leave the same residual footprint (just the
        final output awaiting the next pool reset) and zero fragments."""
        plan = planner.plan_sql(tpch_query(9))
        ooc.execute(plan, data)
        first = ooc.device.processing_pool.stats().in_use
        ooc.execute(plan, data)
        assert ooc.device.processing_pool.stats().in_use == first
        assert ooc.buffer_manager.spill_stats()["live_fragments"] == 0


class TestOverHbmCompletion:
    """The acceptance scenario: working set > device memory, GPU tier."""

    def test_q9_completes_on_gpu_without_fallback(self, data, planner, in_core):
        plan = planner.plan_sql(tpch_query(9))
        expected = in_core.execute(plan, data)

        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=OVER_HBM_GB, out_of_core=True
        )
        got = engine.execute(plan, data)
        profile = engine.last_profile
        # First attempt finished on the GPU: no ladder walk, no events.
        assert profile.fallback_tier is None
        assert engine.fallback.fallback_count == 0
        assert normalise(got) == normalise(expected)
        # The spill machinery really engaged, and the profile says so.
        assert profile.spill["spilled_bytes"] > 0
        assert profile.spill["fragment_spills"] > 0
        assert profile.spill["unspilled_bytes"] > 0
        # Whatever was spilled out was brought back before finishing.
        assert engine.buffer_manager.spill_stats()["live_fragments"] == 0

    def test_same_pool_without_flag_needs_the_ladder(
        self, data, planner, config_observer
    ):
        """Contrast: the identical over-HBM run with the flag off only
        survives via the degradation ladder, and its fallback events carry
        the memory context (watermark + attempted spill bytes)."""
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=OVER_HBM_GB, tracer=config_observer
        )
        config_observer.engine = engine
        engine.execute(planner.plan_sql(tpch_query(9)), data)
        profile = engine.last_profile
        assert profile.fallback_tier == "gpu-spill"
        # The partitioned retry was configured by argument: the engine
        # never read as an out-of-core engine while it ran.
        assert config_observer.seen == {(False, None)}
        assert engine.fallback.fallback_count >= 1
        event = engine.fallback.events[0]
        assert event.exception_type == "OutOfDeviceMemory"
        assert event.memory_watermark is not None and event.memory_watermark > 0
        assert event.spill_bytes_attempted is not None
        assert event.spill_bytes_attempted >= 0


class TestDiskTier:
    def test_pinned_budget_below_spill_volume_demotes_to_disk(self, data, planner):
        """Pinned staging smaller than what the query spills: fragments
        go on down to the simulated disk and come back intact."""
        plan = planner.plan_sql(tpch_query(9))
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=OVER_HBM_GB, out_of_core=True
        )
        engine.buffer_manager.pinned_fragment_budget = 1 << 16
        got = engine.execute(plan, data)
        spill = engine.last_profile.spill
        assert spill["spilled_bytes"] > engine.buffer_manager.pinned_fragment_budget
        assert spill["disk_spills"] > 0 and spill["disk_spilled_bytes"] > 0
        assert engine.device.disk_read_bytes > 0
        assert engine.fallback.fallback_count == 0
        assert normalise(got) == normalise(CpuEngine().execute(plan, data))


class TestRecursivePartitioning:
    """A first-level partition over the leaf budget (a quarter of the
    pool) is re-split with the next salt, and the probe follows it down."""

    ROWS = 150_000

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(7)
        keys = np.arange(self.ROWS)

        def table(**cols):
            return Table(
                Schema([(name, "int64") for name in cols]),
                [Column(INT64, np.asarray(v, dtype=np.int64)) for v in cols.values()],
            )

        return {
            "t": table(
                k=rng.integers(0, self.ROWS, self.ROWS + 1),
                v=rng.integers(0, 100, self.ROWS + 1),
            ),
            # 4.8 MB build side against a 2 MB pool: 600 KB per first-level
            # partition, 500 KB leaf budget.
            "u": table(k=keys, g=keys % 1000, a=keys % 7, b=keys % 11),
        }

    def test_over_budget_leaf_is_resplit_and_probe_descends(self, wide, monkeypatch):
        from repro.core.operators import join, spool

        calls = []  # (module, level, rows in, largest part out)

        def counting(module):
            real = module.partition_by_keys

            def partition(table, key_indices, fanout, level=0):
                rows = table.num_rows
                parts = list(real(table, key_indices, fanout, level=level))
                largest = max(p.num_rows for p in parts if p is not None)
                calls.append((module.__name__.rsplit(".", 1)[-1], level, rows, largest))
                return parts

            return partition

        monkeypatch.setattr(spool, "partition_by_keys", counting(spool))
        monkeypatch.setattr(join, "partition_by_keys", counting(join))

        db = MiniDuck()
        db.load_tables(wide)
        plan = db.plan(
            "select u.g, sum(t.v + u.a + u.b) as s, count(*) as n "
            "from t join u on t.k = u.k group by u.g"
        )
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=0.02, caching_fraction=0.9, out_of_core=True,
            batch_rows=4096,
        )
        got = engine.execute(plan, wide)

        resplits = [c for c in calls if c[0] == "spool" and c[1] >= 1]
        descents = [c for c in calls if c[0] == "join" and c[1] >= 1]
        assert resplits and descents
        # A re-split that sends every row to one bucket again splits nothing.
        assert all(largest < rows / 4 for _m, _l, rows, largest in resplits if rows > 1000)
        assert max(level for _m, level, _r, _l in calls) == 1
        assert engine.last_profile.fallback_tier is None
        assert engine.fallback.fallback_count == 0
        assert normalise(got) == normalise(CpuEngine().execute(plan, wide))


def _ints(**cols):
    return Table(
        Schema([(name, "int64") for name in cols]),
        [Column(INT64, np.asarray(v, dtype=np.int64)) for v in cols.values()],
    )


def _counting(monkeypatch, target, name, calls):
    real = getattr(target, name)
    monkeypatch.setattr(target, name, lambda *a, **k: calls.append(a) or real(*a, **k))


class TestInCoreFirst:
    """The spool partitions only what does not fit: a sink holds its input
    in core, as the in-core sink does, until the held total outgrows one
    leaf (a quarter of the pool's effective limit)."""

    ROWS = 40_000

    @pytest.fixture(scope="class")
    def roomy_pair(self, data):
        """An out-of-core engine and the in-core engine with its chunking."""
        engines = (
            SiriusEngine.for_spec(GH200, memory_limit_gb=8.0, out_of_core=True),
            SiriusEngine.for_spec(GH200, memory_limit_gb=8.0, batch_rows=OOC_RETRY_BATCH_ROWS),
        )
        for engine in engines:
            engine.warm_cache(data)
        return engines

    @pytest.mark.parametrize("q", range(1, 23))
    def test_roomy_pool_runs_the_in_core_plan(self, data, planner, roomy_pair, q, monkeypatch):
        from repro.core.operators import join, spool

        on, off = roomy_pair
        calls = []
        _counting(monkeypatch, spool, "partition_by_keys", calls)
        _counting(monkeypatch, join, "partition_by_keys", calls)
        _counting(monkeypatch, on.buffer_manager, "put_fragment", calls)
        plan = planner.plan_sql(tpch_query(q))
        got, want = on.execute(plan, data), off.execute(plan, data)
        assert got.to_rows() == want.to_rows()
        assert on.last_profile.kernel_count == off.last_profile.kernel_count
        assert repr(on.last_profile.sim_seconds) == repr(off.last_profile.sim_seconds)
        assert calls == []

    @pytest.fixture(scope="class")
    def narrow(self):
        rng = np.random.default_rng(11)
        keys = np.arange(self.ROWS)
        return {
            "t": _ints(k=rng.integers(0, self.ROWS, self.ROWS), v=rng.integers(0, 100, self.ROWS)),
            "u": _ints(k=keys, g=keys % 1000, a=keys % 7, b=keys % 11),
        }

    @pytest.mark.parametrize("memory_gb", [0.02, 8.0], ids=["crossing", "roomy"])
    @pytest.mark.parametrize(
        "sql",
        [
            "select count(*) as n, sum(t.v + u.a + u.b) as s from t join u on t.k = u.k",
            "select g, sum(a) as sa, sum(b) as sb, count(*) as n from u group by g",
        ],
        ids=["join-build", "group-by"],
    )
    def test_held_chunks_are_scattered_once_or_released(self, narrow, sql, memory_gb, monkeypatch):
        """960 KB of sink input in 196 KB chunks.  Against a 500 KB leaf
        budget the held total crosses it at a later chunk, which scatters
        every held chunk; each later chunk is scattered on arrival, and
        every chunk exactly once.  In a roomy pool nothing is scattered and
        the held chunks are released after the concat."""
        from repro.core.operators import spool
        from repro.core.operators.aggregate import GroupBySink
        from repro.core.operators.join import HashJoinBuildSink

        scattered = []  # level-0 spool inputs, in order

        real_partition = spool.partition_by_keys

        def partition(table, key_indices, fanout, level=0):
            if level == 0:
                scattered.append(table)
            return real_partition(table, key_indices, fanout, level=level)

        monkeypatch.setattr(spool, "partition_by_keys", partition)
        consumed = []  # (chunk, spool inputs scattered while consuming it)
        for sink in (HashJoinBuildSink, GroupBySink):

            def consume(self, ctx, chunk, state, real=sink.consume):
                before = len(scattered)
                real(self, ctx, chunk, state)
                consumed.append((chunk, scattered[before:]))

            monkeypatch.setattr(sink, "consume", consume)

        db = MiniDuck()
        db.load_tables(narrow)
        plan = db.plan(sql)
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=memory_gb, caching_fraction=0.9, out_of_core=True,
            batch_rows=8192, sanitize=True,
        )
        got = engine.execute(plan, narrow)

        chunks = [chunk for chunk, _ in consumed]
        per_chunk = [len(made) for _, made in consumed]
        assert len(chunks) == 5
        if memory_gb > 1:
            assert per_chunk == [0] * 5
        else:
            k = next(i for i, n in enumerate(per_chunk) if n)
            assert k >= 1  # at least one chunk was held before the crossing
            assert per_chunk == [0] * k + [k + 1] + [1] * (len(chunks) - k - 1)
            assert [id(t) for _, made in consumed for t in made] == [id(c) for c in chunks]
        assert all(col.buffer.is_freed for chunk in chunks for col in chunk.columns)
        assert normalise(got) == normalise(CpuEngine().execute(plan, narrow))
        assert engine.buffer_manager.spill_stats()["live_fragments"] == 0
        san = engine.sanitizer.report("spool")
        assert san.ok, san.to_json()

    def test_hold_follows_the_soft_limit_of_a_pressure_window(self):
        from types import SimpleNamespace

        from repro.core.operators import spool
        from repro.faults import FaultInjector, FaultPlan

        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=0.02, out_of_core=True)
        pool = engine.device.processing_pool
        ctx = SimpleNamespace(device=engine.device)
        quarter = pool.capacity // 4
        assert spool._hold(ctx, quarter) and not spool._hold(ctx, quarter + 1)

        FaultInjector(
            FaultPlan().memory_pressure(start=0.0, end=100.0, factor=0.3)
        ).attach_device(engine.device)
        engine.device.new_buffer(np.zeros(1), "processing")  # the window bites here
        assert pool.soft_limit == int(pool.capacity * 0.3)
        quarter = pool.soft_limit // 4
        assert spool._hold(ctx, quarter) and not spool._hold(ctx, quarter + 1)

    def test_scatter_needs_headroom_for_one_piece_not_the_chunk(self):
        """Room for half the chunk: the pieces registered first spill to
        make room for the later ones instead of the scatter raising OOM."""
        from repro.core.operators import spool
        from repro.core.operators.base import ExecutionContext

        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=0.02, out_of_core=True)
        bm, pool = engine.buffer_manager, engine.device.processing_pool
        keys = np.arange(100_000)
        chunk = GTable.from_host(engine.device, _ints(k=keys, v=keys * 3))
        pool.soft_limit = pool.in_use + chunk.nbytes // 2
        ctx = ExecutionContext(engine.device, bm, {}, engine.registry, out_of_core=True)
        state = {"slots": {}, "frag_ns": bm.fragment_namespace()}

        spool.spool_chunk(ctx, chunk, [0], "s", state)

        assert spool.scattered(state) and bm.pressure_spills > 0
        leaves = [table for _path, table in spool.spooled_leaves(ctx, [0], state)]
        got = np.concatenate([leaf.column("k").data for leaf in leaves])
        assert np.array_equal(np.sort(got), keys)
        assert bm.spill_stats()["live_fragments"] == 0


class TestOneOperatorTree:
    """Out-of-core is a property of the run, not of the plan: both modes
    compile the same pipelines, and only the run's context tells the
    spool whether it may scatter."""

    @pytest.mark.parametrize("q", range(1, 23))
    def test_both_modes_explain_the_same_pipelines(self, planner, in_core, ooc, q):
        plan = planner.plan_sql(tpch_query(q))
        assert ooc.explain_physical(plan) == in_core.explain_physical(plan)

    @pytest.mark.parametrize("q", [3, 9])
    def test_partition_every_sink_is_inert_in_core(self, data, planner, q, request):
        """The fixture forces every out-of-core hold decision to scatter; an
        in-core run never asks, so it runs exactly as without it."""
        plan = planner.plan_sql(tpch_query(q))

        def run():
            engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0)
            engine.warm_cache(data)
            return engine.execute(plan, data).to_rows(), engine.last_profile

        rows, profile = run()
        request.getfixturevalue("partition_every_sink")
        forced_rows, forced = run()
        assert forced_rows == rows
        assert forced.kernel_count == profile.kernel_count
        assert repr(forced.sim_seconds) == repr(profile.sim_seconds)


class TestFilteredScanReleasesItsBatches:
    """A scan's pushed filter runs as the ``FilterOp`` after it, so an
    out-of-core run disposes each pre-filter batch at that operator
    boundary instead of keeping every slice in the pool until the query
    ends."""

    ROWS, BATCH = 40_000, 5_000

    def test_peak_is_about_one_batch(self):
        from repro.plan import Plan
        from repro.plan.expressions import AggregateCall, FieldRef, Literal, ScalarCall
        from repro.plan.relations import AggregateRel, ReadRel

        keys = np.arange(self.ROWS)
        table = _ints(k=keys, v=keys * 3)
        pushed = ScalarCall("lt", [FieldRef(0), Literal(100)])
        plan = Plan(
            AggregateRel(
                ReadRel("t", table.schema, filter_expr=pushed),
                [],
                [(AggregateCall("sum", FieldRef(1)), "total")],
            )
        )
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=1.0, out_of_core=True, batch_rows=self.BATCH
        )
        got = engine.execute(plan, {"t": table})
        assert got.to_rows() == [(int((keys[:100] * 3).sum()),)]
        batch_bytes = table.nbytes * self.BATCH // self.ROWS
        assert engine.last_profile.chunks_processed > self.ROWS // self.BATCH
        assert engine.last_profile.device_mem_peak <= 2 * batch_bytes


class TestRegionsReleaseEachStage:
    """Out-of-core, a region frees each stage's input once that stage's
    output exists, under fused billing as under per-part billing: at
    SF 0.02 Q1, Q6 and Q15 fit a 0.032 GB pool under either billing, with
    no retry and no fallback, and the fused region's pool peak is no
    higher than per-part billing's."""

    @pytest.fixture(scope="class")
    def data02(self):
        return generate_tpch(sf=0.02)

    @pytest.mark.parametrize("q", [1, 6, 15])
    def test_small_pool_completes_under_both_billings(self, data02, q):
        stats = {
            name: TableStats(
                TPCH_SCHEMAS[name],
                t.num_rows,
                {f.name: int(len(np.unique(c.data))) for f, c in zip(t.schema, t.columns)},
            )
            for name, t in data02.items()
        }
        plan = SqlPlanner(stats).plan_sql(tpch_query(q))
        rows, peaks = [], []
        for fusion in (False, True):
            engine = SiriusEngine.for_spec(
                GH200, memory_limit_gb=0.032, out_of_core=True, overlap=True, fusion=fusion
            )
            rows.append(normalise(engine.execute(plan, data02)))
            assert engine.fallback.fallback_count == 0, (q, fusion)
            peaks.append(engine.last_profile.device_mem_peak)
        assert rows[0] == rows[1]
        assert peaks[1] <= peaks[0]


class TestDefaultsUnchanged:
    def test_flag_off_profile_has_no_spill_section(self, data, planner, in_core):
        in_core.execute(planner.plan_sql(tpch_query(6)), data)
        assert in_core.last_profile.spill == {}
        assert in_core.out_of_core is False

    def test_flag_off_by_default(self):
        assert SiriusEngine.for_spec(GH200).out_of_core is False

    def test_profile_spill_section_serialises(self, data, planner):
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=OVER_HBM_GB, out_of_core=True
        )
        engine.execute(planner.plan_sql(tpch_query(9)), data)
        snapshot = engine.last_profile.to_dict()
        assert snapshot["spill"]["spilled_bytes"] > 0
