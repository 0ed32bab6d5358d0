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
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine, MiniDuck
from repro.sql import SqlPlanner, TableStats
from repro.tpch import TPCH_SCHEMAS, generate_tpch, tpch_query

SF = 0.01
# Pool size (GB) at which Q9's working set exceeds device memory at this
# scale — the benchmarks sweep a curve; here one point pins the behaviour.
OVER_HBM_GB = 0.015


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
                parts = real(table, key_indices, fanout, level=level)
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
