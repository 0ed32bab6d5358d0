"""Fusion at the pipeline breakers: the regions fused billing adds there.

* an aggregate sink finalizes in regions — a ``GlobalAggSink`` in one, a
  ``GroupBySink`` in one per held table (or scattered leaf) — that hold
  the concat, the measure arguments, every aggregation kernel, the avg
  divides and the one-row write;
* a probe runs the Filter/Project run that opens its pipeline (its
  ``input_stages``) and its ``HASH_PROBE`` as one region;
* a held build keeps its hash table: built once by the sink, so each
  probe call charges only ``HASH_PROBE``.  Per-part billing (the paper's
  configuration) charges a build per probe call, as it always has.

The fused pressure engine's clock — the ``tpch_pressure`` configuration —
is pinned per TPC-H query in ``golden_fused_pressure_sim_clock.json``.
Regenerate it deliberately with ``PYTHONPATH=src:. python -m
tests.core.test_breaker_regions``.
"""

import json
from pathlib import Path

import pytest

from repro.columnar import Schema, Table
from repro.core import SiriusEngine
from repro.core.operators.aggregate import GlobalAggSink, GroupBySink
from repro.core.operators.join import HashJoinProbe
from repro.gpu.specs import GH200
from repro.plan import PlanBuilder, col, lit
from repro.tpch import generate_tpch, tpch_query
from tests.core.test_fusion_equivalence import _record_launches, raw_bytes, stats_planner

GOLDEN_FUSED_PRESSURE = Path(__file__).with_name("golden_fused_pressure_sim_clock.json")
PRESSURE_SF = 0.02

_SCHEMA = Schema([("g", "int64"), ("x", "float64"), ("y", "int64")])


def _data(rows=40):
    return {
        "t": Table.from_pydict(
            {
                "g": [i % 3 for i in range(rows)],
                "x": [float(i) for i in range(rows)],
                "y": [i * 7 % 5 for i in range(rows)],
            },
            _SCHEMA,
        )
    }


def _finalize_launches(monkeypatch, sink_class, plan, fusion):
    """Run ``plan`` over two held chunks; returns the result and the
    launches each ``sink_class`` finalize charged."""
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, batch_rows=20, fusion=fusion)
    seen = []
    real = sink_class.finalize

    def counting(self, ctx, state):
        assert len(state["chunks"]) == 2
        before = ctx.device.kernel_count
        out = real(self, ctx, state)
        seen.append(ctx.device.kernel_count - before)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(sink_class, "finalize", counting)
        return engine.execute(plan, _data()), seen


class TestAggregateFinalizeRegion:
    def test_global_aggregate_finalizes_in_one_launch(self, monkeypatch):
        plan = (
            PlanBuilder.read("t", _SCHEMA)
            .aggregate(groups=[], aggs=[("sum", "x", "s"), ("min", "y", "m"), ("avg", "x", "a")])
            .build()
        )
        fused, fused_launches = _finalize_launches(monkeypatch, GlobalAggSink, plan, True)
        plain, plain_launches = _finalize_launches(monkeypatch, GlobalAggSink, plan, False)
        assert raw_bytes(fused) == raw_bytes(plain)
        assert fused_launches == [1]
        # Per part: the concat, then a reduction and a one-row write each.
        assert plain_launches == [7]

    def test_held_group_by_finalizes_in_one_launch(self, monkeypatch):
        plan = (
            PlanBuilder.read("t", _SCHEMA)
            .aggregate(groups=["g"], aggs=[("sum", "x", "s"), ("avg", "y", "a")])
            .build()
        )
        fused, fused_launches = _finalize_launches(monkeypatch, GroupBySink, plan, True)
        plain, plain_launches = _finalize_launches(monkeypatch, GroupBySink, plan, False)
        assert raw_bytes(fused) == raw_bytes(plain)
        assert fused_launches == [1]
        # Per part: the concat, the group-by kernel and the avg divide.
        assert plain_launches == [3]


@pytest.fixture(scope="module")
def tpch():
    return generate_tpch(sf=0.01)


class TestKeptHashTable:
    def test_q3_builds_once_per_held_build_under_fused_billing(self, monkeypatch, tpch):
        """Q3's customer pipeline probes two held builds (orders and
        lineitem) in two chunks: fused billing builds each table once, in
        the region that concatenates its chunks; per-part billing builds
        once per probe call."""
        plan = stats_planner(tpch).plan_sql(tpch_query(3))
        got = {}
        for fusion in (False, True):
            engine = SiriusEngine.for_spec(
                GH200, memory_limit_gb=8.0, batch_rows=1_000, fusion=fusion
            )
            engine.warm_cache(tpch)
            calls = []
            real = HashJoinProbe.process

            def counting(self, ctx, chunk, state):
                calls.append(self.build_slot)
                return real(self, ctx, chunk, state)

            charged, regions = _record_launches(monkeypatch, engine)
            with monkeypatch.context() as patch:
                patch.setattr(HashJoinProbe, "process", counting)
                got[fusion] = raw_bytes(engine.execute(plan, tpch))
            launched = charged + [part for region in regions for part in region]
            probed = set(calls)
            assert len(calls) == 2 * len(probed) == 4  # two chunks per probe
            assert launched.count("hash_build") == (len(probed) if fusion else len(calls))
            assert launched.count("hash_probe") == len(calls)
        assert got[False] == got[True]


class TestProbeInputRegion:
    def test_the_opening_run_and_hash_probe_are_one_launch(self, monkeypatch):
        """A filtered probe side: fused billing charges the build, then one
        region for the filter and the probe; per-part billing charges the
        filter, the build and the probe."""
        probe = Schema([("k", "int64"), ("v", "float64")])
        build = Schema([("k2", "int64"), ("w", "float64")])
        plan = (
            PlanBuilder.read("p", probe)
            .filter(col("v") > lit(1.5))
            .join(PlanBuilder.read("b", build), "semi", [("k", "k2")])
            .build()
        )
        data = {
            "p": Table.from_pydict({"k": [1, 2, 3, 4, 2], "v": [1.0, 2.0, 3.0, 4.0, 5.0]}, probe),
            "b": Table.from_pydict({"k2": [2, 3, 5], "w": [2.0, 1.0, 0.0]}, build),
        }
        got = {}
        for fusion in (False, True):
            engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=fusion)
            charged, regions = _record_launches(monkeypatch, engine)
            got[fusion] = raw_bytes(engine.execute(plan, data))
            filter_parts = ["stream", "stream"]  # the comparison and the compaction
            output = ["stream", "gather", "gather"]  # the map's return trip, the gathers
            if fusion:
                assert charged == ["hash_build", "fused", "stream", "fused"]
                assert regions == [filter_parts + ["hash_probe"], output]
            else:
                assert charged == filter_parts + ["hash_build", "hash_probe", "stream"] + output
                assert regions == []
        assert got[False] == got[True]


def fused_pressure_sim_clock():
    """Per TPC-H query, each on a fresh ``tpch_pressure`` engine (cold
    caches, a 0.032 GB pool, out-of-core, overlap and fused billing)
    behind ``MiniDuck`` and ``SiriusExtension`` at SF 0.02: the ``repr``
    of the profile's sim seconds and Figure-5 buckets, its launches and
    its fused regions."""
    from repro.hosts import CpuEngine, MiniDuck, SiriusExtension

    data = generate_tpch(sf=PRESSURE_SF, seed=1)
    got = {}
    for q in range(1, 23):
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=0.032, out_of_core=True, overlap=True, fusion=True
        )
        db = MiniDuck()
        db.load_tables(data)
        db.install_extension(SiriusExtension(engine, fallback_engine=CpuEngine()))
        result = db.execute(tpch_query(q))
        assert result.engine == "sirius-gpu", q
        profile = result.profile
        got[f"Q{q}"] = {
            "sim_seconds": repr(profile.sim_seconds),
            "kernel_count": profile.kernel_count,
            "fused_kernels": profile.fused_kernels,
            "breakdown": {k: repr(v) for k, v in sorted(profile.breakdown.items())},
        }
    return got


class TestFusedPressureGolden:
    def test_matches_golden(self):
        got = fused_pressure_sim_clock()
        assert got == json.loads(GOLDEN_FUSED_PRESSURE.read_text())
        # The global aggregate finalizes in one region.
        assert got["Q6"]["kernel_count"] == 5


if __name__ == "__main__":
    GOLDEN_FUSED_PRESSURE.write_text(json.dumps(fused_pressure_sim_clock(), indent=1) + "\n")
