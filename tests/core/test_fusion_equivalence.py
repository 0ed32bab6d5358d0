"""The fusion equivalence gate: fused billing must be invisible in results.

Every plan runs fused (streaming runs collapsed into compiled
:class:`FusedOp` regions, probes and Sort/Top-N sinks assembling their
output in regions); ``SiriusEngine(fusion=)`` picks only how the device
bills a region — one launch (fused billing) or each part as the launch
it was (per-part billing, the paper's configuration).  Billing is a pure
cost-model choice, so every observable *result* must be byte-identical
either way, while the modeled kernel count and wall time strictly shrink
on streaming-heavy queries under fused billing.

The gate:

* all 22 TPC-H queries and the whole battery, fused vs per-part billing,
  raw column buffers compared byte-for-byte;
* the same on the scattered path (out-of-core, every keyed sink
  partitioned), where each leaf of a partitioned build assembles its own
  probe output and the absorbed stages run on each coalesced batch —
  Q21's filtered semi/anti joins and the key-less cross joins named
  explicitly;
* the paper configuration's simulated cost pinned per TPC-H query and
  Figure-5 bucket (warm, and scattered), and per statement for a 50-case
  battery sample, against golden files;
* common-subexpression elimination happens under fused billing only;
* the ``busy_s`` partition invariant holds for fused runs (every clock
  advance still lands in exactly one measured operator region);
* every TPC-H and battery plan compiles into regions only — no bare
  Filter/Project stage in a pipeline, no region that could have been
  longer;
* the runtime sanitizer is clean executing under fusion;
* a hypothesis property re-checks fused == per-part over random plans.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Schema, Table
from repro.core import SiriusEngine
from repro.core.planner import compile_plan
from repro.gpu.specs import GH200
from repro.obs import Tracer
from repro.plan import PlanBuilder, col, lit
from repro.sql import SqlPlanner, TableStats
from repro.tpch import TPCH_SCHEMAS, generate_tpch, tpch_query
from tests.core.test_random_plans import normalise, plans, tables

SF = 0.01
GOLDEN_SIM_CLOCK = Path(__file__).with_name("golden_battery50_sim_clock.json")
GOLDEN_PAPER_SIM_CLOCK = Path(__file__).with_name("golden_paper_sim_clock.json")


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=SF)


@pytest.fixture(scope="module")
def planner(data):
    return stats_planner(data)


def stats_planner(data):
    stats = {}
    for name, t in data.items():
        distinct = {
            f.name: int(len(np.unique(c.data))) for f, c in zip(t.schema, t.columns)
        }
        stats[name] = TableStats(TPCH_SCHEMAS[name], t.num_rows, distinct)
    return SqlPlanner(stats)


@pytest.fixture(scope="module")
def plain(data):
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0)
    engine.warm_cache(data)
    return engine


@pytest.fixture(scope="module")
def fused(data):
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0, fusion=True)
    engine.warm_cache(data)
    return engine


def values(table):
    """Each column's valid values, strings decoded, and its validity: what
    a reader of the result sees.  The scattered path coalesces per-leaf
    probe outputs with ``concat_gtables``, whose merged dictionary keeps
    only the entries its rows reference; a fused probe filters each leaf
    before that merge, so a string column may carry fewer *unused*
    dictionary entries than unfused (TPC-H Q2) while every value is the
    same."""
    out = []
    for c in table.columns:
        valid = (
            np.ones(len(c.data), dtype=bool)
            if c.validity is None
            else np.asarray(c.validity, dtype=bool)
        )
        data = np.asarray(c.data)[valid]
        if getattr(c, "dictionary", None) is not None:
            out.append((tuple(np.asarray(c.dictionary)[data].tolist()), valid.tobytes()))
        else:
            out.append((data.tobytes(), valid.tobytes()))
    return out


def raw_bytes(table):
    """Raw host-column payloads: strictest possible equality."""
    out = []
    for c in table.columns:
        out.append(
            (
                np.asarray(c.data).tobytes(),
                None if c.validity is None else np.asarray(c.validity).tobytes(),
                None
                if getattr(c, "dictionary", None) is None
                else tuple(c.dictionary.tolist()),
            )
        )
    return out


class TestTpchByteIdentity:
    @pytest.mark.parametrize("q", range(1, 23))
    def test_fused_matches_unfused(self, q, data, planner, plain, fused):
        plan = planner.plan_sql(tpch_query(q))
        a = plain.execute(plan, data)
        b = fused.execute(plan, data)
        assert a.schema == b.schema
        assert raw_bytes(a) == raw_bytes(b)

    def test_fusion_reduces_modeled_cost_on_streaming_queries(
        self, data, planner, plain, fused
    ):
        """Q1 and Q6 are the paper's streaming-bound queries: fusion must
        strictly shrink both the kernel count and the modeled wall time,
        and record the intermediate bytes it stopped charging for."""
        for q in (1, 6):
            plan = planner.plan_sql(tpch_query(q))
            plain.execute(plan, data)
            unfused_profile = plain.last_profile
            fused.execute(plan, data)
            fused_profile = fused.last_profile
            assert fused_profile.kernel_count < unfused_profile.kernel_count
            assert fused_profile.sim_seconds < unfused_profile.sim_seconds
            assert fused_profile.fused_kernels > 0
            assert fused_profile.fusion_saved_bytes > 0
            assert unfused_profile.fused_kernels == 0
            assert unfused_profile.fusion_saved_bytes == 0


_FP_SCHEMA = Schema([("a", "int64"), ("b", "float64")])


def _filter_project_plan():
    from repro.plan import Plan
    from repro.plan.expressions import FieldRef, Literal, ScalarCall
    from repro.plan.relations import FilterRel, ProjectRel, ReadRel

    condition = ScalarCall("gt", [FieldRef(0), Literal(1)])
    return Plan(ProjectRel(FilterRel(ReadRel("t", _FP_SCHEMA), condition), [FieldRef(1)], ["b"]))


def assert_regions_only(physical, what):
    """The compiler emits regions: every streaming operator is a
    :class:`FusedOp` or a probe, no bare Filter/Project stage stands in a
    pipeline, and every region is maximal — no ``FusedOp`` follows another
    region, because the run after a probe is that probe's ``stages``, and
    no ``FusedOp`` precedes a probe, because the run that opens a pipeline
    and feeds a probe is that probe's ``input_stages``."""
    from repro.core.operators.fused import FusedOp
    from repro.core.operators.join import HashJoinProbe

    for pipeline in physical.pipelines:
        kinds = [type(op) for op in pipeline.operators]
        assert set(kinds) <= {FusedOp, HashJoinProbe}, (what, pipeline.describe())
        assert FusedOp not in kinds[1:], (what, pipeline.describe())
        assert kinds[:2] != [FusedOp, HashJoinProbe], (what, pipeline.describe())


# The seed compiler's operator classes per pipeline for TPC-H Q1/3/5/9/21
# at SF 0.01 under the stats planner, recorded before the compiler emitted
# regions: what per-part billing charges, launch by launch.
SEED_OPERATOR_CLASSES = {
    1: [["FilterOp", "ProjectOp"], ["ProjectOp"], []],
    3: [["FilterOp"], ["FilterOp"], ["FilterOp", "HashJoinProbe", "HashJoinProbe", "ProjectOp"],
        ["ProjectOp"], []],
    5: [[], ["FilterOp", "FilterOp"], [], [], [],
        ["FilterOp"] + ["HashJoinProbe"] * 5 + ["ProjectOp"], ["ProjectOp"], []],
    9: [[], [], ["FilterOp"], [], [], ["HashJoinProbe"] * 5 + ["ProjectOp", "ProjectOp"],
        ["ProjectOp"], []],
    21: [["FilterOp"], [], ["FilterOp"], ["FilterOp"], [],
         ["FilterOp"] + ["HashJoinProbe"] * 5 + ["ProjectOp"], ["ProjectOp"], []],
}


def _probe_with(probe, stages):
    """``probe`` rebuilt to run ``stages`` in its output region."""
    from repro.core.operators.join import HashJoinProbe

    return HashJoinProbe(
        probe.build_slot,
        probe.join_type,
        probe.probe_key_indices,
        probe.build_key_indices,
        probe.probe_schema,
        probe.build_schema,
        probe.post_filter,
        stages,
    )


class TestFusedPlanVerifier:
    """The compiler is the fused plan's verifier: it builds each region
    once, from the plan, and ``compile_stages`` refuses stages whose
    schemas do not chain (the former FC02 rule, now a ``ValueError``)."""

    @pytest.mark.parametrize("q", range(1, 23))
    def test_zero_findings(self, q, planner):
        assert_regions_only(compile_plan(planner.plan_sql(tpch_query(q))), q)

    def test_zero_findings_on_the_battery(self, battery):
        _, planned = battery
        for sql, plan in planned:
            assert_regions_only(compile_plan(plan), sql)

    def test_an_unlowerable_run_fails_compile_plan(self):
        """A run holding an expression the device cannot lower cannot stand
        outside a region: the plan fails to compile, before any launch."""
        from repro.core import UnsupportedExpressionError
        from repro.plan import Plan
        from repro.plan.expressions import FieldRef, ScalarCall
        from repro.plan.relations import ProjectRel

        lowerable = _filter_project_plan()
        compile_plan(lowerable)
        kept = lowerable.root.input_rel
        rounded = ScalarCall("round", [FieldRef(1), FieldRef(0)])  # digits must be a literal
        with pytest.raises(UnsupportedExpressionError):
            compile_plan(Plan(ProjectRel(kept, [rounded], ["r"])))

    def test_fc02_flags_a_stage_declaring_the_wrong_input(self):
        from repro.core.operators.fused import FusedOp, compile_stages
        from repro.core.operators.streaming import FilterOp, ProjectOp
        from repro.plan.expressions import FieldRef, Literal, ScalarCall

        # A project to (b) followed by a filter that declares it reads (a, b).
        stages = [
            ProjectOp([FieldRef(1)], ["b"], Schema([("b", "float64")])),
            FilterOp(ScalarCall("gt", [FieldRef(0), Literal(1.0)]), _FP_SCHEMA),
        ]
        with pytest.raises(ValueError, match="stage 1 declares input"):
            compile_stages(stages)
        with pytest.raises(ValueError, match="stage 1 declares input"):
            FusedOp(stages)
        FusedOp(stages[1:])  # the filter alone declares what it reads

    @staticmethod
    def _fused_probe(planner):
        """A probe of Q3's plan that runs a Filter/Project run."""
        from repro.core.operators.join import HashJoinProbe

        for pipeline in compile_plan(planner.plan_sql(tpch_query(3))).pipelines:
            for op in pipeline.operators:
                if isinstance(op, HashJoinProbe) and op.stages:
                    return op
        raise AssertionError("Q3 has no probe with an absorbed run")

    def test_a_run_the_compiler_cannot_lower_fails_its_probe(self, planner):
        """A probe is built once, with its run: a run it cannot lower
        leaves no probe behind to run without it."""
        from repro.core import UnsupportedExpressionError
        from repro.core.operators.streaming import FilterOp
        from repro.plan.expressions import FieldRef, ScalarCall

        probe = self._fused_probe(planner)
        schema = probe.join_schema()
        text = next(i for i, f in enumerate(schema.fields) if f.dtype.is_string)
        # LIKE lowers only with a literal pattern.
        like = ScalarCall("like", [FieldRef(text), FieldRef(text)])
        with pytest.raises(UnsupportedExpressionError):
            _probe_with(probe, [FilterOp(like, schema)])

    def test_fc02_flags_an_absorbed_run_not_chaining_from_the_join(self, planner):
        from repro.core.operators.streaming import FilterOp
        from repro.plan.expressions import FieldRef, ScalarCall

        probe = self._fused_probe(planner)
        assert probe.probe_schema.dtypes() != probe.join_schema().dtypes()
        # A filter declaring the probe side's schema, not the join's.
        wrong = FilterOp(ScalarCall("is_not_null", [FieldRef(0)]), probe.probe_schema)
        with pytest.raises(ValueError, match="stage 0 declares input"):
            _probe_with(probe, [wrong])
        right = FilterOp(ScalarCall("is_not_null", [FieldRef(0)]), probe.join_schema())
        assert _probe_with(probe, [right]).stages == [right]

    def test_an_unlowerable_run_behind_a_probe_fails_compile_plan(self):
        """The whole plan is refused, not just the run: nothing is left for
        the device to start and fail on mid-query."""
        from repro.core import UnsupportedExpressionError
        from repro.plan import Plan
        from repro.plan.expressions import FieldRef, ScalarCall
        from repro.plan.relations import FilterRel, JoinRel, ReadRel

        left = ReadRel("l", Schema([("k", "int64"), ("s", "string")]))
        right = ReadRel("r", Schema([("k", "int64"), ("t", "string")]))
        join = JoinRel(left, right, "inner", [0], [0])
        like = ScalarCall("like", [FieldRef(1), FieldRef(3)])
        compile_plan(Plan(join))
        with pytest.raises(UnsupportedExpressionError):
            compile_plan(Plan(FilterRel(join, like)))

    def test_fused_op_refuses_an_empty_run_and_a_non_streaming_stage(self):
        """An empty run or a non-streaming stage never becomes a FusedOp."""
        from repro.core.operators.fused import FusedOp
        from repro.core.operators.sort import MaterializeSink

        with pytest.raises(ValueError):
            FusedOp([])
        with pytest.raises(TypeError):
            FusedOp([MaterializeSink(_FP_SCHEMA)])

    def test_unfused_plan_operator_lists_are_seed_shaped(self, planner):
        """Fusion only groups operators: with every region expanded into
        its parts — a probe into its input stages, itself and its output
        stages — each pipeline runs the seed's operator classes in the
        seed's order: the sequence per-part billing charges launch by
        launch."""
        from repro.core.operators.fused import FusedOp
        from repro.core.operators.join import HashJoinProbe

        def expanded(operators):
            for op in operators:
                assert isinstance(op, (FusedOp, HashJoinProbe)), op
                if isinstance(op, HashJoinProbe):
                    yield from op.input_stages
                    yield op
                yield from op.stages

        for q, seed in SEED_OPERATOR_CLASSES.items():
            physical = compile_plan(planner.plan_sql(tpch_query(q)))
            got = [[type(op).__name__ for op in expanded(p.operators)] for p in physical.pipelines]
            assert got == seed, q

    @pytest.mark.parametrize("q", range(1, 23))
    def test_both_billings_run_the_same_physical_plan(self, q, planner, plain, fused):
        """Billing is the device's choice, not the plan's: the paper engine
        and the fused engine explain the same pipelines."""
        plan = planner.plan_sql(tpch_query(q))
        assert plain.explain_physical(plan) == fused.explain_physical(plan)


@pytest.fixture(scope="module")
def battery():
    """Every battery statement, planned over the battery's data."""
    from repro.bench.baselines.battery import SCALE_FACTOR, battery_cases
    from repro.hosts import MiniDuck

    bdata = generate_tpch(sf=SCALE_FACTOR, seed=19920101)
    host = MiniDuck()
    host.load_tables(bdata)
    cases = battery_cases()
    assert len(cases) == 348
    return bdata, [(case.sql, host.plan(case.sql)) for case in cases]


@pytest.fixture(scope="module")
def battery_sample(battery):
    """The first 50 battery statements."""
    bdata, planned = battery
    return bdata, planned[:50]


class TestBatterySample:
    def test_battery_byte_identical(self, plain, fused, battery):
        bdata, planned = battery
        for sql, plan in planned:
            a = plain.execute(plan, bdata)
            b = fused.execute(plan, bdata)
            assert a.schema == b.schema, sql
            assert raw_bytes(a) == raw_bytes(b), sql

    def test_unfused_sim_clock_matches_golden(self, battery_sample):
        """Tier-1 otherwise pins simulated cost for the 22 TPC-H queries
        only.  The engine is built here, not taken from ``plain``: a
        profile's ``sim_seconds`` is a difference of clock readings, whose
        last bits depend on how far the clock had already run."""
        bdata, planned = battery_sample
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0)
        engine.warm_cache(bdata)
        got = []
        for sql, plan in planned:
            engine.execute(plan, bdata)
            profile = engine.last_profile
            got.append(
                {
                    "sql": sql,
                    "sim_seconds": repr(profile.sim_seconds),
                    "kernel_count": profile.kernel_count,
                }
            )
        assert got == json.loads(GOLDEN_SIM_CLOCK.read_text())


def paper_sim_clock(data, planner, out_of_core):
    """Per TPC-H query, in order, on one warm paper-configuration engine:
    the profile's ``repr(sim_seconds)``, ``kernel_count`` and the ``repr``
    of every Figure-5 bucket."""
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0, out_of_core=out_of_core)
    engine.warm_cache(data)
    got = {}
    for q in range(1, 23):
        engine.execute(planner.plan_sql(tpch_query(q)), data)
        profile = engine.last_profile
        got[f"Q{q}"] = {
            "sim_seconds": repr(profile.sim_seconds),
            "kernel_count": profile.kernel_count,
            "breakdown": {k: repr(v) for k, v in sorted(profile.breakdown.items())},
        }
    return got


class TestPaperSimClockGolden:
    """The paper configuration's simulated cost, pinned per query and per
    Figure-5 bucket: warm and in-core, and out-of-core with every keyed
    sink scattered (the scattered probe's clock is pinned nowhere else).
    Regenerate deliberately with ``PYTHONPATH=src:. python -m
    tests.core.test_fusion_equivalence``."""

    def test_warm(self, data, planner):
        golden = json.loads(GOLDEN_PAPER_SIM_CLOCK.read_text())
        assert paper_sim_clock(data, planner, out_of_core=False) == golden["warm"]

    @pytest.mark.usefixtures("partition_every_sink")
    def test_scattered(self, data, planner):
        golden = json.loads(GOLDEN_PAPER_SIM_CLOCK.read_text())
        assert paper_sim_clock(data, planner, out_of_core=True) == golden["scattered"]


@pytest.fixture(scope="module")
def scattered_pair(data):
    """Out-of-core engines, unfused and fused.  Under
    ``partition_every_sink`` every keyed sink scatters, so every keyed
    probe meets a partitioned build and runs one region per leaf."""
    engines = []
    for fusion in (False, True):
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=8.0, out_of_core=True, fusion=fusion
        )
        engine.warm_cache(data)
        engines.append(engine)
    return engines


@pytest.mark.usefixtures("partition_every_sink")
class TestScatteredPath:
    @pytest.mark.parametrize("q", range(1, 23))
    def test_tpch_values_identical(self, q, data, planner, scattered_pair):
        plan = planner.plan_sql(tpch_query(q))
        a, b = (engine.execute(plan, data) for engine in scattered_pair)
        assert a.schema == b.schema
        assert values(a) == values(b)

    def test_battery_values_identical(self, battery):
        bdata, planned = battery
        plain_ooc, fused_ooc = (
            SiriusEngine.for_spec(GH200, memory_limit_gb=8.0, out_of_core=True, fusion=f)
            for f in (False, True)
        )
        for sql, plan in planned:
            a = plain_ooc.execute(plan, bdata)
            b = fused_ooc.execute(plan, bdata)
            assert a.schema == b.schema, sql
            assert values(a) == values(b), sql

    def test_q21_filtered_semi_and_anti_run_per_leaf(
        self, data, planner, scattered_pair, monkeypatch
    ):
        """Q21's filtered semi and anti joins probe leaf by leaf without the
        anti join's absorbed projection, which runs on each coalesced batch
        of leaf outputs — where the Project operator ran before the probe
        absorbed it."""
        from repro.core.operators import join
        from repro.core.operators.join import HashJoinProbe

        leaves, batches = [], []
        probe, region = HashJoinProbe._probe_against, join.run_region

        def leaf(self, ctx, chunk, build, slots, program):
            leaves.append((self.join_type, self.post_filter is not None, len(self.stages), program))
            return probe(self, ctx, chunk, build, slots, program)

        def batch(ctx, program, table, slots):
            batches.append(len(program))
            return region(ctx, program, table, slots)

        monkeypatch.setattr(HashJoinProbe, "_probe_against", leaf)
        monkeypatch.setattr(join, "run_region", batch)
        plan = planner.plan_sql(tpch_query(21))
        a, b = (engine.execute(plan, data) for engine in scattered_pair)
        assert values(a) == values(b)
        assert ("semi", True, 0, ()) in leaves
        assert ("anti", True, 1, ()) in leaves
        assert all(program == () for *_, program in leaves)
        assert 1 in batches

    @pytest.mark.parametrize("q", [11, 15, 22])
    def test_keyless_cross_join_runs_as_a_region(
        self, q, data, planner, scattered_pair, monkeypatch
    ):
        """A key-less probe never scatters: it assembles its output, its
        absorbed stages included, in one region per chunk — one fused
        launch under fused billing, each part charged under per-part."""
        from repro.core.operators.join import HashJoinProbe

        seen = []
        real = HashJoinProbe._cross_join

        def spy(self, ctx, *args):
            before = ctx.device.fused_kernel_count
            out = real(self, ctx, *args)
            seen.append((ctx.device.fused_billing, ctx.device.fused_kernel_count - before))
            return out

        monkeypatch.setattr(HashJoinProbe, "_cross_join", spy)
        plan = planner.plan_sql(tpch_query(q))
        a, b = (engine.execute(plan, data) for engine in scattered_pair)
        assert values(a) == values(b)
        assert set(seen) == {(False, 0), (True, 1)}


_PROBE = Schema([("k", "int64"), ("v", "float64")])
_BUILD = Schema([("k2", "int64"), ("w", "float64")])


def _join_data():
    return {
        "p": Table.from_pydict(
            {"k": [1, 2, 3, 4, 2, 9], "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}, _PROBE
        ),
        "b": Table.from_pydict({"k2": [2, 3, 5, 2], "w": [2.0, 1.0, 0.0, 7.0]}, _BUILD),
    }


def _join_plan(join_type):
    return (
        PlanBuilder.read("p", _PROBE)
        .join(PlanBuilder.read("b", _BUILD), join_type, [("k", "k2")])
        .build()
    )


def _record_launches(monkeypatch, engine):
    """The kernel class of every launch ``engine``'s device charges, and
    the part classes of every fused region it prices."""
    charged, regions = [], []
    device = engine.device
    charge, fused_cost = device._charge_launch, device.cost_model.fused_cost

    def recording_charge(kclass, cost):
        charged.append(kclass)
        return charge(kclass, cost)

    def recording_fused_cost(parts, bytes_in, bytes_out):
        regions.append([p[0] for p in parts])
        return fused_cost(parts, bytes_in, bytes_out)

    monkeypatch.setattr(device, "_charge_launch", recording_charge)
    monkeypatch.setattr(device.cost_model, "fused_cost", recording_fused_cost)
    return charged, regions


class TestOneConversionPerGatherMap:
    """§3.2.3's one copy: a probe charges ``kernel_indices_to_engine`` once
    per gather map, a launch of its own, and converts back to int32 inside
    its output region.  Per-part billing charges that return trip as a
    launch right after the map's copy, and then every gather: the paper's
    launch sequence.  Fused billing charges the copies and one region."""

    @pytest.mark.parametrize(
        "join_type, maps", [("inner", 2), ("left", 2), ("semi", 1), ("anti", 1)]
    )
    def test_launches_per_probe_chunk(self, monkeypatch, join_type, maps):
        data = _join_data()
        got = {}
        for fusion in (False, True):
            engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=fusion)
            charged, regions = _record_launches(monkeypatch, engine)
            got[fusion] = raw_bytes(engine.execute(_join_plan(join_type), data))
            head = ["hash_build", "hash_probe"]
            columns = 2 if join_type in ("semi", "anti") else 4
            gathers = ["gather"] * columns
            if fusion:
                assert charged == head + ["stream"] * maps + ["fused"]
                # Each map is converted back right after its copy.
                assert regions == [["stream"] * maps + gathers]
            else:
                assert charged == head + ["stream"] * (2 * maps) + gathers
                assert regions == []
        assert got[False] == got[True]

    def test_overflow_inside_the_region_propagates_and_charges_nothing(self, monkeypatch):
        """A uint64 map past int32 reaches ``engine_indices_to_kernel``
        inside the open region right after its copy: the guard raises,
        the error propagates and the region bills nothing."""
        from repro.core import BufferManager

        real = BufferManager.kernel_indices_to_engine

        def crafted(self, indices):
            return real(self, indices) + np.uint64(2**31)  # every id past int32

        monkeypatch.setattr(BufferManager, "kernel_indices_to_engine", crafted)
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=True)
        charged, regions = _record_launches(monkeypatch, engine)
        with pytest.raises(OverflowError, match="int32"):
            engine.execute(_join_plan("inner"), _join_data())
        assert charged == ["hash_build", "hash_probe", "stream"]
        assert regions == [] and engine.device.fused_kernel_count == 0
        assert engine.device._fused_scope is None


_SORT_SCHEMA = Schema([("g", "int64"), ("x", "float64"), ("s", "string")])


def _sort_data(rows=40):
    return {
        "t": Table.from_pydict(
            {
                "g": [i % 7 for i in range(rows)],
                "x": [float((i * 37) % 11) for i in range(rows)],
                "s": [f"s{i % 5}" for i in range(rows)],
            },
            _SORT_SCHEMA,
        )
    }


def _sort_plans():
    read = PlanBuilder.read("t", _SORT_SCHEMA)
    keys = [("x", False), ("g", True)]
    grouped = read.aggregate(groups=["g", "s"], aggs=[("sum", "x", "x")])
    return {
        "sort": read.sort(keys).build(),
        "top_n_offset": read.sort(keys).limit(5, offset=3).build(),
        "top_n_past_the_end": read.sort(keys).limit(5, offset=38).build(),
        "empty": read.filter(col("x") > lit(100.0)).sort(keys).limit(4, offset=1).build(),
        "grouped_top_n": grouped.sort([("x", False), ("g", True), ("s", True)])
        .limit(6, offset=2)
        .build(),
    }


class TestSortOutputRegion:
    """A Sort/Top-N sink gathers every column by its order map as one
    region: byte-identical output under either billing, one launch for
    the gather under fused billing and one per column under per-part."""

    @pytest.mark.parametrize("name", sorted(_sort_plans()))
    @pytest.mark.parametrize("batch_rows", [None, 7])
    def test_fused_equals_unfused(self, name, batch_rows):
        plan, data = _sort_plans()[name], _sort_data()
        plain, fused = (
            SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, batch_rows=batch_rows, fusion=f)
            for f in (False, True)
        )
        a, b = plain.execute(plan, data), fused.execute(plan, data)
        assert a.schema == b.schema
        assert raw_bytes(a) == raw_bytes(b)
        if name != "empty":
            assert fused.last_profile.kernel_count < plain.last_profile.kernel_count

    @pytest.mark.usefixtures("partition_every_sink")
    @pytest.mark.parametrize("name", sorted(_sort_plans()))
    def test_fused_equals_unfused_scattered(self, name):
        plan, data = _sort_plans()[name], _sort_data()
        plain, fused = (
            SiriusEngine.for_spec(
                GH200, memory_limit_gb=1.0, batch_rows=9, out_of_core=True, fusion=f
            )
            for f in (False, True)
        )
        a, b = plain.execute(plan, data), fused.execute(plan, data)
        assert a.schema == b.schema
        assert values(a) == values(b)

    def test_the_gather_is_one_region_reading_map_and_columns(self, monkeypatch):
        plan, data = _sort_plans()["top_n_offset"], _sort_data()
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=True)
        charged, regions = _record_launches(monkeypatch, engine)
        out = engine.execute(plan, data)
        assert out.num_rows == 5
        assert regions == [["gather"] * 3]
        assert "gather" not in charged and charged.count("fused") == 1

    def test_per_part_billing_charges_one_gather_per_column(self, monkeypatch):
        plan, data = _sort_plans()["top_n_offset"], _sort_data()
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        charged, regions = _record_launches(monkeypatch, engine)
        assert engine.execute(plan, data).num_rows == 5
        assert regions == [] and "fused" not in charged
        assert charged.count("gather") == 3


class TestCseOnlyInsideFusedRegions:
    """``x*y > a AND x*y < b`` repeats a subtree; ``x*y > a AND x*z < b``
    has the same shape with nothing to share.  Under per-part billing both
    launch (and are charged for) the same kernels — the seed figures price
    a repeated subtree every time it occurs; under fused billing, the
    repeat is computed once."""

    SCHEMA = Schema([("x", "float64"), ("y", "float64"), ("z", "float64")])

    def launches(self, monkeypatch, second_factor, fusion):
        values = [float(i) for i in range(1, 9)]
        table = Table.from_pydict({"x": values, "y": values, "z": values}, self.SCHEMA)
        plan = (
            PlanBuilder.read("t", self.SCHEMA)
            .filter(
                (col("x") * col("y") > lit(2.0))
                & (col("x") * col(second_factor) < lit(50.0))
            )
            .build()
        )
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=fusion)
        cost_model = engine.device.cost_model
        fused_cost = cost_model.fused_cost
        fused_parts = []

        def counting(parts, bytes_in, bytes_out):
            fused_parts.append(len(parts))
            return fused_cost(parts, bytes_in, bytes_out)

        monkeypatch.setattr(cost_model, "fused_cost", counting)
        assert engine.execute(plan, {"t": table}).num_rows == 6
        return engine.last_profile.kernel_count, sum(fused_parts)

    def test_unfused_charges_a_repeated_subtree_twice(self, monkeypatch):
        repeated = self.launches(monkeypatch, "y", fusion=False)
        distinct = self.launches(monkeypatch, "z", fusion=False)
        assert repeated == distinct
        assert repeated[1] == 0  # no fused region at all

    def test_fused_region_computes_it_once(self, monkeypatch):
        _, repeated_parts = self.launches(monkeypatch, "y", fusion=True)
        _, distinct_parts = self.launches(monkeypatch, "z", fusion=True)
        assert 0 < repeated_parts < distinct_parts


class TestBusyPartitionUnderFusion:
    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_operator_busy_time_partitions_query_time(self, q, data, planner):
        tracer = Tracer()
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=8.0, fusion=True, tracer=tracer
        )
        engine.execute(planner.plan_sql(tpch_query(q)), data)
        spans = engine.last_profile.spans
        (query,) = [s for s in spans if s.kind == "query"]
        operators = [s for s in spans if s.kind == "operator"]
        assert operators
        busy = sum(s.attributes["busy_s"] for s in operators)
        assert math.isclose(busy, query.duration, rel_tol=1e-9, abs_tol=1e-12)
        # Fused regions show up as single operator spans.
        assert any(s.name.startswith("Fused[") for s in operators)


class TestSanitizedFusion:
    @pytest.mark.parametrize("q", [1, 6])
    def test_sanitizer_clean(self, q, data, planner):
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=8.0, fusion=True, sanitize=True
        )
        engine.execute(planner.plan_sql(tpch_query(q)), data)
        report = engine.sanitizer.report()
        assert report.ok, [str(f) for f in report.findings]


class TestRandomPlanFusion:
    @settings(max_examples=80, deadline=None)
    @given(data=tables(), plan=plans())
    def test_fused_equals_unfused(self, data, plan):
        plain = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        fused = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=True)
        a = plain.execute(plan, data)
        b = fused.execute(plan, data)
        assert a.schema == b.schema
        assert raw_bytes(a) == raw_bytes(b)

    @settings(max_examples=40, deadline=None)
    @given(data=tables(), plan=plans())
    def test_fused_plans_verify_clean(self, data, plan):
        assert_regions_only(compile_plan(plan), plan)

    @settings(max_examples=30, deadline=None)
    @given(data=tables(), plan=plans(), batch=st.integers(1, 17))
    def test_batched_fusion_equals_whole(self, data, plan, batch):
        """Fusion composes with chunked execution (zero-row chunks and
        all): batched+fused == whole+unfused, row for row."""
        whole = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        batched = SiriusEngine.for_spec(
            GH200, memory_limit_gb=1.0, batch_rows=batch, fusion=True
        )
        assert sorted(normalise(whole.execute(plan, data))) == sorted(
            normalise(batched.execute(plan, data))
        )


def _estimated_launches(plan, catalog, fusion) -> float:
    """How many launches the estimate prices: raising the launch constant
    by 1 ms raises the estimate by 1 ms per launch."""
    from repro.gpu.device import Device
    from repro.sched.estimator import estimate_plan

    def service(launch_us):
        spec = dataclasses.replace(GH200, kernel_launch_us=launch_us)
        return estimate_plan(plan, catalog, Device(spec), fusion=fusion).service_s

    return (service(1006.0) - service(6.0)) / 1e-3


class TestEstimatorFusionPricing:
    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_fused_estimate_never_worse(self, q, data, planner):
        from repro.gpu.device import Device
        from repro.sched.estimator import estimate_plan

        device = Device(GH200)
        plan = planner.plan_sql(tpch_query(q))
        base = estimate_plan(plan, data, device)
        opt = estimate_plan(plan, data, device, fusion=True)
        assert opt.service_s <= base.service_s
        assert opt.working_set_bytes == base.working_set_bytes
        assert opt.rows == base.rows

    def test_filtered_scan_then_project_prices_one_launch(self):
        """The pushed filter is the head of the fused chain, as the
        compiler emits it: raising the launch constant by 1 ms raises the
        fused estimate by exactly one launch (two unfused)."""
        from repro.plan import Plan
        from repro.plan.expressions import FieldRef, Literal, ScalarCall
        from repro.plan.relations import ProjectRel, ReadRel

        pushed = ScalarCall("gt", [FieldRef(0), Literal(1)])
        plan = Plan(ProjectRel(ReadRel("t", _FP_SCHEMA, filter_expr=pushed), [FieldRef(1)], ["b"]))
        table = Table.from_pydict(
            {"a": list(range(64)), "b": [float(i) for i in range(64)]}, _FP_SCHEMA
        )
        assert _estimated_launches(plan, {"t": table}, fusion=True) == pytest.approx(1.0)
        assert _estimated_launches(plan, {"t": table}, fusion=False) == pytest.approx(2.0)

    @pytest.mark.parametrize("fusion", [False, True])
    def test_a_pushed_filter_on_a_missing_table_prices_no_launch(self, fusion):
        """A scan of a table the catalog lacks reads nothing, so its pushed
        filter prices no launch, under either billing."""
        from repro.plan import Plan
        from repro.plan.expressions import FieldRef, Literal, ScalarCall
        from repro.plan.relations import ReadRel

        pushed = ScalarCall("gt", [FieldRef(0), Literal(1)])
        plan = Plan(ReadRel("t", _FP_SCHEMA, filter_expr=pushed))
        assert _estimated_launches(plan, {}, fusion) == pytest.approx(0.0)

    def test_a_probes_opening_run_prices_one_launch_with_its_probe(self):
        """A filtered scan feeding a probe is the probe's input run: fused
        billing prices the filter and the ``HASH_PROBE`` as one launch
        beside the build, per-part billing each of the three.  A run over
        a join's output is that probe's output run, priced on its own."""
        from repro.plan import Plan
        from repro.plan.expressions import FieldRef, Literal, ScalarCall
        from repro.plan.relations import FilterRel, JoinRel, ReadRel

        pushed = ScalarCall("gt", [FieldRef(0), Literal(1)])
        probe = ReadRel("p", _FP_SCHEMA, filter_expr=pushed)
        join = JoinRel(probe, ReadRel("b", _FP_SCHEMA), "inner", [0], [0])
        table = Table.from_pydict(
            {"a": list(range(64)), "b": [float(i) for i in range(64)]}, _FP_SCHEMA
        )
        catalog = {"p": table, "b": table}
        assert _estimated_launches(Plan(join), catalog, fusion=True) == pytest.approx(2.0)
        assert _estimated_launches(Plan(join), catalog, fusion=False) == pytest.approx(3.0)
        above = JoinRel(FilterRel(join, pushed), ReadRel("b", _FP_SCHEMA), "inner", [0], [0])
        assert _estimated_launches(Plan(above), catalog, fusion=True) == pytest.approx(5.0)
        assert _estimated_launches(Plan(above), catalog, fusion=False) == pytest.approx(6.0)

    def test_fused_estimate_strictly_better_on_q6(self, data, planner):
        from repro.gpu.device import Device
        from repro.sched.estimator import estimate_plan

        device = Device(GH200)
        plan = planner.plan_sql(tpch_query(6))
        base = estimate_plan(plan, data, device)
        opt = estimate_plan(plan, data, device, fusion=True)
        assert opt.service_s < base.service_s


if __name__ == "__main__":
    from repro.core.operators import spool

    tpch = generate_tpch(sf=SF)
    sql_planner = stats_planner(tpch)
    payload = {"warm": paper_sim_clock(tpch, sql_planner, out_of_core=False)}
    spool._hold = lambda ctx, held_bytes: False  # what partition_every_sink does
    payload["scattered"] = paper_sim_clock(tpch, sql_planner, out_of_core=True)
    GOLDEN_PAPER_SIM_CLOCK.write_text(json.dumps(payload, indent=1) + "\n")
