"""The fusion equivalence gate: ``fusion=True`` must be invisible.

Pipeline fusion (collapsing streaming runs into compiled :class:`FusedOp`
regions) is a pure cost-model optimisation — fused and unfused operators
run the same compiled closures over the same kernels, so every observable
*result* must be byte-identical to the unfused engine while the modeled kernel
count and wall time strictly shrink on streaming-heavy queries.

The gate:

* all 22 TPC-H queries, fused vs unfused, raw column buffers compared
  byte-for-byte;
* a 50-case battery sample under the same comparison, with the unfused
  engine's simulated cost pinned per statement against a golden file;
* common-subexpression elimination happens inside fused regions only;
* the ``busy_s`` partition invariant holds for fused runs (every clock
  advance still lands in exactly one measured operator region);
* the fused-plan verifier reports zero findings on every fused plan;
* the runtime sanitizer is clean executing under fusion;
* a hypothesis property re-checks fused == unfused over random plans.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import verify_fused_plan
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
def plain(data):
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0)
    engine.warm_cache(data)
    return engine


@pytest.fixture(scope="module")
def fused(data):
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0, fusion=True)
    engine.warm_cache(data)
    return engine


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


class TestFusedPlanVerifier:
    @pytest.mark.parametrize("q", range(1, 23))
    def test_zero_findings(self, q, planner):
        physical = compile_plan(planner.plan_sql(tpch_query(q)), fusion=True)
        assert physical.fusion
        findings = verify_fused_plan(physical)
        assert findings == [], [str(f) for f in findings]

    def test_fc03_flags_a_fusible_run_left_unfused(self):
        physical = compile_plan(_filter_project_plan(), fusion=False)
        findings = verify_fused_plan(physical)
        assert [f.rule for f in findings] == ["FC03"], [str(f) for f in findings]
        assert findings[0].site == "P0"

    def test_fc02_flags_a_stage_declaring_the_wrong_input(self):
        from repro.core.operators.fused import FusedOp
        from repro.core.operators.streaming import FilterOp, ProjectOp
        from repro.plan.expressions import FieldRef, Literal, ScalarCall

        physical = compile_plan(_filter_project_plan(), fusion=True)
        # A project to (b) followed by a filter that declares it reads (a, b).
        wrong = FusedOp(
            [
                ProjectOp([FieldRef(1)], ["b"], Schema([("b", "float64")])),
                FilterOp(ScalarCall("gt", [FieldRef(0), Literal(1.0)]), _FP_SCHEMA),
            ]
        )
        pipeline = dataclasses.replace(physical.pipelines[0], operators=[wrong])
        findings = verify_fused_plan(dataclasses.replace(physical, pipelines=[pipeline]))
        assert [(f.rule, f.site) for f in findings] == [("FC02", "P0[0].stage1")]

    def test_fused_op_refuses_an_empty_run_and_a_non_streaming_stage(self):
        """An empty run or a non-streaming stage never becomes a FusedOp,
        so the verifier has no rule for either."""
        from repro.core.operators.fused import FusedOp
        from repro.core.operators.sort import MaterializeSink

        with pytest.raises(ValueError):
            FusedOp([])
        with pytest.raises(TypeError):
            FusedOp([MaterializeSink(_FP_SCHEMA)])

    def test_unfused_plan_operator_lists_are_seed_shaped(self, planner):
        """fusion=False compiles the exact seed operator classes."""
        from repro.core.operators.fused import FusedOp

        physical = compile_plan(planner.plan_sql(tpch_query(1)))
        assert not physical.fusion
        for pipeline in physical.pipelines:
            assert not any(isinstance(op, FusedOp) for op in pipeline.operators)


@pytest.fixture(scope="module")
def battery_sample():
    """The first 50 battery statements, planned over the battery's data."""
    from repro.bench.baselines.battery import SCALE_FACTOR, battery_cases
    from repro.hosts import MiniDuck

    bdata = generate_tpch(sf=SCALE_FACTOR, seed=19920101)
    host = MiniDuck()
    host.load_tables(bdata)
    cases = battery_cases()[:50]
    assert len(cases) == 50
    return bdata, [(case.sql, host.plan(case.sql)) for case in cases]


class TestBatterySample:
    def test_fifty_battery_cases_byte_identical(self, plain, fused, battery_sample):
        bdata, planned = battery_sample
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


class TestCseOnlyInsideFusedRegions:
    """``x*y > a AND x*y < b`` repeats a subtree; ``x*y > a AND x*z < b``
    has the same shape with nothing to share.  Unfused, both launch (and
    are charged for) the same kernels — the seed figures price a repeated
    subtree every time it occurs; fused, the repeat is computed once."""

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
        physical = compile_plan(plan, fusion=True)
        assert verify_fused_plan(physical) == []

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

    def test_fused_estimate_strictly_better_on_q6(self, data, planner):
        from repro.gpu.device import Device
        from repro.sched.estimator import estimate_plan

        device = Device(GH200)
        plan = planner.plan_sql(tpch_query(6))
        base = estimate_plan(plan, data, device)
        opt = estimate_plan(plan, data, device, fusion=True)
        assert opt.service_s < base.service_s
