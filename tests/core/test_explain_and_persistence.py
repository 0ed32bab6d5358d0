"""Tests for EXPLAIN ANALYZE, the filter-into-scan pass, and persistence."""

import pytest

from repro.columnar import Schema, Table
from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import MiniDuck
from repro.plan import FilterRel, PlanBuilder, ReadRel, col, lit
from repro.sql.optimizer import push_filters_into_scans
from repro.tpch import generate_tpch

SCHEMA = Schema([("k", "int64"), ("v", "float64")])


@pytest.fixture
def data():
    return {
        "t": Table.from_pydict(
            {"k": list(range(100)), "v": [float(i) for i in range(100)]}, SCHEMA
        )
    }


class TestExplainAnalyze:
    def test_reports_every_operator(self, data):
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        plan = (
            PlanBuilder.read("t", SCHEMA)
            .filter(col("v") > lit(10.0))
            .aggregate(groups=["k"], aggs=[("sum", "v", "s")])
            .sort([("s", False)])
            .limit(5)
            .build()
        )
        text = engine.explain_analyze(plan, data)
        assert "Pipeline 0" in text
        assert "Filter" in text and "GroupBy" in text and "TopN" in text
        assert "us" in text and "rows=" in text

    def test_operator_timings_sum_close_to_total(self, data):
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        plan = PlanBuilder.read("t", SCHEMA).filter(col("v") > lit(0.0)).build()
        engine.execute(plan, data)
        profile = engine.last_profile
        op_total = sum(t.seconds for t in profile.operator_timings)
        # Scan/cold-load time lives outside operator scopes; operator time
        # must not exceed the query total.
        assert op_total <= profile.sim_seconds + 1e-12

    def test_fallback_message(self):
        from repro.hosts import CpuEngine

        big = {
            "t": Table.from_pydict(
                {"k": list(range(10_000)), "v": [float(i) for i in range(10_000)]},
                SCHEMA,
            )
        }
        engine = SiriusEngine.for_spec(
            GH200,
            memory_limit_gb=0.00003,  # ~15 KB caching: cannot hold 160 KB
        )
        engine.set_host_executor(CpuEngine().execute)
        plan = PlanBuilder.read("t", SCHEMA).build()
        assert "fell back" in engine.explain_analyze(plan, big)


class TestFilterIntoScan:
    def test_filter_fused(self):
        plan = PlanBuilder.read("t", SCHEMA).filter(col("v") > lit(1.0)).build()
        fused = push_filters_into_scans(plan.root)
        assert isinstance(fused, ReadRel)
        assert fused.filter_expr is not None

    def test_stacked_filters_conjoin(self):
        plan = (
            PlanBuilder.read("t", SCHEMA)
            .filter(col("v") > lit(1.0))
            .filter(col("k") < lit(50))
            .build()
        )
        fused = push_filters_into_scans(plan.root)
        assert isinstance(fused, ReadRel)
        assert fused.filter_expr.func == "and"

    def test_fused_results_identical(self, data):
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        plan = PlanBuilder.read("t", SCHEMA).filter(col("v") > lit(42.0)).build()
        from repro.plan import Plan

        fused = Plan(push_filters_into_scans(plan.root))
        assert engine.execute(plan, data).to_pydict() == engine.execute(fused, data).to_pydict()

    def test_non_scan_filters_untouched(self):
        plan = (
            PlanBuilder.read("t", SCHEMA)
            .aggregate(groups=["k"], aggs=[("sum", "v", "s")])
            .filter(col("s") > lit(1.0))
            .build()
        )
        fused = push_filters_into_scans(plan.root)
        assert isinstance(fused, FilterRel)  # HAVING-style filter stays


class TestPersistence:
    def test_save_and_open_round_trip(self, tmp_path):
        data = generate_tpch(sf=0.005)
        db = MiniDuck()
        db.load_tables(data)
        db.save(tmp_path / "warehouse")

        reopened = MiniDuck.open(tmp_path / "warehouse")
        assert set(reopened.tables) == set(data)
        before = db.execute("select count(*) as n from lineitem").table.to_pydict()
        after = reopened.execute("select count(*) as n from lineitem").table.to_pydict()
        assert before == after

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            MiniDuck.open(tmp_path / "nope")

    def test_queries_after_reopen_match(self, tmp_path):
        data = generate_tpch(sf=0.005)
        db = MiniDuck()
        db.load_tables(data)
        db.save(tmp_path / "wh")
        reopened = MiniDuck.open(tmp_path / "wh")
        sql = (
            "select l_returnflag, sum(l_quantity) as q from lineitem "
            "group by l_returnflag order by l_returnflag"
        )
        assert (
            db.execute(sql).table.to_pydict() == reopened.execute(sql).table.to_pydict()
        )
