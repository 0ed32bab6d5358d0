"""Integration tests for the Sirius engine: plans in, correct tables out."""

import datetime

import pytest

from repro.columnar import Schema, Table
from repro.core import SiriusEngine, compile_plan
from repro.gpu.specs import GH200
from repro.hosts import MiniDuck
from repro.plan import PlanBuilder, col, lit
from repro.tpch import generate_tpch, tpch_query

SCHEMA = Schema(
    [("k", "int64"), ("grp", "string"), ("v", "float64"), ("d", "date")]
)


@pytest.fixture
def data():
    table = Table.from_pydict(
        {
            "k": [1, 2, 3, 4, 5, 6],
            "grp": ["a", "b", "a", "b", "a", "c"],
            "v": [10.0, 20.0, 30.0, 40.0, 50.0, 60.0],
            "d": [
                "1995-01-01", "1995-06-01", "1996-01-01",
                "1996-06-01", "1997-01-01", "1997-06-01",
            ],
        },
        SCHEMA,
    )
    dims = Table.from_pydict(
        {"k": [2, 4, 6, 8], "label": ["two", "four", "six", "eight"]},
        Schema([("k", "int64"), ("label", "string")]),
    )
    return {"facts": table, "dims": dims}


@pytest.fixture
def engine():
    return SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)


def read(name="facts", schema=SCHEMA):
    return PlanBuilder.read(name, schema)


class TestRelationalCoverage:
    def test_filter_project(self, engine, data):
        plan = (
            read().filter(col("v") >= lit(30.0))
            .project([("k", "k"), (col("v") / lit(10.0), "tens")])
            .build()
        )
        out = engine.execute(plan, data)
        assert out.to_pydict() == {"k": [3, 4, 5, 6], "tens": [3.0, 4.0, 5.0, 6.0]}

    def test_date_filter(self, engine, data):
        plan = read().filter(col("d") < lit(datetime.date(1996, 1, 1))).build()
        assert engine.execute(plan, data).num_rows == 2

    def test_groupby_sum_avg_count(self, engine, data):
        plan = (
            read()
            .aggregate(
                groups=["grp"],
                aggs=[("sum", "v", "s"), ("avg", "v", "m"), ("count", None, "n")],
            )
            .sort([("grp", True)])
            .build()
        )
        out = engine.execute(plan, data).to_pydict()
        assert out == {
            "grp": ["a", "b", "c"],
            "s": [90.0, 60.0, 60.0],
            "m": [30.0, 30.0, 60.0],
            "n": [3, 2, 1],
        }

    def test_global_aggregate(self, engine, data):
        plan = read().aggregate(groups=[], aggs=[("sum", "v", "total"), ("max", "v", "hi")]).build()
        out = engine.execute(plan, data).to_pydict()
        assert out == {"total": [210.0], "hi": [60.0]}

    def test_inner_join_gathers_both_sides(self, engine, data):
        plan = (
            read()
            .join(PlanBuilder.read("dims", data["dims"].schema), "inner", [("k", "k")])
            .project([("label", "label"), ("v", "v")])
            .sort([("v", True)])
            .build()
        )
        out = engine.execute(plan, data).to_pydict()
        assert out == {"label": ["two", "four", "six"], "v": [20.0, 40.0, 60.0]}

    @pytest.mark.parametrize("fusion", [False, True])
    def test_inner_join_residual_stays_with_the_probe(self, data, fusion):
        """A join condition beyond the equi-keys is the probe's to apply,
        with or without fusion of the operators downstream of it."""
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=fusion)
        plan = (
            read()
            .join(
                PlanBuilder.read("dims", data["dims"].schema),
                "inner",
                [("k", "k")],
                post_filter=col("v") > lit(30.0),
            )
            .project([("label", "label"), ("v", "v")])
            .filter(col("v") < lit(100.0))
            .sort([("v", True)])
            .build()
        )
        out = engine.execute(plan, data).to_pydict()
        assert out == {"label": ["four", "six"], "v": [40.0, 60.0]}

    def test_semi_and_anti_join(self, engine, data):
        dims = PlanBuilder.read("dims", data["dims"].schema)
        semi = read().join(dims, "semi", [("k", "k")]).build()
        anti = read().join(dims, "anti", [("k", "k")]).build()
        assert engine.execute(semi, data).num_rows == 3
        assert engine.execute(anti, data).num_rows == 3

    def test_left_join_produces_nulls(self, engine, data):
        plan = (
            read()
            .join(PlanBuilder.read("dims", data["dims"].schema), "left", [("k", "k")])
            .project([("k", "k"), ("label", "label")])
            .sort([("k", True)])
            .build()
        )
        out = engine.execute(plan, data).to_pydict()
        assert out["label"] == [None, "two", None, "four", None, "six"]

    def test_topn(self, engine, data):
        plan = read().sort([("v", False)]).limit(2).build()
        out = engine.execute(plan, data)
        assert out["v"].to_pylist() == [60.0, 50.0]

    def test_case_expression(self, engine, data):
        expr = col("grp") == lit("a")
        from repro.plan import NamedExpr

        case = NamedExpr("call", "case", [expr, col("v"), lit(0.0)])
        plan = read().aggregate(groups=[], aggs=[("sum", case, "a_only")]).build()
        assert engine.execute(plan, data).to_pydict() == {"a_only": [90.0]}


class TestEngineMechanics:
    def test_profile_populated(self, engine, data):
        plan = read().filter(col("v") > lit(0.0)).build()
        engine.execute(plan, data)
        profile = engine.last_profile
        assert profile.sim_seconds > 0
        assert profile.kernel_count > 0
        assert profile.pipelines_run >= 1
        assert "filter" in profile.breakdown

    def test_pool_reset_between_queries(self, engine, data):
        plan = read().sort([("v", True)]).build()
        engine.execute(plan, data)
        used_after_first = engine.device.processing_pool.in_use
        engine.execute(plan, data)
        # The pool was recycled, not grown, between queries.
        assert engine.device.processing_pool.in_use <= used_after_first * 1.5

    def test_explain_physical_shows_pipelines(self, engine, data):
        plan = (
            read()
            .join(PlanBuilder.read("dims", data["dims"].schema), "inner", [("k", "k")])
            .aggregate(groups=["grp"], aggs=[("count", None, "n")])
            .build()
        )
        text = engine.explain_physical(plan)
        assert "HashJoinBuild" in text and "GroupBy" in text
        assert text.count("P") >= 3  # at least three pipelines
        # An out-of-core engine explains the plan it runs, which is the
        # in-core engine's plan.
        tpch = generate_tpch(sf=0.001)
        host = MiniDuck()
        host.load_tables(tpch)
        q3 = host.plan(tpch_query(3))
        ooc = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, out_of_core=True)
        text = ooc.explain_physical(q3)
        assert "HashJoinBuild" in text and "GroupBy" in text
        assert text == engine.explain_physical(q3)
        assert text == ooc.start_query(q3, tpch).physical.explain()

    def test_batched_execution_identical(self, data):
        plan = (
            read()
            .aggregate(groups=["grp"], aggs=[("sum", "v", "s")])
            .sort([("grp", True)])
            .build()
        )
        whole = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        batched = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, batch_rows=2)
        assert (
            whole.execute(plan, data).to_pydict()
            == batched.execute(plan, data).to_pydict()
        )

    def test_stats_counters(self, engine, data):
        plan = read().build()
        engine.execute(plan, data)
        engine.execute(plan, data)
        stats = engine.stats()
        assert stats["queries_executed"] == 2
        assert stats["hot_hits"] >= 1

    def test_empty_table_queries(self, engine):
        empty = {"facts": Table.empty(SCHEMA)}
        plan = (
            read()
            .filter(col("v") > lit(0.0))
            .aggregate(groups=["grp"], aggs=[("sum", "v", "s")])
            .build()
        )
        out = engine.execute(plan, empty)
        assert out.num_rows == 0

    def test_compile_plan_slot_consumers(self, data):
        plan = (
            read()
            .join(PlanBuilder.read("dims", data["dims"].schema), "inner", [("k", "k")])
            .build()
        )
        physical = compile_plan(plan)
        consumers = physical.slot_consumers()
        assert all(count >= 1 for count in consumers.values())
