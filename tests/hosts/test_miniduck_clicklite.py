"""Tests for the single-node hosts: MiniDuck, its extension hook, ClickLite."""

import pytest

from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import (
    ClickLite,
    CpuEngine,
    DidNotFinishError,
    MiniDuck,
    SiriusExtension,
    UnsupportedQueryError,
)
from repro.tpch import generate_tpch, tpch_query


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=0.01)


@pytest.fixture
def duck(data):
    db = MiniDuck()
    db.load_tables(data)
    return db


class TestMiniDuck:
    def test_sql_round_trip(self, duck):
        out = duck.execute("select count(*) as n from nation")
        assert out.table.to_pydict() == {"n": [25]}
        assert out.engine == "miniduck-cpu"

    def test_plan_is_optimized(self, duck):
        plan = duck.plan("select n_name from nation where n_regionkey = 1")
        # Projection pruning must have reached the scan.
        assert '"projection": ["n_name", "n_regionkey"]' in plan.to_json() or \
               '"projection": ["n_regionkey", "n_name"]' in plan.to_json()

    def test_distinct_statistics_cached(self, duck, data, unique_calls):
        first = duck.stats()
        counted = len(unique_calls)
        assert counted == sum(len(t.schema) for t in data.values())
        assert duck.stats() == first
        assert len(unique_calls) == counted  # unchanged tables are never re-counted
        duck.create_table("nation", data["nation"].slice(0, 5))
        assert duck.stats()["nation"].distinct["n_nationkey"] == 5
        assert len(unique_calls) == counted + len(data["nation"].schema)

    def test_extension_receives_substrait_json(self, duck, data):
        received = []

        class Probe:
            name = "probe"

            def execute_substrait(self, plan_json, catalog):
                received.append(plan_json)
                from repro.plan import Plan

                return CpuEngine().execute(Plan.from_json(plan_json), catalog)

        duck.install_extension(Probe())
        assert duck.active_engine == "probe"
        out = duck.execute("select count(*) as n from region")
        assert out.table.to_pydict() == {"n": [5]}
        assert received and '"rel": "read"' in received[0]

    def test_uninstall_restores_cpu(self, duck):
        duck.install_extension(SiriusExtension(SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)))
        duck.uninstall_extension()
        assert duck.active_engine == "miniduck-cpu"


class TestSiriusDropIn:
    def test_same_results_both_engines(self, data):
        cpu_db = MiniDuck()
        cpu_db.load_tables(data)
        gpu_db = MiniDuck()
        gpu_db.load_tables(data)
        sirius = SiriusEngine.for_spec(GH200, memory_limit_gb=8.0)
        gpu_db.install_extension(SiriusExtension(sirius, fallback_engine=CpuEngine()))

        sql = tpch_query(3)
        cpu_rows = cpu_db.execute(sql).table.to_rows()
        gpu_rows = gpu_db.execute(sql).table.to_rows()
        assert len(cpu_rows) == len(gpu_rows)
        for a, b in zip(cpu_rows, gpu_rows):
            assert a[0] == b[0]  # ordered query: keys align

    def test_extension_reports_profile(self, data):
        db = MiniDuck()
        db.load_tables(data)
        ext = SiriusExtension(SiriusEngine.for_spec(GH200, memory_limit_gb=8.0))
        db.install_extension(ext)
        out = db.execute("select sum(l_quantity) as q from lineitem")
        assert out.sim_seconds > 0
        assert ext.plans_received == 1
        assert ext.stats()["plans_received"] == 1


class TestClickLite:
    @pytest.fixture
    def click(self, data):
        db = ClickLite()
        db.load_tables(data)
        return db

    def test_runs_rewritten_queries(self, click):
        out = click.execute(tpch_query(4, for_clickhouse=True))
        assert out.table.num_rows == 5

    def test_rejects_correlated_subqueries(self, click):
        with pytest.raises(UnsupportedQueryError):
            click.execute(tpch_query(17))  # original, correlated form

    def test_q21_flagged_unsupported(self, click):
        assert not click.supports_tpch(21)
        with pytest.raises(ValueError):
            tpch_query(21, for_clickhouse=True)

    def test_row_budget_causes_dnf(self, data):
        strict = ClickLite(max_intermediate_rows=1000)
        strict.load_tables(data)
        with pytest.raises(DidNotFinishError):
            strict.execute(tpch_query(9, for_clickhouse=True))

    def test_join_order_is_as_written(self, click, data):
        duck = MiniDuck()
        duck.load_tables(data)
        # Written order puts customer first; MiniDuck reorders, ClickLite not.
        sql = "select count(*) as n from customer, orders where c_custkey = o_custkey"
        click_out = click.execute(sql)
        duck_out = duck.execute(sql)
        assert click_out.table.to_pydict() == duck_out.table.to_pydict()
