"""Regression tests for frontend defects found while building the SQL
shape battery.  Each class pins one fixed defect; the last pins the
typed-error guarantee (malformed SQL raises SqlSyntaxError or
SqlPlanningError, never an untyped exception)."""

import pytest

from repro.bench.baselines.engines import SqliteBaseline
from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine, MiniDuck, SiriusExtension
from repro.sql import SqlPlanningError, SqlSyntaxError
from repro.tpch import generate_tpch


@pytest.fixture(scope="module")
def dbs():
    tables = generate_tpch(0.01)
    cpu_db = MiniDuck()
    cpu_db.load_tables(tables)
    gpu_db = MiniDuck()
    gpu_db.load_tables(tables)
    gpu_db.install_extension(
        SiriusExtension(SiriusEngine.for_spec(GH200, memory_limit_gb=4.0), CpuEngine())
    )
    return cpu_db, gpu_db


def both(dbs, sql):
    cpu_db, gpu_db = dbs
    cpu = cpu_db.execute(sql).table.to_rows()
    gpu = gpu_db.execute(sql).table.to_rows()
    assert sorted(map(repr, cpu)) == sorted(map(repr, gpu)), sql
    return cpu


class TestNullLiterals:
    """NULL literals were untyped and crashed the GPU kernel layer."""

    def test_bare_null_projection(self, dbs):
        rows = both(dbs, "select null as x from region")
        assert rows == [(None,)] * 5

    def test_null_comparison_is_never_true(self, dbs):
        rows = both(dbs, "select count(*) as n from lineitem where l_quantity = null")
        assert rows == [(0,)]

    def test_coalesce_null_head(self, dbs):
        rows = both(dbs, "select coalesce(null, 1) as x from region")
        assert rows == [(1,)] * 5

    def test_case_without_else_yields_null(self, dbs):
        rows = both(dbs, "select case when 1 = 0 then 1 end as x from region")
        assert rows == [(None,)] * 5


class TestGlobalCountDistinct:
    """count(distinct x) without GROUP BY raised CpuEvalError on the host."""

    def test_global_count_distinct(self, dbs):
        rows = both(dbs, "select count(distinct n_regionkey) as n from nation")
        assert rows == [(5,)]

    def test_global_count_distinct_strings(self, dbs):
        rows = both(dbs, "select count(distinct o_orderstatus) as n from orders")
        assert rows == [(3,)]


class TestLikeEscape:
    """LIKE ... ESCAPE was rejected by the parser."""

    def test_escaped_percent_is_literal(self, dbs):
        rows = both(dbs, r"select count(*) as n from part where p_type like 'PROMO\%' escape '\'")
        assert rows == [(0,)]

    def test_escaped_underscore(self, dbs):
        # No part name contains a literal underscore.
        rows = both(dbs, r"select count(*) as n from part where p_name like '%\_%' escape '\'")
        assert rows == [(0,)]

    def test_escape_must_be_single_char(self, dbs):
        with pytest.raises(SqlSyntaxError):
            dbs[0].execute("select * from part where p_name like 'x%' escape 'ab'")


class TestGroupByAliasAndOrdinal:
    """GROUP BY <select alias> and GROUP BY <ordinal> failed to resolve."""

    def test_group_by_alias(self, dbs):
        rows = both(dbs, "select n_regionkey as rk, count(*) as n from nation group by rk order by rk")
        assert rows == [(i, 5) for i in range(5)]

    def test_group_by_ordinal(self, dbs):
        rows = both(dbs, "select n_regionkey, count(*) as n from nation group by 1 order by 1")
        assert rows == [(i, 5) for i in range(5)]

    def test_group_by_ordinal_out_of_range(self, dbs):
        with pytest.raises(SqlPlanningError):
            dbs[0].execute("select n_regionkey from nation group by 9")

    def test_group_by_aggregate_alias_rejected(self, dbs):
        with pytest.raises(SqlPlanningError):
            dbs[0].execute("select count(*) as n from nation group by n")


class TestScalarFunctions:
    """upper/lower/length/abs/round/concat were unknown to the whole stack."""

    def test_upper_lower(self, dbs):
        rows = both(dbs, "select upper(r_name) as u, lower(r_name) as l from region order by u")
        assert rows[0] == ("AFRICA", "africa")

    def test_length(self, dbs):
        rows = both(dbs, "select length(r_name) as n from region order by n")
        assert [r[0] for r in rows] == sorted(len(n) for n in
                                              ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"])

    def test_concat_operator_and_function(self, dbs):
        rows = both(dbs, "select r_name || '!' as a, concat(r_name, '?') as b from region order by a")
        assert rows[0] == ("AFRICA!", "AFRICA?")

    def test_abs_round(self, dbs):
        rows = both(dbs, "select abs(-2) as a, round(2.567, 2) as r from region limit 1")
        assert rows == [(2, 2.57)]

    def test_function_over_aggregate(self, dbs):
        rows = both(dbs, "select round(avg(p_size), 1) as r from part")
        assert isinstance(rows[0][0], float)

    def test_unknown_function_is_typed(self, dbs):
        with pytest.raises(SqlPlanningError):
            dbs[0].execute("select frobnicate(r_name) from region")

    def test_wrong_arity_is_typed(self, dbs):
        with pytest.raises(SqlPlanningError):
            dbs[0].execute("select upper(r_name, 2) from region")

    def test_type_mismatch_is_typed(self, dbs):
        with pytest.raises(SqlPlanningError):
            dbs[0].execute("select abs(r_name) from region")


class TestQualifiedStar:
    """``alias.*`` failed to parse."""

    def test_qualified_star(self, dbs):
        rows = both(dbs, "select r.* from region r order by r_regionkey")
        assert len(rows) == 5 and len(rows[0]) == 3

    def test_qualified_star_in_join(self, dbs):
        rows = both(
            dbs,
            "select n.* from nation n join region r on n_regionkey = r_regionkey "
            "where r_name = 'ASIA' order by n_nationkey",
        )
        assert len(rows) == 5 and len(rows[0]) == 4

    def test_unknown_alias_star_is_typed(self, dbs):
        with pytest.raises(SqlPlanningError):
            dbs[0].execute("select z.* from region r")


class TestOffset:
    """OFFSET was lexed but rejected by the parser; the GPU compiler also
    dropped offset-without-limit on sorted output."""

    def test_limit_offset(self, dbs):
        rows = both(dbs, "select n_name from nation order by n_name limit 3 offset 2")
        assert len(rows) == 3

    def test_offset_without_limit(self, dbs):
        rows = both(dbs, "select n_name from nation order by n_name offset 22")
        assert [r[0] for r in rows] == ["UNITED KINGDOM", "UNITED STATES", "VIETNAM"]

    def test_offset_past_end(self, dbs):
        rows = both(dbs, "select r_name from region order by r_name limit 5 offset 99")
        assert rows == []

    def test_offset_requires_number(self, dbs):
        with pytest.raises(SqlSyntaxError):
            dbs[0].execute("select r_name from region offset x")


class TestUnorderedOffsetPastTheEnd:
    """An unordered OFFSET at or past the last row (``FetchSink`` ->
    ``slice_table``) charged ``end - start`` rows, a negative count: the
    launch was billed less than its fixed cost, and far enough past the
    end the clock refused to run backwards, out of ``execute`` even with
    a CPU fallback installed."""

    @pytest.fixture(scope="class")
    def sqlite(self):
        engine = SqliteBaseline()
        engine.load({"nation": generate_tpch(0.01)["nation"]})
        yield engine
        engine.close()

    @pytest.mark.parametrize("offset", [25, 26, 10**6, 10**8])
    @pytest.mark.parametrize("limit", ["", "limit 5 "])
    def test_empty_on_every_engine(self, dbs, sqlite, limit, offset):
        sql = f"select n_name from nation {limit}offset {offset}"
        assert sqlite.execute(sql) == []
        assert both(dbs, sql) == []
        result = dbs[1].execute(sql)
        assert result.profile is not None, "left the GPU tier"
        assert result.sim_seconds > 0.99 * GH200.kernel_launch_us * 1e-6  # a whole launch


class TestLeftJoinResidualOn:
    """Residual LEFT JOIN ON conjuncts were applied as a post-join filter,
    wrongly dropping null-extended rows."""

    def test_restrictive_on_keeps_all_left_rows(self, dbs):
        rows = both(
            dbs,
            "select count(*) as n from nation left join supplier "
            "on n_nationkey = s_nationkey and s_acctbal > 99999.0",
        )
        assert rows == [(25,)]

    def test_unmatched_rows_null_extend(self, dbs):
        rows = both(
            dbs,
            "select count(s_name) as matched, count(*) as total from nation "
            "left join supplier on n_nationkey = s_nationkey and 1 = 0",
        )
        assert rows == [(0, 25)]

    def test_left_side_residual_is_typed(self, dbs):
        with pytest.raises(SqlPlanningError):
            dbs[0].execute(
                "select count(*) from nation left join supplier "
                "on n_nationkey = s_nationkey and n_regionkey > 2"
            )


MALFORMED = [
    "select",
    "select from region",
    "select * from",
    "select * frm region",
    "select * from region where",
    "select * from region where r_name ==",
    "select * from region limit 'x'",
    "select * from region order by",
    "select * from region group by",
    "select count( from region",
    "select * from region r where like 'x'",
    "select * from region; drop table region",
    "select * from region union select * from nation",
    "select (select from nation) from region",
    "select * from region where r_name like 'x' escape",
    "select case when then 1 end from region",
    "select * from region offset",
    "select 'unterminated from region",
]

NONVIABLE = [
    "select * from no_such_table",
    "select no_such_column from region",
    "select r_name + 1 from region",
    "select sum(r_name) from region",
    "select * from region where no_such(r_name)",
    "select nation.* from region",
    "select * from region group by 0",
    "select upper(r_regionkey) from region",
]


class TestTypedErrorsOnly:
    """Anything the frontend rejects must surface as a typed error."""

    @pytest.mark.parametrize("sql", MALFORMED)
    def test_malformed_raises_syntax_or_planning(self, dbs, sql):
        with pytest.raises((SqlSyntaxError, SqlPlanningError)):
            dbs[0].execute(sql)

    @pytest.mark.parametrize("sql", NONVIABLE)
    def test_nonviable_raises_planning(self, dbs, sql):
        with pytest.raises((SqlSyntaxError, SqlPlanningError)):
            dbs[0].execute(sql)
