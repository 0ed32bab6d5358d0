"""Random-SQL differential fuzzing: MiniDuck CPU vs Sirius GPU.

hypothesis composes random (valid) SQL strings over a small catalog; the
query must parse, plan, and produce identical results on both engines.
Exercises the full stack — lexer to kernels — under combinations no
hand-written test enumerates.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Schema, Table
from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine, MiniDuck, SiriusExtension

SCHEMA_T = Schema([("a", "int64"), ("b", "float64"), ("s", "string"), ("d", "date")])
SCHEMA_U = Schema([("a", "int64"), ("w", "int64")])

NUM_COLS = ["a", "b"]
CMP_OPS = ["=", "<>", "<", "<=", ">", ">="]
AGG_FUNCS = ["sum", "min", "max", "avg", "count"]
# HAVING conditions over one aggregate ``{m}`` and a constant ``{k}``.
HAVING_FORMS = [
    "not ({m} > {k})",
    "{m} between {k} and {k} + 10",
    "{m} in ({k}, 1, 6)",
    "{m} is null",
    "{m} is not null",
    "{m} * 2 - {k} > 0",
    "{m} % 4 <> {k}",
]


@st.composite
def predicates(draw, alias=""):
    kind = draw(st.sampled_from(["cmp", "between", "in", "like", "null"]))
    prefix = f"{alias}." if alias else ""
    if kind == "cmp":
        column = draw(st.sampled_from(NUM_COLS))
        op = draw(st.sampled_from(CMP_OPS))
        return f"{prefix}{column} {op} {draw(st.integers(-5, 15))}"
    if kind == "between":
        lo = draw(st.integers(-5, 10))
        return f"{prefix}a between {lo} and {lo + draw(st.integers(0, 10))}"
    if kind == "in":
        values = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4))
        return f"{prefix}a in ({', '.join(map(str, values))})"
    if kind == "like":
        pattern = draw(st.sampled_from(["x%", "%y", "%z%", "q_"]))
        return f"{prefix}s like '{pattern}'"
    return f"{prefix}b is not null"


@st.composite
def sql_queries(draw):
    use_join = draw(st.booleans())
    where = []
    n_preds = draw(st.integers(0, 2))
    for _ in range(n_preds):
        where.append(draw(predicates("t" if use_join else "")))

    shape = draw(st.sampled_from(["plain", "group", "global", "having"]))
    if shape == "having":
        # Expressions over an aggregate, and ORDER BY a group key or an
        # aggregate the select list may leave out.
        a = "t.a" if use_join else "a"
        measures = [f"{agg}({column})" for agg in AGG_FUNCS for column in (a, "b")]
        measures.append("count(*)")
        key = draw(st.sampled_from(["s", a]))
        condition = draw(st.sampled_from(HAVING_FORMS)).format(
            m=draw(st.sampled_from(measures)), k=draw(st.integers(-5, 15))
        )
        order = draw(st.sampled_from([key] + measures))
        select = draw(st.sampled_from([f"{key}, count(*) as n", "count(*) as n", "sum(b) as v"]))
        tail = f" group by {key} having {condition} order by {order}"
    elif shape == "group":
        agg = draw(st.sampled_from(AGG_FUNCS))
        select = f"s, {agg}(b) as m, count(*) as n"
        tail = " group by s order by s"
    elif shape == "global":
        select = "sum(b) as total, count(*) as n"
        tail = ""
    else:
        select = "a, b, s" if not use_join else "t.a, t.b, t.s, u.w"
        order_cols = "a, b, s" if not use_join else "t.a, t.b, t.s, u.w"
        tail = f" order by {order_cols}"
        if draw(st.booleans()):
            tail += f" limit {draw(st.integers(0, 12))}"

    if use_join:
        frm = "t, u"
        where = ["t.a = u.a"] + where
    else:
        frm = "t"
    where_clause = f" where {' and '.join(where)}" if where else ""
    return f"select {select} from {frm}{where_clause}{tail}"


@pytest.fixture(scope="module")
def engines():
    import numpy as np

    rng = np.random.default_rng(7)
    n = 60
    t = Table.from_pydict(
        {
            "a": rng.integers(0, 12, n).tolist(),
            "b": np.round(rng.uniform(-20, 20, n), 2).tolist(),
            "s": [rng.choice(["xeno", "navy", "buzz", "quay", "myz"]) for _ in range(n)],
            "d": ["1995-01-01"] * n,
        },
        SCHEMA_T,
    )
    u = Table.from_pydict(
        {"a": rng.integers(0, 12, 20).tolist(), "w": rng.integers(0, 9, 20).tolist()},
        SCHEMA_U,
    )
    cpu_db = MiniDuck()
    cpu_db.load_tables({"t": t, "u": u})
    gpu_db = MiniDuck()
    gpu_db.load_tables({"t": t, "u": u})
    gpu_db.install_extension(
        SiriusExtension(SiriusEngine.for_spec(GH200, memory_limit_gb=1.0), CpuEngine())
    )
    return cpu_db, gpu_db


def canonical_rows(table):
    return sorted(
        table.to_rows(),
        key=lambda row: tuple(
            f"{v:.6g}" if isinstance(v, float) else repr(v) for v in row
        ),
    )


def values_match(x, y) -> bool:
    # String rounding (".6g") is unstable when two results a few ulps
    # apart straddle a rounding boundary; compare floats numerically.
    if isinstance(x, float) and isinstance(y, float):
        return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)
    return x == y


def assert_same_results(a, b, sql):
    rows_a, rows_b = canonical_rows(a), canonical_rows(b)
    assert len(rows_a) == len(rows_b), sql
    for row_a, row_b in zip(rows_a, rows_b):
        assert len(row_a) == len(row_b), sql
        assert all(values_match(x, y) for x, y in zip(row_a, row_b)), (
            sql,
            row_a,
            row_b,
        )


class TestSqlDifferential:
    @settings(max_examples=150, deadline=None)
    @given(sql=sql_queries())
    def test_cpu_and_gpu_agree(self, engines, sql):
        cpu_db, gpu_db = engines
        cpu = cpu_db.execute(sql)
        gpu = gpu_db.execute(sql)
        assert_same_results(cpu.table, gpu.table, sql)
        assert cpu.table.schema.names() == gpu.table.schema.names()
