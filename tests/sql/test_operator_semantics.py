"""``%``, ``IN`` with a NULL element and ``BETWEEN`` with a NULL bound,
checked against SQLite on the GPU path, the CPU engine and the host fold.

All three were wrong somewhere: ``%`` floored (``-7 % 3`` gave 2, SQLite
gives -1) and turned a zero divisor into int64's minimum instead of NULL;
a row matching no element of ``IN (…, NULL)`` was FALSE instead of NULL,
so ``NOT IN (1, NULL)`` returned rows; and the CPU engine ANDed all three
validities of ``BETWEEN``, so ``x BETWEEN NULL AND 5`` was NULL even where
``x > 5`` makes it FALSE.  The table below holds every sign of dividend
and divisor, zeros and NULLs, and a stored string ``'None'``.

The same oracle covers the SQL planner's post-aggregate binder: NOT, CAST,
BETWEEN, IN, LIKE and IS NULL over an aggregate, NULL and negative
literals beside one, ORDER BY an aggregate or group key outside the select
list, and ``%`` in a HAVING that holds a scalar subquery.
"""

import itertools

import pytest

from repro.bench.baselines.engines import SqliteBaseline
from repro.columnar import Schema, Table
from repro.core import SiriusEngine
from repro.core.expr_compile import compile_expression
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine, MiniDuck, SiriusExtension
from repro.plan import Literal, ScalarCall

DIVIDENDS = [-7, -6, -1, 0, 1, 6, 7, None]
DIVISORS = [-3, -2, 0, 2, 3, None]
STRINGS = ["x", "None", "y", None]


def _table() -> Table:
    pairs = list(itertools.product(DIVIDENDS, DIVISORS))
    return Table.from_pydict(
        {
            "id": list(range(len(pairs))),
            "a": [a for a, _ in pairs],
            "b": [b for _, b in pairs],
            "s": [STRINGS[i % len(STRINGS)] for i in range(len(pairs))],
        },
        Schema([("id", "int64"), ("a", "int64"), ("b", "int64"), ("s", "string")]),
    )


@pytest.fixture(scope="module")
def tables():
    return {"t": _table()}


@pytest.fixture(scope="module")
def sqlite(tables):
    engine = SqliteBaseline()
    engine.load(tables)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def engines(tables):
    cpu = MiniDuck()
    cpu.load_tables(tables)
    gpu = MiniDuck()
    gpu.load_tables(tables)
    gpu.install_extension(
        SiriusExtension(SiriusEngine.for_spec(GH200, memory_limit_gb=4.0), CpuEngine())
    )
    return {"cpu": cpu, "gpu": gpu}


@pytest.fixture(params=["cpu", "gpu"])
def db(request, engines):
    return request.param, engines[request.param]


def check(db, sqlite, sql):
    """Same rows as SQLite, in order (every statement orders by a key
    without NULLs or by one descending, where both put NULL last)."""
    name, engine = db
    result = engine.execute(sql)
    assert result.table.to_rows() == sqlite.execute(sql), sql
    if name == "gpu":
        assert result.profile is not None, "left the GPU tier"


MODULO = {
    "column-divisor": "select id, a % b from t order by id",
    "constant-divisors": (
        "select id, a % 3, a % -3, a % 2, a % -2, a % 0, a % null from t order by id"
    ),
    "constant-dividends": "select id, -7 % b, 7 % b, 0 % b, null % b from t order by id",
    "remainder-minus-one": "select id from t where a % b = -1 order by id",
    "negative-remainders": "select id from t where a % 3 < 0 order by id",
    "shifted-dividend": "select id from t where (a - 12) % 5 = -2 order by id",
    "null-remainders": "select id from t where a % b is null order by id",
}


@pytest.mark.parametrize("name", list(MODULO))
def test_modulo(db, sqlite, name):
    check(db, sqlite, MODULO[name])


@pytest.mark.parametrize("dividend", [a for a in DIVIDENDS if a is not None])
def test_modulo_of_constants(db, sqlite, dividend):
    """Both operands constant: the GPU path folds them on the host."""
    terms = ", ".join(f"{dividend} % {b}" for b in ("-3", "-2", "0", "2", "3", "null"))
    check(db, sqlite, f"select id, {terms} from t where id < 2 order by id")


def test_the_host_fold_itself(sqlite):
    for a, b in itertools.product(DIVIDENDS, DIVISORS):
        call = ScalarCall("modulo", [Literal(a), Literal(b)])
        folded = compile_expression(call)(None, None)
        literal = ["null" if v is None else str(v) for v in (a, b)]
        assert folded == sqlite.execute(f"select {literal[0]} % {literal[1]}")[0][0], (a, b)


IN_LISTS = {
    "int": ("a", "(1, -7, 99)", "(1, -7, null)"),
    "string": ("s", "('x', 'None')", "('x', null)"),
}


@pytest.mark.parametrize(
    "form", ["{c} in {l}", "{c} not in {l}", "not ({c} in {l})"], ids=["in", "not-in", "not-of-in"]
)
@pytest.mark.parametrize("with_null", [False, True], ids=["no-null", "null-listed"])
@pytest.mark.parametrize("kind", list(IN_LISTS))
def test_in_list(db, sqlite, kind, with_null, form):
    column, plain, nulled = IN_LISTS[kind]
    predicate = form.format(c=column, l=nulled if with_null else plain)
    check(db, sqlite, f"select id from t where {predicate} order by id")
    check(db, sqlite, f"select id from t where ({predicate}) is null order by id")


def test_null_literal_is_not_the_string_none(db, sqlite):
    check(db, sqlite, "select id from t where s in (null) order by id")
    check(db, sqlite, "select id from t where s in ('None') order by id")


BOUNDS = {"null-low": ("null", "5"), "null-high": ("-1", "null"), "both-null": ("null", "null")}


@pytest.mark.parametrize(
    "form",
    ["{p}", "not ({p})", "({p}) is null", "not ({p}) is null"],
    ids=["plain", "not", "is-null", "not-is-null"],
)
@pytest.mark.parametrize("bounds", list(BOUNDS))
def test_between_with_a_null_bound(db, sqlite, bounds, form):
    low, high = BOUNDS[bounds]
    predicate = form.format(p=f"a between {low} and {high}")
    check(db, sqlite, f"select id from t where {predicate} order by id")


def test_between_with_a_null_bound_in_a_projection(db, sqlite):
    check(db, sqlite, "select id, a between null and 5, a between b and null from t order by id")


# Expressions over aggregates and ORDER BY keys outside the select list:
# forms the post-aggregate binder once rejected although SQLite answers
# them.  ``order by <key> desc`` puts a NULL group last on every engine.
POST_AGGREGATE = {
    "not": "select a, count(*) as n from t group by a having not (sum(a) > 0) order by a desc",
    "cast": "select a, cast(sum(a) as double) as v from t group by a order by a desc",
    "between": "select a from t group by a having sum(a) between -36 and 6 order by a desc",
    "in": "select a from t group by a having sum(a) in (-42, 0, 42) order by a desc",
    "like": "select b, count(*) as n from t group by b having max(s) like 'N%' order by b desc",
    "is-null": "select a, count(*) as n from t group by a having sum(a) is null order by a desc",
    "null-literal": (
        "select a, case when sum(a) > 0 then null else count(*) end as v "
        "from t group by a order by a desc"
    ),
    "order-by-unselected-aggregate": "select a from t group by a order by sum(id) desc",
    "order-by-unselected-group-key": (
        "select count(*) as n, sum(id) as v from t group by a order by a desc"
    ),
    "modulo-in-having-subquery": (
        "select a, count(*) as n from t group by a "
        "having sum(a) % 4 = (select min(b) + 1 from t) order by a desc"
    ),
}


@pytest.mark.parametrize("name", list(POST_AGGREGATE))
def test_post_aggregate_forms(db, sqlite, name):
    check(db, sqlite, POST_AGGREGATE[name])


def test_round_to_a_negative_digit_count(db):
    """SQLite ignores a negative digit count, so the oracle is by hand:
    ``sum(a)`` is ``6 * a`` per group, rounded to tens."""
    name, engine = db
    result = engine.execute("select a, round(sum(a), -1) as v from t group by a order by a desc")
    assert result.table.to_rows() == [
        (7, 40), (6, 40), (1, 10), (0, 0), (-1, -10), (-6, -40), (-7, -40), (None, None)
    ]
    if name == "gpu":
        assert result.profile is not None, "left the GPU tier"
