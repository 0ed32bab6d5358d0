"""Nullable non-string keys, checked against SQLite.

The right side of a LEFT JOIN is the one place TPC-H produces NULLs in
integer, date and float columns; grouping or joining on such a column is
where "NULL is one key value" has to hold on every path that can produce
an answer.  SQLite is the external oracle: the CPU reference engine is
itself under test here.
"""

import pytest

from repro.bench.baselines import rows_equal
from repro.bench.baselines.engines import SqliteBaseline
from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine, MiniDuck, SiriusExtension
from repro.tpch import generate_tpch

LEFT = "customer left join orders on c_custkey = o_custkey"

STATEMENTS = {
    "int-key": f"select o_custkey, count(*) as c from {LEFT} group by o_custkey",
    "date-key": f"select o_orderdate, count(*) as c, sum(c_acctbal) as s from {LEFT} group by o_orderdate",
    "float-key": f"select o_totalprice, count(*) as c from {LEFT} group by o_totalprice",
    "two-column-key": (
        f"select c_nationkey, o_shippriority, count(*) as c, sum(o_totalprice) as s "
        f"from {LEFT} group by c_nationkey, o_shippriority"
    ),
    "count-distinct": (
        f"select o_orderdate, count(distinct c_nationkey) as n, count(o_orderkey) as c "
        f"from {LEFT} group by o_orderdate"
    ),
    "nullable-probe-inner": (
        f"select c_nationkey, count(*) as c, sum(l_quantity) as q "
        f"from {LEFT} join lineitem on l_orderkey = o_orderkey group by c_nationkey"
    ),
    "nullable-probe-left": (
        f"select o_custkey, count(*) as c, count(l_orderkey) as m "
        f"from {LEFT} left join lineitem on l_orderkey = o_orderkey group by o_custkey"
    ),
}

# At these pools the spool would hold most sink inputs in core, so both
# out-of-core configurations scatter every chunk: NULL-key partitioning
# stays under the oracle.
pytestmark = pytest.mark.usefixtures("partition_every_sink")

# The paper default, the partitioned operators alone, and tpch_pressure's
# configuration (perfbench/workloads.py): partitions that really spill.
ENGINES = {
    "cpu": None,
    "sirius": {},
    "out-of-core": {"out_of_core": True},
    "pressure": {"memory_limit_gb": 0.032, "out_of_core": True, "overlap": True, "fusion": True},
}


@pytest.fixture(scope="module")
def tables():
    return generate_tpch(0.01)


@pytest.fixture(scope="module")
def sqlite(tables):
    engine = SqliteBaseline()
    engine.load(tables)
    yield engine
    engine.close()


@pytest.fixture(scope="module", params=list(ENGINES))
def db(request, tables):
    duck = MiniDuck()
    duck.load_tables(tables)
    options = ENGINES[request.param]
    if options is not None:
        duck.install_extension(SiriusExtension(SiriusEngine.for_spec(GH200, **options), CpuEngine()))
    return duck


@pytest.mark.parametrize("name", list(STATEMENTS))
def test_rows_equal_sqlite(db, sqlite, name):
    sql = STATEMENTS[name]
    assert rows_equal(db.execute(sql).table.to_rows(), sqlite.execute(sql))


def test_null_customers_form_one_group(db, sqlite):
    """The statement of ISSUE 21, rows spelled out: 500 customers of SF
    0.01 placed no order, and they are one group."""
    sql = STATEMENTS["int-key"] + " order by c desc, o_custkey limit 6"
    expected = [(None, 500), (790, 35), (850, 35), (307, 34), (688, 34), (1135, 33)]
    assert sqlite.execute(sql) == expected
    assert db.execute(sql).table.to_rows() == expected
