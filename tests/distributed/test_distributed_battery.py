"""The shape battery and the 22 TPC-H queries through MiniDoris.

Every statement the fragmenter accepts must return the single-node CPU
engine's rows (``rows_equal``) in its committed shape, at 4 nodes and at
3 (a 4-node cluster after a node failure).  What it rejects is pinned by
id: semi / anti joins whose probe side is replicated.
"""

import pytest

from repro.bench.baselines import battery_cases, expected_shapes, rows_equal
from repro.bench.baselines.battery import SCALE_FACTOR
from repro.hosts import MiniDoris, MiniDuck
from repro.hosts.minidoris import DistributedUnsupportedError
from repro.tpch import generate_tpch, tpch_query

UNSUPPORTED_CASES = {
    "subquery-003",
    "subquery-004",
    "subquery-005",
    "subquery-021",
    "subquery-025",
    "subquery-028",
}
UNSUPPORTED_QUERIES = {20, 22}

# A GROUP BY without ORDER BY: every node's groups must reach the result.
GROUP_BY_PROBES = {
    "select l_returnflag, count(*) as n from lineitem group by l_returnflag": 3,
    "select l_returnflag, l_linestatus, count(*) as n from lineitem "
    "group by l_returnflag, l_linestatus": 4,
    "select o_orderpriority, count(*) as n from orders group by o_orderpriority": 5,
}


@pytest.fixture(scope="module")
def tables():
    return generate_tpch(SCALE_FACTOR)


@pytest.fixture(scope="module")
def cpu(tables):
    db = MiniDuck()
    db.load_tables(tables)
    return db


def doris(tables, nodes, mode="sirius"):
    db = MiniDoris(num_nodes=nodes, mode=mode)
    db.load_tables(tables)
    return db


def run(db, sql):
    """The distributed result table, or ``None`` when the fragmenter
    rejects the statement."""
    try:
        return db.execute(sql).table
    except DistributedUnsupportedError as error:
        assert "semi/anti join with replicated probe side" in str(error)
        return None


@pytest.mark.parametrize("nodes", [4, 3])
def test_battery_matches_the_cpu_engine(tables, cpu, nodes):
    db = doris(tables, nodes)
    shapes = expected_shapes()
    unsupported, wrong = set(), []
    for case in battery_cases():
        got = run(db, case.sql)
        if got is None:
            unsupported.add(case.case_id)
            continue
        want = cpu.execute(case.sql).table
        if (got.num_rows, got.num_columns) != shapes[case.case_id] or not rows_equal(
            got.to_rows(), want.to_rows()
        ):
            wrong.append(case.case_id)
    assert wrong == []
    assert unsupported == UNSUPPORTED_CASES


@pytest.mark.parametrize("nodes", [4, 3])
def test_tpch_matches_the_cpu_engine(tables, cpu, nodes):
    db = doris(tables, nodes)
    unsupported, wrong = set(), []
    for q in range(1, 23):
        got = run(db, tpch_query(q))
        if got is None:
            unsupported.add(q)
        elif not rows_equal(got.to_rows(), cpu.execute(tpch_query(q)).table.to_rows()):
            wrong.append(q)
    assert wrong == []
    assert unsupported == UNSUPPORTED_QUERIES


@pytest.mark.parametrize("mode", ["doris", "sirius"])
def test_group_by_returns_every_nodes_groups(tables, cpu, mode):
    db = doris(tables, 4, mode)
    for sql, groups in GROUP_BY_PROBES.items():
        got = db.execute(sql).table
        assert got.num_rows == groups, sql
        assert rows_equal(got.to_rows(), cpu.execute(sql).table.to_rows()), sql
