"""The SQL planner's output, pinned statement by statement.

``plan_digests.json`` holds ``sha256(plan.to_json())`` of the unoptimised
plan for:

* the 22 TPC-H queries through MiniDuck's planner configuration (greedy
  join order, distinct counts);
* the same queries and ``CLICKHOUSE_REWRITES`` through ClickLite's
  (``reorder_joins=False``, no distinct counts, no correlation);
* every battery statement through MiniDuck's configuration.

Statistics come from ``generate_tpch(0.01)``.  A statement a planner
rejects is pinned as ``null`` and must still raise
:class:`SqlPlanningError`.  A refactor of the binder must leave every
digest as it is; a change that means to move plans regenerates the file
and says why:

    PYTHONPATH=src python tests/sql/test_plan_digests.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.bench.baselines.battery import battery_cases
from repro.hosts.catalog import Catalog
from repro.sql import SqlPlanner, SqlPlanningError
from repro.tpch import CLICKHOUSE_REWRITES, TPCH_QUERIES, generate_tpch

DIGESTS = Path(__file__).with_name("plan_digests.json")
SECTIONS = ("miniduck-tpch", "clicklite-tpch", "clicklite-rewrites", "miniduck-battery")


def statements() -> dict[str, dict[str, str]]:
    return {
        "miniduck-tpch": {f"q{n:02d}": sql for n, sql in TPCH_QUERIES.items()},
        "clicklite-tpch": {f"q{n:02d}": sql for n, sql in TPCH_QUERIES.items()},
        "clicklite-rewrites": {f"q{n:02d}": sql for n, sql in CLICKHOUSE_REWRITES.items()},
        "miniduck-battery": {case.case_id: case.sql for case in battery_cases()},
    }


def planners() -> dict[str, SqlPlanner]:
    catalog = Catalog()
    catalog.load_tables(generate_tpch(0.01))
    miniduck = SqlPlanner(catalog.stats())
    clicklite = SqlPlanner(
        catalog.stats(distinct=False), reorder_joins=False, allow_correlated_subqueries=False
    )
    return {
        "miniduck-tpch": miniduck,
        "clicklite-tpch": clicklite,
        "clicklite-rewrites": clicklite,
        "miniduck-battery": miniduck,
    }


def digest(planner: SqlPlanner, sql: str):
    try:
        plan = planner.plan_sql(sql)
    except SqlPlanningError:
        return None
    return hashlib.sha256(plan.to_json().encode()).hexdigest()


@pytest.fixture(scope="module")
def section_planners():
    return planners()


@pytest.mark.parametrize("section", SECTIONS)
def test_plans_match_their_digests(section_planners, section):
    pinned = json.loads(DIGESTS.read_text())[section]
    planner = section_planners[section]
    got = {key: digest(planner, sql) for key, sql in statements()[section].items()}
    assert got.keys() == pinned.keys()
    moved = sorted(key for key in got if got[key] != pinned[key])
    assert not moved, f"{section}: plans moved for {moved}"


if __name__ == "__main__":
    by_section = planners()
    payload = {
        section: {key: digest(by_section[section], sql) for key, sql in stmts.items()}
        for section, stmts in statements().items()
    }
    DIGESTS.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
