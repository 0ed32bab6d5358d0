"""Table 2 — distributed TPC-H (Q1, Q3, Q6) on a 4-node cluster.

Asserts the paper's shape:

* Sirius is fastest on all three queries, with the largest Doris speedup
  on Q1;
* Q3 is exchange-bound for Sirius (its plan shuffles both orders and
  lineitem);
* Q1 and Q6 are dominated by the coordinator/other component, not by GPU
  compute ("GPU execution is not the primary performance bottleneck");
* the ClickHouse-style baseline degrades most on the join query (Q3), the
  one its initiator-executed distributed joins cannot scale out.
"""

import pytest

from repro.bench import Table2Result


@pytest.fixture(scope="module")
def table2(distributed_harness, results_dir) -> Table2Result:
    result = distributed_harness.run()
    (results_dir / "table2.txt").write_text(
        f"Distributed TPC-H SF {result.scale_factor}, {result.num_nodes} nodes "
        "(simulated times)\n" + result.table() + "\n"
    )
    return result


def test_sirius_fastest_everywhere(table2):
    for row in table2.rows:
        assert row.sirius_s < row.doris_s
        assert row.sirius_s < row.clickhouse_s


def test_q1_has_largest_doris_speedup(table2):
    # Q1 shows the biggest Doris gap of the scan-shaped queries (the
    # paper: 12.5x vs 2.4x on Q6); Q3's ratio moves with the exchange
    # term, so compare within a tolerance of the overall max.
    q1 = table2.row(1)
    assert q1.speedup_vs_doris > table2.row(6).speedup_vs_doris
    assert q1.speedup_vs_doris >= 0.85 * max(r.speedup_vs_doris for r in table2.rows)
    assert q1.speedup_vs_doris > 4.0


def test_q3_is_exchange_bound_for_sirius(table2):
    q3 = table2.row(3)
    assert q3.sirius_exchange_s > q3.sirius_compute_s
    assert q3.exchanged_bytes > 0


def test_q1_q6_exchange_negligible(table2):
    for q in (1, 6):
        row = table2.row(q)
        assert row.sirius_exchange_s < 0.2 * row.sirius_s


def test_gpu_compute_not_the_bottleneck(table2):
    # §4.3: "GPU execution is not the primary performance bottleneck".
    for q in (1, 6):
        row = table2.row(q)
        assert row.sirius_other_s > row.sirius_compute_s * 0.5


def test_rows_are_views_of_query_profiles(table2):
    # The observability layer's QueryProfile is the source of truth;
    # every Table2Row numeric field must match it exactly.
    for row in table2.rows:
        profile = row.sirius_profile
        assert profile is not None
        split = profile.table2_split()
        assert row.sirius_s == profile.sim_seconds
        assert row.sirius_compute_s == split["compute"]
        assert row.sirius_exchange_s == split["exchange"]
        assert row.sirius_other_s == split["other"]
        assert row.exchanged_bytes == profile.exchanged_bytes
        assert profile.retries == 0  # fault-free run


def test_clickhouse_degrades_most_on_the_join_query(table2):
    # Relative to Doris, ClickHouse loses the most ground on Q3 - the
    # only join query - because its distributed joins run on the
    # initiator alone.  (The paper's absolute collapse, 15x slower
    # than Doris, needs SF100-sized broadcasts.)
    ratios = {r.query: r.clickhouse_s / r.doris_s for r in table2.rows}
    assert ratios[3] > ratios[1]

