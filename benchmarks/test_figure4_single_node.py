"""Figure 4 — TPC-H end-to-end, single node, cost-normalised.

MiniDuck (DuckDB role) and ClickLite (ClickHouse role) on the CPU device
vs Sirius on the GH200 device.  Asserts the paper's shape:

* Sirius beats MiniDuck on (almost) every query, several-fold geomean;
* Sirius beats ClickLite by a larger factor;
* ClickLite cannot run Q21 and does not finish Q9;
* the worst Sirius queries are the tiny-input ones (launch-overhead
  bound), matching GPU behaviour at small scale.
"""

import pytest

from repro.bench import Figure4Result


@pytest.fixture(scope="module")
def figure4(single_node_harness, results_dir) -> Figure4Result:
    result = single_node_harness.run()
    (results_dir / "figure4.txt").write_text(
        f"TPC-H SF {result.scale_factor} (simulated hot-run times)\n"
        + result.figure4_table()
        + "\n"
    )
    (results_dir / "figure5.txt").write_text(result.figure5_table() + "\n")
    return result


def test_all_queries_ran(figure4):
    assert [t.query for t in figure4.timings] == list(range(1, 23))
    assert all(t.sirius_s > 0 and t.duckdb_s > 0 for t in figure4.timings)


def test_sirius_beats_duckdb_geomean(figure4):
    # Paper: 7x at SF100.  At bench scale the simulated geomean lands
    # lower (launch overheads amortise with data size) but must remain a
    # clear multi-x win.
    assert figure4.speedup_vs_duckdb > 3.0


def test_sirius_beats_clickhouse_by_more(figure4):
    assert figure4.speedup_vs_clickhouse >= figure4.speedup_vs_duckdb * 0.9
    assert figure4.speedup_vs_clickhouse > 3.0


def test_clickhouse_q21_unsupported(figure4):
    q21 = next(t for t in figure4.timings if t.query == 21)
    assert q21.clickhouse_status == "unsupported"


def test_clickhouse_q9_does_not_finish(figure4):
    q9 = next(t for t in figure4.timings if t.query == 9)
    assert q9.clickhouse_status == "dnf"


def test_figure4_byte_identical_to_seed(figure4, results_dir, bench_sf):
    """Rendered output must match the seed snapshot byte for byte (Q9 DNF /
    Q21 unsupported rendering included), so incidental changes can't move a
    single simulated nanosecond.  Refreshed once for the LEFT JOIN residual-ON
    correctness fix, which changes Q13's plan (filter pushed below the join;
    answer cross-validated against SQLite)."""

    if bench_sf != 0.1:
        pytest.skip("seed snapshot was rendered at SF 0.1")
    generated = (results_dir / "figure4.txt").read_text()
    seed = (results_dir / "figure4_seed.txt").read_text()
    assert generated == seed


def test_big_scan_queries_show_large_speedup(figure4):
    # Q1 and Q6 stream the full lineitem table - the bandwidth-ratio
    # regime where the GPU advantage is largest.
    for q in (1, 6):
        t = next(x for x in figure4.timings if x.query == q)
        assert t.duckdb_s / t.sirius_s > 5.0

