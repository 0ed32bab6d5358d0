"""Integration tests: distributed execution matches single-node results."""

import pytest

from repro.hosts import MiniDoris, MiniDuck
from repro.tpch import generate_tpch, tpch_query


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=0.02)


@pytest.fixture(scope="module")
def reference(data):
    duck = MiniDuck()
    duck.load_tables(data)
    return duck


def normalise(table):
    rows = []
    for row in table.to_rows():
        rows.append(tuple(f"{v:.6g}" if isinstance(v, float) else repr(v) for v in row))
    return sorted(rows)


@pytest.fixture(scope="module")
def doris(data):
    db = MiniDoris(num_nodes=4, mode="doris")
    db.load_tables(data)
    return db


@pytest.fixture(scope="module")
def sirius_cluster(data):
    db = MiniDoris(num_nodes=4, mode="sirius")
    db.load_tables(data)
    db.warm_caches()
    return db


@pytest.fixture(scope="module")
def clickhouse(data):
    db = MiniDoris(num_nodes=4, mode="clickhouse")
    db.load_tables(data)
    return db


class TestCorrectness:
    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_doris_matches_single_node(self, q, doris, reference):
        dist = doris.execute(tpch_query(q))
        single = reference.execute(tpch_query(q))
        assert normalise(dist.table) == normalise(single.table)

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_sirius_cluster_matches_single_node(self, q, sirius_cluster, reference):
        dist = sirius_cluster.execute(tpch_query(q))
        single = reference.execute(tpch_query(q))
        assert normalise(dist.table) == normalise(single.table)

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_clickhouse_cluster_matches_single_node(self, q, clickhouse, reference):
        dist = clickhouse.execute(tpch_query(q, for_clickhouse=True))
        single = reference.execute(tpch_query(q))
        assert normalise(dist.table) == normalise(single.table)

    def test_additional_queries_also_distribute(self, doris, reference):
        # Beyond the paper's supported subset: Q4 (semi join) and Q12.
        for q in (4, 12):
            dist = doris.execute(tpch_query(q))
            single = reference.execute(tpch_query(q))
            assert normalise(dist.table) == normalise(single.table)

    def test_avg_supported_in_distributed_mode(self, doris, reference):
        """§3.4: the paper's prototype lacks avg in distributed mode; this
        reproduction implements the sum/count decomposition extension."""
        sql = "select l_returnflag, avg(l_quantity) as aq from lineitem group by l_returnflag order by l_returnflag"
        dist = doris.execute(sql)
        single = reference.execute(sql)
        assert normalise(dist.table) == normalise(single.table)


class TestAccounting:
    def test_breakdown_sums_to_total(self, sirius_cluster):
        res = sirius_cluster.execute(tpch_query(1))
        parts = res.compute_seconds + res.exchange_seconds + res.other_seconds
        assert parts == pytest.approx(res.total_seconds, rel=1e-6)

    def test_exchange_bytes_counted_for_q3(self, sirius_cluster):
        res = sirius_cluster.execute(tpch_query(3))
        assert res.exchanged_bytes > 0

    def test_q1_moves_almost_nothing(self, sirius_cluster):
        res = sirius_cluster.execute(tpch_query(1))
        # Only partial aggregates cross the wire.
        assert res.exchanged_bytes < 100_000

    def test_temp_tables_deregistered(self, sirius_cluster):
        sirius_cluster.execute(tpch_query(3))
        for engine in sirius_cluster._node_engines:
            cached = engine.buffer_manager.cached_tables()
            assert not any(name.startswith("__ex") for name in cached)

    def test_statistics_counted_once_per_table(self, doris, unique_calls):
        """The coordinator's per-query planning cost must not scale with
        the data: distinct counts are taken once per loaded table."""
        doris.plan_fragments(tpch_query(3))
        del unique_calls[:]
        doris.plan_fragments(tpch_query(3))
        assert unique_calls == []

    def test_node_stats_available(self, sirius_cluster):
        stats = sirius_cluster.node_stats()
        assert len(stats) == 4

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MiniDoris(mode="quantum")


class TestPredicateTransfer:
    """§3.4 predicate transfer (the paper's named shuffle optimisation)."""

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_results_identical(self, q, data, reference):
        db = MiniDoris(num_nodes=4, mode="sirius", predicate_transfer=True)
        db.load_tables(data)
        db.warm_caches()
        dist = db.execute(tpch_query(q))
        single = reference.execute(tpch_query(q))
        assert normalise(dist.table) == normalise(single.table)

    def test_reduces_exchange_volume(self, data, sirius_cluster):
        pt = MiniDoris(num_nodes=4, mode="sirius", predicate_transfer=True)
        pt.load_tables(data)
        pt.warm_caches()
        baseline = sirius_cluster.execute(tpch_query(3))
        transferred = pt.execute(tpch_query(3))
        assert transferred.exchanged_bytes < baseline.exchanged_bytes
