"""Unit tests for the cluster substrate: partitioning, nodes, clocks."""

import pytest

from repro.columnar import Schema, Table
from repro.distributed import Cluster, PARTITION_KEYS, partition_table
from repro.gpu import Device
from repro.gpu.specs import A100_40G
from repro.tpch import generate_tpch


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=0.01)


class TestPartitioning:
    def test_partitions_cover_all_rows(self):
        t = Table.from_pydict(
            {"k": list(range(100)), "v": [float(i) for i in range(100)]},
            Schema([("k", "int64"), ("v", "float64")]),
        )
        parts = partition_table(t, "k", 4)
        assert sum(p.num_rows for p in parts) == 100

    def test_same_key_same_partition(self):
        t = Table.from_pydict(
            {"k": [7, 7, 11, 11]}, Schema([("k", "int64")])
        )
        parts = partition_table(t, "k", 3)
        homes = [i for i, p in enumerate(parts) if 7 in p["k"].to_pylist()]
        assert len(homes) == 1

    def test_string_partition_keys_co_locate(self):
        """Strings place by their value, not their code: two tables with
        different dictionaries put an equal string on the same node."""
        schema = Schema([("s", "string")])
        a = Table.from_pydict({"s": ["pear", "fig", None, "kiwi", "fig"]}, schema)
        b = Table.from_pydict({"s": ["kiwi", None, "fig", "apple"]}, schema)
        pa, pb = partition_table(a, "s", 3), partition_table(b, "s", 3)
        for node in range(3):
            assert set(pb[node]["s"].to_pylist()) & set(a["s"].to_pylist()) <= set(
                pa[node]["s"].to_pylist()
            )
        assert sum(p.num_rows for p in pa) == a.num_rows

    def test_co_partitioning_of_equal_keys(self):
        """Rows with equal key values land on the same node across tables -
        the property that makes co-located joins correct."""
        a = Table.from_pydict({"k": list(range(50))}, Schema([("k", "int64")]))
        b = Table.from_pydict({"k": list(range(0, 50, 5))}, Schema([("k", "int64")]))
        pa = partition_table(a, "k", 4)
        pb = partition_table(b, "k", 4)
        for node in range(4):
            assert set(pb[node]["k"].to_pylist()) <= set(pa[node]["k"].to_pylist())


class TestCluster:
    def test_default_is_four_a100s(self):
        cluster = Cluster()
        assert cluster.num_nodes == 4
        assert all(n.device.spec.name == A100_40G.name for n in cluster.nodes)

    def test_load_replicates_small_tables(self, data):
        cluster = Cluster(num_nodes=4)
        cluster.load_tables(data)
        for node in cluster.nodes:
            assert node.catalog["nation"].num_rows == 25  # replicated
        lineitem_total = sum(n.catalog["lineitem"].num_rows for n in cluster.nodes)
        assert lineitem_total == data["lineitem"].num_rows  # partitioned

    def test_partitioning_of(self, data):
        cluster = Cluster()
        cluster.load_tables(data)
        assert cluster.partitioning_of("nation") is None
        assert cluster.partitioning_of("orders") == PARTITION_KEYS["orders"]

    def test_heartbeat_membership(self):
        cluster = Cluster(num_nodes=3)
        assert len(cluster.active_nodes()) == 3
        assert all(n.alive for n in cluster.nodes)

    def test_silent_node_excluded_after_timeout(self):
        """Liveness is heartbeat *staleness*, not node-internal state: a
        node that stops beating drops out once the timeout elapses."""
        cluster = Cluster(num_nodes=3, heartbeat_timeout_s=0.1)
        cluster.nodes[2].crash()
        for node in cluster.nodes:
            node.clock.advance(0.05)
        cluster.beat_all()  # node 2 is dead and stays silent
        assert len(cluster.active_nodes()) == 3  # silence not yet stale
        for node in cluster.nodes:
            node.clock.advance(0.2)
        cluster.beat_all()
        active = cluster.active_nodes()
        assert [n.uid for n in active] == [0, 1]

    def test_heartbeat_does_not_resurrect(self):
        cluster = Cluster(num_nodes=2, heartbeat_timeout_s=0.1)
        cluster.nodes[1].crash()
        cluster.nodes[1].clock.advance(1.0)
        cluster.nodes[1].heartbeat()  # must be a no-op once dead
        assert cluster.nodes[1].last_heartbeat == 0.0

    def test_remove_nodes_renumbers_but_keeps_uids(self):
        cluster = Cluster(num_nodes=4)
        cluster.remove_nodes([1])
        assert [n.node_id for n in cluster.nodes] == [0, 1, 2]
        assert [n.uid for n in cluster.nodes] == [0, 2, 3]
        assert cluster.communicator.world_size == 3

    def test_coordinator_not_evictable(self):
        cluster = Cluster(num_nodes=2)
        with pytest.raises(RuntimeError, match="coordinator"):
            cluster.remove_nodes([0])

    def test_independent_clocks_align_on_barrier(self):
        cluster = Cluster(num_nodes=2)
        cluster.nodes[0].clock.advance(5.0)
        assert cluster.nodes[1].clock.now == 0.0
        latest = cluster.align_clocks(category="exchange")
        assert latest == 5.0
        assert cluster.nodes[1].clock.now == 5.0
        assert cluster.nodes[1].clock.bucket("exchange") == 5.0

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Cluster(num_nodes=0)

    def test_custom_device_factory(self):
        from repro.gpu.specs import M7I_CPU

        cluster = Cluster(num_nodes=2, device_factory=lambda c: Device(M7I_CPU, clock=c))
        assert all(not n.device.is_gpu for n in cluster.nodes)
