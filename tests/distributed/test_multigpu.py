"""Tests for the multi-GPU-per-node extension (§3.4)."""

import pytest

from repro.distributed import Cluster
from repro.gpu import Communicator, INFINIBAND_NDR, NVLINK_P2P, SimClock
from repro.hosts import MiniDoris, MiniDuck
from repro.tpch import generate_tpch, tpch_query

GB = 1_000_000_000


class TestHeterogeneousCommunicator:
    def make_comm(self):
        clocks = [SimClock() for _ in range(4)]
        # Ranks 0,1 share host A; 2,3 share host B.
        def fabric_for(i, j):
            return NVLINK_P2P if i // 2 == j // 2 else None

        return clocks, Communicator(clocks, INFINIBAND_NDR, fabric_for=fabric_for)

    def test_intra_host_link_selected(self):
        _, comm = self.make_comm()
        assert comm.link(0, 1) is NVLINK_P2P
        assert comm.link(0, 2) is INFINIBAND_NDR

    def test_intra_host_shuffle_is_cheaper(self):
        clocks1, comm1 = self.make_comm()
        # Same bytes, all over the network.
        clocks2 = [SimClock() for _ in range(4)]
        comm2 = Communicator(clocks2, INFINIBAND_NDR)
        matrix = [[0, 10 * GB, 0, 0], [0, 0, 0, 0], [0, 0, 0, 10 * GB], [0, 0, 0, 0]]
        comm1.all_to_all(matrix)  # both transfers are intra-host
        comm2.all_to_all(matrix)
        assert clocks1[0].now < clocks2[0].now

    def test_cross_host_send_paced_by_infiniband(self):
        _, comm = self.make_comm()
        matrix = [[0] * 4 for _ in range(4)]
        matrix[0][2] = 50 * GB
        seconds = comm.all_to_all(matrix)
        # Rank 2 sits across InfiniBand (50 GB/s): ~1 s, not NVLink speed.
        assert seconds == pytest.approx(1.0, rel=0.01)


class TestMultiGpuCluster:
    def test_rank_layout(self):
        cluster = Cluster(num_nodes=2, gpus_per_node=2)
        assert cluster.num_nodes == 4  # ranks
        assert [n.host_id for n in cluster.nodes] == [0, 0, 1, 1]

    def test_single_gpu_cluster_has_uniform_fabric(self):
        cluster = Cluster(num_nodes=2, gpus_per_node=1)
        assert cluster.communicator.link(0, 1) is INFINIBAND_NDR

    def test_partitions_span_all_ranks(self):
        data = generate_tpch(sf=0.01)
        cluster = Cluster(num_nodes=2, gpus_per_node=2)
        cluster.load_tables(data)
        totals = sum(n.catalog["lineitem"].num_rows for n in cluster.nodes)
        assert totals == data["lineitem"].num_rows

    def test_invalid_layout_rejected(self):
        with pytest.raises(ValueError):
            Cluster(num_nodes=2, gpus_per_node=0)


class TestMultiGpuQueries:
    @pytest.fixture(scope="class")
    def data(self):
        return generate_tpch(sf=0.02)

    def test_results_match_single_node(self, data):
        reference = MiniDuck()
        reference.load_tables(data)
        db = MiniDoris(num_nodes=2, mode="sirius", gpus_per_node=2)
        db.load_tables(data)
        db.warm_caches()
        for q in (1, 3, 6):
            dist = db.execute(tpch_query(q))
            single = reference.execute(tpch_query(q))
            def norm(t):
                return sorted(
                    tuple(f"{v:.6g}" if isinstance(v, float) else repr(v) for v in r)
                    for r in t.to_rows()
                )

            assert norm(dist.table) == norm(single.table)

    def test_more_gpus_reduce_compute_time(self, data):
        one = MiniDoris(num_nodes=4, mode="sirius", gpus_per_node=1)
        two = MiniDoris(num_nodes=4, mode="sirius", gpus_per_node=2)
        for db in (one, two):
            db.load_tables(data)
            db.warm_caches()
        r1 = one.execute(tpch_query(1))
        r2 = two.execute(tpch_query(1))
        assert r2.compute_seconds < r1.compute_seconds
