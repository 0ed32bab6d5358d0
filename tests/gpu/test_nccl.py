"""Unit tests for the NCCL-style communicator and its barrier semantics."""

import pytest

from repro.gpu import Communicator, Fabric, INFINIBAND_NDR, SimClock

GB = 1_000_000_000


@pytest.fixture
def clocks():
    return [SimClock() for _ in range(4)]


@pytest.fixture
def comm(clocks):
    return Communicator(clocks, INFINIBAND_NDR)


class TestBarrierSemantics:
    def test_collective_aligns_clocks_to_slowest(self, clocks, comm):
        clocks[2].advance(1.0)  # rank 2 is behind (has done more work)
        comm.barrier()
        assert all(c.now == pytest.approx(1.0 + INFINIBAND_NDR.latency) for c in clocks)

    def test_waiting_time_attributed_to_exchange(self, clocks, comm):
        clocks[0].advance(2.0)
        comm.barrier()
        # Ranks 1-3 waited ~2 s; that waiting shows up as exchange time.
        assert clocks[1].bucket("exchange") == pytest.approx(2.0 + INFINIBAND_NDR.latency)


class TestAllToAll:
    def test_diagonal_is_free(self, clocks, comm):
        # Everything stays local: only latency is charged.
        local_only = [[GB if i == j else 0 for j in range(4)] for i in range(4)]
        comm.all_to_all(local_only)
        assert clocks[0].now == pytest.approx(3 * INFINIBAND_NDR.latency)
        assert comm.bytes_on_wire == 0

    def test_bottleneck_rank_sets_duration(self, clocks, comm):
        matrix = [[0] * 4 for _ in range(4)]
        matrix[0] = [0, 50 * GB, 50 * GB, 50 * GB]  # rank 0 sends 150 GB
        comm.all_to_all(matrix)
        expected = 3 * INFINIBAND_NDR.latency + 150 * GB / (50 * GB)
        assert clocks[0].now == pytest.approx(expected)

    def test_shape_checked(self, comm):
        with pytest.raises(ValueError):
            comm.all_to_all([[0, 0], [0, 0]])


class TestGather:
    def test_gather_charges_incoming_bytes(self, clocks, comm):
        comm.gather(0, [0, 50 * GB, 50 * GB, 50 * GB])
        expected = INFINIBAND_NDR.latency + 150 * GB / (50 * GB)
        assert clocks[0].now == pytest.approx(expected)

    def test_bad_root_rejected(self, comm):
        with pytest.raises(ValueError):
            comm.gather(9, [0, 0, 0, 0])


class TestFabric:
    def test_fabric_units(self):
        f = Fabric("test", 10.0, 5.0)
        assert f.bandwidth == 10 * GB
        assert f.latency == pytest.approx(5e-6)

    def test_empty_communicator_rejected(self):
        with pytest.raises(ValueError):
            Communicator([], INFINIBAND_NDR)
