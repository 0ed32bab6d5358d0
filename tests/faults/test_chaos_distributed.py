"""Chaos suite: seeded faults against the distributed warehouse.

Each test injects a deterministic fault schedule and asserts the paper's
robustness story: queries still finish, results match the fault-free
answer, and the coordinator's event log records what happened.
"""

import pytest

from repro.faults import FaultPlan
from repro.hosts import MiniDoris, MiniDuck
from repro.tpch import generate_tpch, tpch_query

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=0.02)


@pytest.fixture(scope="module")
def baseline(data):
    duck = MiniDuck()
    duck.load_tables(data)
    return {
        q: normalise(duck.execute(tpch_query(q)).table) for q in (1, 3, 6)
    }


def normalise(table):
    rows = []
    for row in table.to_rows():
        rows.append(tuple(f"{v:.6g}" if isinstance(v, float) else repr(v) for v in row))
    return sorted(rows)


def make_cluster(data, **kwargs):
    kwargs.setdefault("num_nodes", 4)
    kwargs.setdefault("mode", "sirius")
    db = MiniDoris(**kwargs)
    db.load_tables(data)
    if db.mode == "sirius":
        db.warm_caches()
    return db


class TestNodeCrash:
    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_query_survives_mid_query_crash(self, q, data, baseline):
        """The acceptance scenario: node 2 dies mid-query; the coordinator
        detects the missed heartbeats, evicts it, re-partitions onto the
        survivors, and re-executes — result identical to fault-free."""
        db = make_cluster(data, heartbeat_timeout_s=0.005)
        injector = db.install_faults(FaultPlan().crash_node(2, at=2e-4))
        result = db.execute(tpch_query(q))
        assert normalise(result.table) == baseline[q]
        assert db.cluster.num_nodes == 3
        assert injector.summary() == {"node-crash": 1}
        events = [e["event"] for e in db.event_log]
        assert "node_failure_detected" in events
        assert "fragments_reexecuted" in events
        detected = next(
            e for e in db.event_log if e["event"] == "node_failure_detected"
        )
        assert detected["dead_nodes"] == [2]
        assert detected["sim_time"] > 2e-4  # detection latency is modelled

    def test_detection_latency_charged_to_query(self, data):
        db = make_cluster(data, heartbeat_timeout_s=0.005)
        db.install_faults(FaultPlan().crash_node(2, at=2e-4))
        faulted = db.execute(tpch_query(1))
        clean = make_cluster(data).execute(tpch_query(1))
        # The failed attempt + detection + re-execution all stay on the clock.
        assert faulted.total_seconds > clean.total_seconds

    def test_coordinator_crash_is_unrecoverable(self, data):
        db = make_cluster(data, heartbeat_timeout_s=0.005)
        db.install_faults(FaultPlan().crash_node(0, at=2e-4))
        with pytest.raises(RuntimeError, match="coordinator"):
            db.execute(tpch_query(1))

    def test_too_many_crashes_exhaust_recovery(self, data):
        from repro.hosts import NodeFailureError

        db = make_cluster(data, heartbeat_timeout_s=0.005, max_recoveries=0)
        db.install_faults(FaultPlan().crash_node(2, at=2e-4))
        with pytest.raises(NodeFailureError):
            db.execute(tpch_query(1))


class TestOOMSpikes:
    def test_persistent_oom_degrades_to_cpu_pipeline(self, data, baseline):
        """Repeated device-OOM on one node pushes its fragments onto the
        standby CPU engine; the query still completes correctly."""
        db = make_cluster(data)
        db.install_faults(FaultPlan().oom_spike(at=0.0, count=8, node_id=1))
        result = db.execute(tpch_query(6))
        assert normalise(result.table) == baseline[6]
        events = db._node_engines[1].fallback.events
        assert any(e.tier == "cpu-plan" for e in events)
        assert any(e["event"] == "pipeline_cpu_fallback" for e in db.event_log)


class TestNetworkFaults:
    def test_link_drops_retried_transparently(self, data, baseline):
        db = make_cluster(data)
        db.install_faults(FaultPlan().drop_links(at=0.0, count=2))
        result = db.execute(tpch_query(3))
        assert normalise(result.table) == baseline[3]
        assert result.exchange_retries == 2
        assert db.cluster.communicator.dropped_collectives == 2

    def test_bandwidth_degradation_slows_exchange(self, data):
        clean = make_cluster(data).execute(tpch_query(3))
        db = make_cluster(data)
        db.install_faults(FaultPlan().degrade_bandwidth(0.0, 10.0, 0.25))
        degraded = db.execute(tpch_query(3))
        assert degraded.exchange_seconds > clean.exchange_seconds

    def test_straggler_slows_the_query(self, data, baseline):
        clean = make_cluster(data).execute(tpch_query(1))
        db = make_cluster(data)
        db.install_faults(FaultPlan().straggler(2, 0.0, 10.0, 4.0))
        slowed = db.execute(tpch_query(1))
        assert normalise(slowed.table) == baseline[1]
        assert slowed.total_seconds > clean.total_seconds


class TestKernelFaults:
    def test_transient_kernel_faults_absorbed_by_relaunch(self, data, baseline):
        db = make_cluster(data)
        db.install_faults(FaultPlan().kernel_fault(at=0.0, count=2, node_id=1))
        result = db.execute(tpch_query(6))
        assert normalise(result.table) == baseline[6]
        assert db.cluster.nodes[1].device.kernel_relaunches == 2


class TestDeterminism:
    def test_same_plan_same_outcome(self, data):
        runs = []
        for _ in range(2):
            db = make_cluster(data, heartbeat_timeout_s=0.005)
            db.install_faults(
                FaultPlan(seed=11).crash_node(2, at=2e-4).drop_links(at=0.0, count=1)
            )
            result = db.execute(tpch_query(3))
            runs.append((normalise(result.table), result.total_seconds, tuple(
                e["event"] for e in db.event_log
            )))
        assert runs[0] == runs[1]
