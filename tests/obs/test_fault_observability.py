"""Fault x observability: injected faults surface as span events.

The fault-injection framework (PR 1) and the tracing layer meet here:
link drops produce ``exchange-retry`` events with correct attempt counts,
repeated device-OOM produces a ``fallback`` event carrying the degradation
tier that absorbed it, and transient kernel faults produce
``kernel-relaunch`` events — all attached to the query's span tree with
simulated timestamps, so a trace export tells the whole failure story.
"""

import pytest

from repro.faults import FaultPlan
from repro.hosts import MiniDoris
from repro.obs import Tracer
from repro.tpch import generate_tpch, tpch_query


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=0.02)


def traced_cluster(data, **kwargs):
    kwargs.setdefault("num_nodes", 4)
    kwargs.setdefault("mode", "sirius")
    kwargs.setdefault("tracer", Tracer())
    db = MiniDoris(**kwargs)
    db.load_tables(data)
    db.warm_caches()
    return db


class TestExchangeRetryEvents:
    def test_link_drops_appear_as_retry_events(self, data):
        db = traced_cluster(data)
        db.install_faults(FaultPlan().drop_links(at=0.0, count=2))
        result = db.execute(tpch_query(3))

        retries = [
            e for s in result.profile.spans for e in s.events
            if e.name == "exchange-retry"
        ]
        assert len(retries) == 2 == result.profile.retries
        assert [e.attributes["attempt"] for e in retries] == [1, 2]
        # Exponential backoff is recorded on the events.
        assert (
            retries[1].attributes["backoff_s"]
            == 2 * retries[0].attributes["backoff_s"]
        )
        assert all(e.sim_time > 0 for e in retries)

    def test_each_drop_also_recorded_on_the_communicator_span(self, data):
        db = traced_cluster(data)
        db.install_faults(FaultPlan().drop_links(at=0.0, count=1))
        result = db.execute(tpch_query(3))
        drops = [
            e for s in result.profile.spans for e in s.events
            if e.name == "link-drop"
        ]
        assert len(drops) == 1
        # The drop is observed inside an exchange span (the retry loop's
        # scope), and successful collectives still record their spans.
        assert any(s.kind == "collective" for s in result.profile.spans)

    def test_no_faults_no_retry_events(self, data):
        db = traced_cluster(data)
        result = db.execute(tpch_query(3))
        assert result.profile.retries == 0
        assert not [
            e for s in result.profile.spans for e in s.events
            if e.name in ("exchange-retry", "link-drop")
        ]


class TestDegradationEvents:
    def test_oom_fallback_event_carries_the_absorbing_tier(self, data):
        tracer = Tracer()
        db = traced_cluster(data, tracer=tracer)
        db.install_faults(FaultPlan().oom_spike(at=0.0, count=8, node_id=1))
        db.execute(tpch_query(6))

        fallbacks = tracer.find_events("fallback")
        assert fallbacks, "degradation must surface as a span event"
        assert fallbacks[0].attributes["tier"] == "cpu-plan"
        assert "gpu-retry-spill" in fallbacks[0].attributes["tiers_attempted"]
        assert fallbacks[0].attributes["exception"] == "OutOfDeviceMemory"
        # The tier label matches the node engine's own fallback record.
        assert db._node_engines[1].fallback.events[0].tier == "cpu-plan"


class TestKernelRelaunchEvents:
    def test_transient_kernel_faults_traced_with_attempts(self, data):
        tracer = Tracer()
        db = traced_cluster(data, tracer=tracer)
        db.install_faults(FaultPlan().kernel_fault(at=0.0, count=2, node_id=1))
        result = db.execute(tpch_query(6))

        relaunches = tracer.find_events("kernel-relaunch")
        assert len(relaunches) == 2
        # Both scheduled faults hit the same kernel launch, so the attempt
        # counter runs 1, 2 within one relaunch loop.
        assert [e.attributes["attempt"] for e in relaunches] == [1, 2]
        assert all(e.attributes["rank"] == 1 for e in relaunches)
        assert result.profile.retries == 0  # exchange retries, not kernels
