"""Property-based serving tests.

* **No starvation** under round-robin fair-share: every admitted job in a
  random concurrent batch reaches a terminal state, and none is failed by
  the scheduler itself (no deadlines are set).
* **busy_s partition**: each query's per-operator ``busy_s`` spans
  partition that query's *service* time — they sum to the run's own clock
  advance even when other queries' tasks interleave arbitrarily between
  its steps.
* **Fleet coalescing**: with the result cache on, a random stream of
  repeated plans arriving close together ends with every request
  terminal, every answer equal to a solo execution, and at most one
  execution per distinct result key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SiriusEngine
from repro.fleet import FleetScheduler, engine_factory
from repro.fleet.digest import plan_digest
from repro.gpu.specs import GH200
from repro.obs import Tracer
from repro.sched import JobState, ServingScheduler

from tests.core.test_random_plans import normalise, plans, tables


def serve_batch(data, batch, policy, streams, tracer_factory=None):
    engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
    sched = ServingScheduler(
        engine,
        policy=policy,
        streams=streams,
        tracer_factory=tracer_factory,
    )
    jobs = [
        sched.submit(plan, data, label=f"q{i}", arrival_s=0.0)
        for i, plan in enumerate(batch)
    ]
    return sched.run(), jobs


class TestNoStarvation:
    @settings(max_examples=25, deadline=None)
    @given(
        data=tables(),
        batch=st.lists(plans(), min_size=2, max_size=4),
        streams=st.integers(1, 3),
    )
    def test_fair_share_completes_every_job(self, data, batch, streams):
        report, jobs = serve_batch(data, batch, "fair", streams)
        for job in jobs:
            assert job.state == JobState.COMPLETED, job.error
            assert job.completion_s is not None
        assert report.counters["completed"] == len(jobs)
        # Conservation: every executed task interval belongs to a job and
        # service times sum to the total scheduled work.
        assert report.counters["steps"] == sum(j.steps for j in jobs)

    @settings(max_examples=10, deadline=None)
    @given(data=tables(), batch=st.lists(plans(), min_size=2, max_size=3))
    def test_all_policies_complete_the_same_jobs(self, data, batch):
        outcomes = {}
        for policy in ("fifo", "fair", "sjf"):
            report, jobs = serve_batch(data, batch, policy, streams=2)
            outcomes[policy] = [j.state for j in jobs]
        assert outcomes["fifo"] == outcomes["fair"] == outcomes["sjf"]


class TestBusySecondsPartition:
    @settings(max_examples=15, deadline=None)
    @given(
        data=tables(),
        batch=st.lists(plans(), min_size=2, max_size=3),
    )
    def test_operator_busy_partitions_service_time(self, data, batch):
        report, jobs = serve_batch(
            data, batch, "fair", streams=2, tracer_factory=Tracer
        )
        for job in jobs:
            assert job.state == JobState.COMPLETED
            op_spans = [s for s in job.profile.spans if s.kind == "operator"]
            busy_total = sum(s.attributes.get("busy_s", 0.0) for s in op_spans)
            # The executor's own service time (profile.sim_seconds is the
            # query-span elapsed time on the shared clock, which would
            # include interleaved foreign work; qrun.service_seconds is
            # the query's own clock advance).
            assert busy_total == pytest.approx(
                job.qrun.service_seconds, rel=1e-9, abs=1e-15
            )
            # The job's recorded service adds only the result copy-out.
            assert job.service_s >= job.qrun.service_seconds - 1e-15


class TestFleetCoalescing:
    @settings(max_examples=20, deadline=None)
    @given(
        data=tables(),
        pool=st.lists(plans(), min_size=1, max_size=3),
        requests=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 20)), min_size=2, max_size=8
        ),
        replicas=st.integers(1, 2),
        routing=st.sampled_from(["round-robin", "least-outstanding", "placement"]),
    )
    def test_identical_requests_in_flight_execute_once(
        self, data, pool, requests, replicas, routing
    ):
        fleet = FleetScheduler(
            engine_factory(GH200, memory_limit_gb=1.0),
            replicas=replicas,
            routing=routing,
            result_cache_bytes=1 << 24,
        )
        # Arrivals 5 us apart at most: twins overlap their leaders.
        submitted = [
            (fleet.submit(pool[i % len(pool)], data, arrival_s=t * 5e-6), pool[i % len(pool)])
            for i, t in requests
        ]
        fleet.run()
        solo = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        for record, plan in submitted:
            assert record.state in JobState.TERMINAL
            assert record.state == JobState.COMPLETED, record.error_name
            assert normalise(record.table) == normalise(solo.execute(plan, data))
        executed = sum(r.routed for r in fleet.replicas)
        keys = {plan_digest(plan).result_key for _, plan in submitted}
        assert executed <= len(keys)
