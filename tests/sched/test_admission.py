"""Admission control: headroom gating, the bounded queue, queue-wait
deadline accounting (the satellite bug fix), reservations, and a plan
that only fails once it runs."""

import pytest

from repro.columnar import Schema, Table
from repro.core import Deadline, DeadlineExceededError, SiriusEngine
from repro.gpu.clock import SimClock
from repro.gpu.rmm import PoolAllocator
from repro.gpu.specs import GH200
from repro.plan import PlanBuilder, col, lit
from repro.sched import (
    AdmissionController,
    JobState,
    PlanEstimate,
    QueryJob,
    ServingScheduler,
)

SCHEMA = Schema([("k", "int64"), ("v", "float64")])


@pytest.fixture
def data():
    n = 4000
    return {
        "t": Table.from_pydict(
            {"k": list(range(n)), "v": [float(i) for i in range(n)]}, SCHEMA
        )
    }


@pytest.fixture
def plan():
    return PlanBuilder.read("t", SCHEMA).filter(col("v") > lit(10.0)).build()


def fake_job(seq, working_set):
    return QueryJob(
        seq=seq,
        label=f"j{seq}",
        plan=None,
        catalog={},
        estimate=PlanEstimate(working_set, 0.0, 0),
    )


class TestControllerUnit:
    def test_headroom_shrinks_with_reservations(self):
        pool = PoolAllocator(1000)
        ctrl = AdmissionController(pool, headroom_fraction=0.5)
        budget = ctrl.headroom_bytes
        assert budget == int(pool.capacity * 0.5)
        job = fake_job(0, working_set=300)
        assert ctrl.can_admit(job)
        ctrl.admit(job)
        assert ctrl.headroom_bytes == budget - 300
        assert not ctrl.can_admit(fake_job(1, working_set=budget - 299))
        assert ctrl.release(job) == 300
        assert ctrl.headroom_bytes == budget

    def test_reservations_are_advisory(self):
        """A reservation never blocks real allocation (estimates may be
        wrong; genuine pressure surfaces as pool OOM, not admission)."""
        pool = PoolAllocator(10_000)
        ctrl = AdmissionController(pool, headroom_fraction=1.0)
        ctrl.admit(fake_job(0, working_set=pool.capacity))
        # The pool itself still hands out every byte.
        allocation = pool.allocate(pool.capacity)
        pool.free(allocation)

    def test_validation(self):
        pool = PoolAllocator(1000)
        with pytest.raises(ValueError):
            AdmissionController(pool, headroom_fraction=0.0)
        with pytest.raises(ValueError):
            AdmissionController(pool, max_queue_depth=0)


class TestBoundedQueue:
    def test_arrivals_past_queue_depth_are_rejected(self, data, plan):
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        admission = AdmissionController(
            engine.device.processing_pool,
            headroom_fraction=1e-9,  # nothing admits on headroom alone
            max_queue_depth=1,
        )
        sched = ServingScheduler(
            engine, policy="fifo", streams=1, admission=admission
        )
        for i in range(3):
            sched.submit(plan, data, label=f"q{i}", arrival_s=0.0)
        report = sched.run()
        by_label = {j.label: j for j in report.jobs}
        # q0 queues then is force-admitted (idle device, zero headroom);
        # q1 and q2 find the depth-1 queue full and are shed.
        assert by_label["q0"].state == JobState.COMPLETED
        assert by_label["q0"].forced_admission
        assert by_label["q1"].state == JobState.REJECTED
        assert by_label["q2"].state == JobState.REJECTED
        assert report.counters["rejected"] == 2
        assert report.counters["forced_admissions"] == 1

    def test_headroom_serialises_admission(self, data, plan):
        """When only one working set fits, the second query waits its
        turn in the queue and its queue_wait_s records the wait."""
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        engine.warm_cache(data)
        pool = engine.device.processing_pool
        # Probe the estimate via a throwaway scheduler.
        probe = ServingScheduler(engine)
        job = probe.submit(plan, data)
        demand = job.estimate.working_set_bytes
        admission = AdmissionController(
            pool, headroom_fraction=(demand + 64) / pool.capacity
        )
        sched = ServingScheduler(
            engine, policy="fifo", streams=2, admission=admission
        )
        sched.submit(plan, data, label="first", arrival_s=0.0)
        sched.submit(plan, data, label="second", arrival_s=0.0)
        report = sched.run()
        first, second = report.jobs
        assert first.state == JobState.COMPLETED
        assert second.state == JobState.COMPLETED
        assert first.queue_wait_s == 0.0
        assert second.queue_wait_s > 0.0
        assert second.admitted_s >= first.completion_s
        assert not second.forced_admission


class TestQueueWaitDeadline:
    """Regression for the satellite fix: a deadline must cover admission-
    queue wait, not just execution."""

    def test_charge_wait_consumes_budget(self):
        clock = SimClock()
        deadline = Deadline(1.0, clock)
        deadline.charge_wait(0.4)
        assert deadline.waited_s == pytest.approx(0.4)
        assert deadline.expires_at == pytest.approx(0.6)
        clock.advance(0.59)
        deadline.check(clock)  # still inside the shrunk budget
        clock.advance(0.02)
        with pytest.raises(DeadlineExceededError) as exc_info:
            deadline.check(clock)
        # Elapsed includes the charged wait.
        assert exc_info.value.elapsed_s == pytest.approx(0.61 + 0.4)

    def test_negative_wait_rejected(self):
        deadline = Deadline(1.0, SimClock())
        with pytest.raises(ValueError):
            deadline.charge_wait(-0.1)

    def test_wait_without_budget_is_recorded_only(self):
        deadline = Deadline(None, SimClock(), max_intermediate_rows=10)
        deadline.charge_wait(5.0)
        assert deadline.waited_s == 5.0
        assert deadline.expires_at == float("inf")

    def test_deadline_expires_in_admission_queue(self, data, plan):
        """A query whose whole budget elapses while queued fails with
        DeadlineExceededError without ever executing a task."""
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        engine.warm_cache(data)
        pool = engine.device.processing_pool
        probe = ServingScheduler(engine)
        demand = probe.submit(plan, data).estimate.working_set_bytes
        admission = AdmissionController(
            pool, headroom_fraction=(demand + 64) / pool.capacity
        )
        sched = ServingScheduler(
            engine, policy="fifo", streams=1, admission=admission
        )
        sched.submit(plan, data, label="big", arrival_s=0.0)
        doomed = sched.submit(
            plan, data, label="doomed", arrival_s=0.0, deadline_s=1e-9
        )
        report = sched.run()
        assert doomed.state == JobState.FAILED
        assert isinstance(doomed.error, DeadlineExceededError)
        assert doomed.steps == 0  # never ran a single task
        assert doomed.service_s == 0.0
        assert doomed.queue_wait_s == pytest.approx(1e-9)
        assert doomed.completion_s == pytest.approx(doomed.arrival_s + 1e-9)
        assert report.counters["expired_in_queue"] == 1
        big = report.jobs[0]
        assert big.state == JobState.COMPLETED


class TestRuntimeFailure:
    def test_unknown_table_plan_fails_at_runtime(self, data):
        """A plan that validate() accepts but that reads a table absent
        from the catalog (validate has no catalog) is admitted like any
        other and fails once it runs: serving analyzes nothing at submit."""
        bad_plan = PlanBuilder.read("nonexistent", SCHEMA).build()
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        sched = ServingScheduler(engine, streams=1)
        job = sched.submit(bad_plan, data, label="broken")
        assert "analysis" not in job.meta
        sched.run()
        assert job.state == JobState.FAILED
