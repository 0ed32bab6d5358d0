"""The serving scheduler: single-query identity, determinism, the
concurrency throughput win, and degradation under contention."""

import pytest

from repro.core import SiriusEngine
from repro.faults import FaultInjector, FaultPlan
from repro.fleet import FleetScheduler, engine_factory
from repro.gpu.specs import GH200
from repro.hosts import MiniDuck
from repro.obs import Tracer
from repro.sched import (
    JobState,
    ServingScheduler,
    WorkloadDriver,
    WorkloadQuery,
    estimate_plan,
)
from repro.tpch import generate_tpch, tpch_query

SF = 0.01
SEED = 19920101


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=SF, seed=SEED)


@pytest.fixture(scope="module")
def plans(data):
    host = MiniDuck()
    host.load_tables(data)
    return {n: host.plan(tpch_query(n)) for n in (1, 3, 6)}


def fresh_engine(data, **kwargs):
    engine = SiriusEngine.for_spec(GH200, **kwargs)
    engine.warm_cache(data)
    return engine


def normalise(table):
    return sorted(
        tuple(f"{v:.6g}" if isinstance(v, float) else repr(v) for v in row)
        for row in table.to_rows()
    )


class TestSingleQueryIdentity:
    """At concurrency 1 the serving path is byte-identical to execute()."""

    @pytest.mark.parametrize("query", [1, 3, 6])
    def test_profile_and_result_match_execute(self, data, plans, query):
        solo = fresh_engine(data)
        expected = solo.execute(plans[query], data)
        expected_profile = solo.last_profile

        served = fresh_engine(data)
        # batch_rows=None: mirror the engine's default execution config.
        sched = ServingScheduler(served, policy="fifo", streams=1, batch_rows=None)
        job = sched.submit(plans[query], data, label=f"q{query}")
        report = sched.run()

        assert job.state == JobState.COMPLETED
        assert normalise(job.table) == normalise(expected)
        assert job.profile.sim_seconds == expected_profile.sim_seconds
        assert job.profile.breakdown == expected_profile.breakdown
        assert job.profile.kernel_count == expected_profile.kernel_count
        assert job.profile.device_mem_peak == expected_profile.device_mem_peak
        # The device clocks agree to the last float: same work, same order.
        assert served.device.clock.now == solo.device.clock.now
        assert report.counters["completed"] == 1

    def test_service_time_equals_profile_plus_result_copy(self, data, plans):
        engine = fresh_engine(data)
        sched = ServingScheduler(engine, policy="fifo", streams=1, batch_rows=None)
        job = sched.submit(plans[6], data)
        sched.run()
        # service_s = the query's own clock advance: profile plus the
        # device->host result copy charged on the final step.
        assert job.service_s >= job.profile.sim_seconds
        assert job.service_s == pytest.approx(job.profile.sim_seconds, rel=0.25)


class TestDeterminism:
    def _run(self, data, plans, policy="fair"):
        engine = fresh_engine(data)
        mix = [WorkloadQuery(f"q{n}", p) for n, p in sorted(plans.items())]
        driver = WorkloadDriver(engine, data, mix, seed=SEED)
        return driver.open_loop(
            num_queries=10, rate_qps=5000.0, policy=policy, streams=4
        )

    def test_same_seed_same_schedule_and_report(self, data, plans):
        first = self._run(data, plans)
        second = self._run(data, plans)
        assert first.schedule_digest == second.schedule_digest
        assert first.to_dict() == second.to_dict()

    def test_different_seeds_differ(self, data, plans):
        engine = fresh_engine(data)
        mix = [WorkloadQuery(f"q{n}", p) for n, p in sorted(plans.items())]
        other = WorkloadDriver(engine, data, mix, seed=SEED + 1).open_loop(
            num_queries=10, rate_qps=5000.0, policy="fair", streams=4
        )
        assert other.schedule_digest != self._run(data, plans).schedule_digest


class TestConcurrencyThroughput:
    def test_concurrent_beats_serialized(self, data, plans):
        """Aggregate throughput at concurrency 4 beats back-to-back."""
        solo = fresh_engine(data)
        serialized = 0.0
        for _, plan in sorted(plans.items()):
            solo.execute(plan, data)
            serialized += solo.last_profile.sim_seconds

        engine = fresh_engine(data)
        sched = ServingScheduler(engine, policy="fair", streams=4)
        for n, plan in sorted(plans.items()):
            sched.submit(plan, data, label=f"q{n}", arrival_s=0.0)
        report = sched.run()
        assert report.counters["completed"] == len(plans)
        assert report.makespan_s < serialized

    def test_results_unchanged_under_interleaving(self, data, plans):
        expected = {}
        solo = fresh_engine(data)
        for n, plan in sorted(plans.items()):
            expected[n] = normalise(solo.execute(plan, data))

        engine = fresh_engine(data)
        sched = ServingScheduler(engine, policy="fair", streams=4)
        jobs = {
            n: sched.submit(plan, data, label=f"q{n}", arrival_s=0.0)
            for n, plan in sorted(plans.items())
        }
        sched.run()
        for n, job in jobs.items():
            assert job.state == JobState.COMPLETED
            assert normalise(job.table) == expected[n]

    def test_queue_wait_plus_admitted_spans_cover_latency(self, data, plans):
        tracer = Tracer()
        engine = fresh_engine(data)
        sched = ServingScheduler(
            engine, policy="fair", streams=2, tracer=tracer, tracer_factory=Tracer
        )
        for n, plan in sorted(plans.items()):
            sched.submit(plan, data, label=f"q{n}", arrival_s=0.0)
        report = sched.run()
        for job in report.jobs:
            assert job.latency_s == pytest.approx(
                job.queue_wait_s + (job.completion_s - job.admitted_s)
            )
        kinds = {s.kind for s in tracer.spans}
        assert "serving-service" in kinds


class TestDegradationUnderContention:
    def test_oom_spike_degrades_and_completes(self, data, plans):
        """An injected device-OOM during serving walks the job down one
        tier (out-of-core retry) instead of failing the whole run."""
        engine = fresh_engine(data)
        injector = FaultInjector(FaultPlan().oom_spike(at=0.0, count=1))
        injector.attach_device(engine.device)
        sched = ServingScheduler(engine, policy="fair", streams=2)
        for n, plan in sorted(plans.items()):
            sched.submit(plan, data, label=f"q{n}", arrival_s=0.0)
        report = sched.run()
        assert report.counters["completed"] == len(plans)
        assert report.counters["degraded"] == 1
        degraded = [j for j in report.jobs if j.degraded_tier is not None]
        assert len(degraded) == 1
        assert degraded[0].degraded_tier == "gpu-retry-spill"
        assert degraded[0].state == JobState.COMPLETED

    def test_degraded_job_reenters_start_query_without_a_rewalk(
        self, data, root_walks
    ):
        """The degraded job goes through ``start_query`` a second time;
        its plan was checked when it was produced and is not re-walked."""
        host = MiniDuck()
        host.load_tables(data)
        plans = [host.plan(tpch_query(n)) for n in (1, 3, 6)]
        planned = len(root_walks)
        engine = fresh_engine(data)
        injector = FaultInjector(FaultPlan().oom_spike(at=0.0, count=1))
        injector.attach_device(engine.device)
        sched = ServingScheduler(engine, policy="fair", streams=2)
        for plan in plans:
            sched.submit(plan, data, arrival_s=0.0)
        report = sched.run()
        assert report.counters["completed"] == len(plans)
        assert report.counters["degraded"] == 1
        walked = [id(root) for root in root_walks]
        assert {id(plan.root) for plan in plans} <= set(walked)
        assert len(set(walked)) == len(walked)
        assert len(root_walks) == planned

    def test_persistent_oom_fails_only_that_job(self, data, plans):
        engine = fresh_engine(data)
        injector = FaultInjector(FaultPlan().oom_spike(at=0.0, count=50))
        injector.attach_device(engine.device)
        sched = ServingScheduler(engine, policy="fifo", streams=2)
        for n, plan in sorted(plans.items()):
            sched.submit(plan, data, label=f"q{n}", arrival_s=0.0)
        report = sched.run()
        # Every job walked the full ladder (batched retry, then the
        # partitioned spill tier); with the spike still firing they all
        # fail — but the scheduler itself survives and reports.
        assert report.counters["completed"] + report.counters["failed"] == len(plans)
        assert report.counters["failed"] >= 1
        for job in report.jobs:
            if job.state == JobState.FAILED:
                assert job.degraded_tier == "gpu-spill"

    def test_out_of_core_engine_walks_the_same_rungs_as_execute(self, data, plans):
        """An out-of-core engine already runs partitioned, so its ladder
        has no ``gpu-spill`` rung under serving either: a persistent OOM
        fails the job after the one batched retry."""
        engine = fresh_engine(data, out_of_core=True)
        injector = FaultInjector(FaultPlan().oom_spike(at=0.0, count=50))
        injector.attach_device(engine.device)
        sched = ServingScheduler(engine, policy="fifo", streams=1)
        job = sched.submit(plans[6], data, label="q6")
        report = sched.run()
        assert job.state == JobState.FAILED
        assert job.degraded_tier == "gpu-retry-spill"
        assert report.counters["degraded"] == 1


class TestClosedLoop:
    def test_clients_keep_one_query_in_flight(self, data, plans):
        engine = fresh_engine(data)
        mix = [WorkloadQuery(f"q{n}", p) for n, p in sorted(plans.items())]
        driver = WorkloadDriver(engine, data, mix, seed=SEED)
        report = driver.closed_loop(
            clients=3, requests_per_client=4, policy="fair", streams=2
        )
        assert report.counters["submitted"] == 12
        assert report.counters["completed"] == 12
        # A client's requests never overlap: sorted by arrival, each
        # arrival is at or after the previous completion.
        by_client = {}
        for job in report.jobs:
            by_client.setdefault(job.meta["client"], []).append(job)
        for jobs in by_client.values():
            jobs.sort(key=lambda j: j.arrival_s)
            for prev, nxt in zip(jobs, jobs[1:]):
                assert nxt.arrival_s >= prev.completion_s


class TestServingPricesLikeTheEngine:
    """Admission sees the estimate of the plan as the engine will run it:
    a fusing engine's queries are priced with fused chains (Q3 has one)."""

    def test_fused_engine_job_estimate(self, data, plans):
        engine = fresh_engine(data, fusion=True)
        job = ServingScheduler(engine).submit(plans[3], data)
        assert job.estimate == estimate_plan(plans[3], data, engine.device, fusion=True)
        assert job.estimate != estimate_plan(plans[3], data, engine.device)

    def test_fused_fleet_replica_job_estimate(self, data, plans):
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data, fusion=True), replicas=1, plan_cache_entries=4
        )
        fleet.submit(plans[3], data)
        fleet.run()
        engine = fleet.replicas[0].engine
        (job,) = fleet.replicas[0].scheduler.jobs
        assert job.estimate == estimate_plan(plans[3], data, engine.device, fusion=True)
