"""The fleet scheduler: fleet-of-1 byte identity, the two-tier cache in
anger (alias relabeling, invalidation, parameterized plan reuse), and
same-seed determinism for every routing policy."""

import random

import pytest

from repro.core import SiriusEngine
from repro.faults import FaultPlan
from repro.fleet import (
    FleetScheduler,
    FleetWorkloadDriver,
    engine_factory,
)
from repro.gpu.specs import GH200
from repro.sched import JobState, ServingScheduler
from repro.tpch import tpch_query

SEED = 19920101


def normalise(table):
    return sorted(
        tuple(f"{v:.6g}" if isinstance(v, float) else repr(v) for v in row)
        for row in table.to_rows()
    )


def arrival_schedule(plans, n=12, rate=3000.0):
    rng = random.Random("fleet-identity")
    t = 0.0
    out = []
    numbers = sorted(plans)
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append((rng.choice(numbers), t))
    return out


class TestFleetOfOneIdentity:
    """A fleet of one replica with every feature off IS a solo scheduler."""

    @pytest.mark.parametrize("policy", ["fifo", "fair", "sjf"])
    def test_serving_report_is_byte_identical(self, data, plans, policy):
        schedule = arrival_schedule(plans)

        solo_engine = SiriusEngine.for_spec(GH200)
        solo_engine.warm_cache(data)
        solo = ServingScheduler(solo_engine, policy=policy, streams=4, seed=SEED)
        for i, (n, t) in enumerate(schedule):
            solo.submit(plans[n], data, label=f"q{i}", arrival_s=t)
        solo_report = solo.run()

        fleet = FleetScheduler(
            engine_factory(GH200, warm=data),
            replicas=1,
            policy=policy,
            streams=4,
            seed=SEED,
        )
        for i, (n, t) in enumerate(schedule):
            fleet.submit(plans[n], data, label=f"q{i}", arrival_s=t)
        report = fleet.run()

        assert report.replicas[0]["report"] == solo_report.to_dict()
        assert report.counters["completed"] == solo_report.counters["completed"]

    def test_results_match_solo_execution(self, data, plans):
        fleet = FleetScheduler(engine_factory(GH200, warm=data), replicas=1)
        job = fleet.submit(plans[6], data)
        fleet.run()
        solo = SiriusEngine.for_spec(GH200)
        solo.warm_cache(data)
        assert normalise(job.table) == normalise(solo.execute(plans[6], data))


class TestResultCache:
    def test_repeat_query_hits_and_matches(self, data, plans):
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data), replicas=1, result_cache_bytes=1 << 24
        )
        first = fleet.submit(plans[6], data, arrival_s=0.0)
        second = fleet.submit(plans[6], data, arrival_s=1.0)
        report = fleet.run()
        assert not first.cache_hit and second.cache_hit
        assert normalise(first.table) == normalise(second.table)
        assert report.counters["cache_hits"] == 1
        assert report.result_cache["hits"] == 1
        # The hit completes at its arrival instant: zero added latency.
        assert second.latency_s == 0.0 and second.service_s == 0.0

    def test_alias_differing_query_hits_and_is_relabeled(self, data, host):
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data), replicas=1, result_cache_bytes=1 << 24
        )
        a = host.plan("SELECT sum(l_quantity) AS total FROM lineitem")
        b = host.plan("SELECT sum(l_quantity) AS grand_total FROM lineitem")
        first = fleet.submit(a, data, arrival_s=0.0)
        second = fleet.submit(b, data, arrival_s=1.0)
        fleet.run()
        assert second.cache_hit
        assert [f.name for f in first.table.schema] == ["total"]
        assert [f.name for f in second.table.schema] == ["grand_total"]
        assert normalise(first.table) == normalise(second.table)

    def test_differing_literals_do_not_hit(self, data, host):
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data), replicas=1, result_cache_bytes=1 << 24
        )
        a = host.plan("SELECT count(*) FROM lineitem WHERE l_quantity > 10")
        b = host.plan("SELECT count(*) FROM lineitem WHERE l_quantity > 40")
        fleet.submit(a, data, arrival_s=0.0)
        second = fleet.submit(b, data, arrival_s=1.0)
        report = fleet.run()
        assert not second.cache_hit
        assert report.result_cache["hits"] == 0

    def test_invalidation_before_the_run_is_harmless(self, data, plans):
        # A version bump before any routing just becomes the baseline the
        # first result is cached against: the repeat is a legitimate hit.
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data), replicas=1, result_cache_bytes=1 << 24
        )
        fleet.invalidate_table("lineitem")
        fleet.submit(plans[6], data, arrival_s=0.0)
        second = fleet.submit(plans[6], data, arrival_s=1.0)
        fleet.run()
        assert second.cache_hit

    def test_version_bump_between_runs_invalidates(self, data, plans):
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data), replicas=1, result_cache_bytes=1 << 24
        )
        fleet.submit(plans[6], data, arrival_s=0.0)

        bumped = {"done": False}
        original = fleet._route

        def route_and_bump(record, vt):
            original(record, vt)
            if not bumped["done"]:
                bumped["done"] = True
                fleet.invalidate_table("lineitem")

        fleet._route = route_and_bump
        second = fleet.submit(plans[6], data, arrival_s=1.0)
        report = fleet.run()
        # The first result completed against the pre-bump version and is
        # never inserted (or is dropped): the repeat must recompute.
        assert not second.cache_hit
        assert second.state == JobState.COMPLETED


class TestCoalescing:
    """A result-cache miss whose twin is already running waits for it
    instead of executing again; with the cache off, duplicates run."""

    # Q1 takes ~240 us of simulated time: a twin 10 us behind arrives mid-flight.
    MID = 1e-5

    @staticmethod
    def fleet(data, replicas=2, result_cache_bytes=1 << 24, **kwargs):
        return FleetScheduler(
            engine_factory(GH200, warm=data),
            replicas=replicas,
            result_cache_bytes=result_cache_bytes,
            **kwargs,
        )

    @staticmethod
    def executions(fleet):
        return sum(r.routed for r in fleet.replicas)

    @staticmethod
    def solo(data, plan):
        engine = SiriusEngine.for_spec(GH200)
        engine.warm_cache(data)
        return normalise(engine.execute(plan, data))

    def test_mid_flight_twin_executes_once(self, data, plans):
        fleet = self.fleet(data)
        leader = fleet.submit(plans[1], data, arrival_s=0.0)
        twin = fleet.submit(plans[1], data, arrival_s=self.MID)
        report = fleet.run()
        assert self.executions(fleet) == 1
        assert twin.coalesced and twin.cache_hit and twin.job is None
        assert twin.service_s == 0.0 and twin.queue_wait_s == 0.0
        # Answered at the leader's completion instant; the wait is latency.
        assert twin.completion_s == leader.completion_s
        assert twin.latency_s == pytest.approx(leader.latency_s - self.MID)
        assert normalise(twin.table) == normalise(leader.table)
        assert ("coalesce", twin.seq, leader.seq, self.MID) in fleet.event_log
        assert report.counters["coalesced"] == 1
        assert report.counters["cache_hits"] == 1
        assert "1 coalesced" in report.summary()

    def test_alias_twins_coalesce_and_are_relabelled(self, data, host):
        fleet = self.fleet(data)
        a = host.plan("SELECT l_returnflag, sum(l_quantity) AS total FROM lineitem GROUP BY l_returnflag")
        b = host.plan("SELECT l_returnflag AS f, sum(l_quantity) AS qty FROM lineitem GROUP BY l_returnflag")
        first = fleet.submit(a, data, arrival_s=0.0)
        second = fleet.submit(b, data, arrival_s=self.MID)
        fleet.run()
        assert second.coalesced and self.executions(fleet) == 1
        assert [f.name for f in first.table.schema] == ["l_returnflag", "total"]
        assert [f.name for f in second.table.schema] == ["f", "qty"]
        assert normalise(second.table) == normalise(first.table)

    def test_different_literals_do_not_coalesce(self, data, host):
        fleet = self.fleet(data)
        a = host.plan("SELECT count(*) FROM lineitem WHERE l_quantity > 10")
        b = host.plan("SELECT count(*) FROM lineitem WHERE l_quantity > 40")
        fleet.submit(a, data, arrival_s=0.0)
        second = fleet.submit(b, data, arrival_s=self.MID / 10)
        report = fleet.run()
        assert not second.coalesced and second.job is not None
        assert self.executions(fleet) == 2 and report.counters["coalesced"] == 0

    def test_caches_off_both_execute(self, data, plans):
        fleet = self.fleet(data, result_cache_bytes=0)
        fleet.submit(plans[1], data, arrival_s=0.0)
        twin = fleet.submit(plans[1], data, arrival_s=self.MID)
        report = fleet.run()
        assert self.executions(fleet) == 2
        assert not twin.coalesced and not twin.cache_hit
        assert report.counters["coalesced"] == 0

    def test_deadlines_never_coalesce(self, data, plans):
        fleet = self.fleet(data)
        fleet.submit(plans[1], data, arrival_s=0.0)
        timed = fleet.submit(plans[1], data, arrival_s=self.MID, deadline_s=1.0)
        fleet.submit(plans[1], data, arrival_s=2 * self.MID, deadline_s=1.0)
        report = fleet.run()
        assert self.executions(fleet) == 3
        assert not timed.coalesced and timed.job is not None
        assert report.counters["coalesced"] == 0

    def test_leader_crash_retries_its_followers(self, data, plans):
        fleet = self.fleet(
            data, routing="round-robin", fault_plan=FaultPlan().crash_node(0, at=5 * self.MID)
        )
        leader = fleet.submit(plans[1], data, arrival_s=0.0)
        twin = fleet.submit(plans[1], data, arrival_s=self.MID)
        report = fleet.run()
        assert report.counters["crashes"] == 1
        # The twin was waiting on the crashed replica's query: it is a
        # crash victim too, retried (and coalesced again) on the survivor.
        assert leader.retries == 1 and twin.retries == 1
        assert report.counters["retries"] == 2
        assert leader.replica_id == 1 and twin.coalesced
        assert leader.state == twin.state == JobState.COMPLETED
        want = self.solo(data, plans[1])
        assert normalise(leader.table) == normalise(twin.table) == want

    def test_failed_leader_reroutes_its_followers(self, data, plans):
        fleet = self.fleet(data)
        # The leader's deadline expires mid-query; the twin has none.
        leader = fleet.submit(plans[1], data, arrival_s=0.0, deadline_s=2 * self.MID)
        twin = fleet.submit(plans[1], data, arrival_s=self.MID)
        report = fleet.run()
        assert ("coalesce", twin.seq, leader.seq, self.MID) in fleet.event_log
        assert leader.state == JobState.FAILED
        # Routed afresh when the leader failed: it executed, not retried.
        assert twin.state == JobState.COMPLETED and twin.job is not None
        assert not twin.coalesced and twin.retries == 0
        assert twin.job.arrival_s == leader.completion_s
        assert normalise(twin.table) == self.solo(data, plans[1])
        assert report.counters["failed"] == 1

    def test_rejected_leader_reroutes_its_followers(self, data, plans):
        class FullReplicaZero(FleetScheduler):
            def _spawn(self, vt):
                replica = super()._spawn(vt)
                if replica.id == 0:
                    replica.scheduler.admission.max_queue_depth = 0
                return replica

        fleet = FullReplicaZero(
            engine_factory(GH200, warm=data), replicas=2, result_cache_bytes=1 << 24
        )
        leader = fleet.submit(plans[1], data, arrival_s=0.0)
        twin = fleet.submit(plans[1], data, arrival_s=0.0)
        fleet.run()
        assert ("coalesce", twin.seq, leader.seq, 0.0) in fleet.event_log
        assert leader.state == JobState.REJECTED and leader.replica_id == 0
        assert twin.state == JobState.COMPLETED and twin.replica_id == 1
        assert normalise(twin.table) == self.solo(data, plans[1])

    def test_invalidation_mid_flight_splits_the_followers(self, data, plans):
        fleet = self.fleet(data, replicas=2)
        original = fleet._route

        def route_then_bump(record, vt):
            original(record, vt)
            if record.seq == 1:
                fleet.invalidate_table("lineitem")

        fleet._route = route_then_bump
        old = [fleet.submit(plans[1], data, arrival_s=t) for t in (0.0, self.MID)]
        new = [fleet.submit(plans[1], data, arrival_s=t) for t in (2 * self.MID, 3 * self.MID)]
        report = fleet.run()
        every = old + new
        assert all(r.state == JobState.COMPLETED for r in every)
        # One execution per version; each follower answered by its own.
        assert self.executions(fleet) == 2
        assert old[1].coalesced and new[1].coalesced
        assert old[1].completion_s == old[0].completion_s
        assert new[1].completion_s == new[0].completion_s != old[0].completion_s
        assert [r.dep_versions["lineitem"] for r in every] == [0, 0, 1, 1]
        # Only the post-bump result is cached, under the new version.
        assert report.result_cache["inserts"] == 1
        want = self.solo(data, plans[1])
        assert all(normalise(r.table) == want for r in every)


class TestPlanCache:
    def test_parameterized_shapes_share_an_estimate(self, data, host):
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data), replicas=1, plan_cache_entries=16
        )
        a = host.plan("SELECT count(*) FROM lineitem WHERE l_quantity > 10")
        b = host.plan("SELECT count(*) FROM lineitem WHERE l_quantity > 40")
        ja = fleet.submit(a, data, arrival_s=0.0)
        jb = fleet.submit(b, data, arrival_s=1.0)
        report = fleet.run()
        assert report.plan_cache["misses"] == 1
        assert report.plan_cache["hits"] == 1
        # Both jobs ran with the same cached estimate object.
        assert ja.job.estimate is jb.job.estimate


class TestPlanCheckedOnce:
    """Every boundary a plan crosses still calls ``plan.validate()``, but
    the tree is only walked the first time: SQL -> planner -> optimizer ->
    ``FleetScheduler.submit`` -> ``ServingScheduler.submit`` ->
    ``start_query`` costs one walk per distinct ``Plan``, not one per
    boundary."""

    Q6 = (
        "select sum(l_extendedprice * l_discount) as revenue from lineitem "
        "where l_shipdate >= date '1993-01-01' + interval '{p}' day "
        "and l_shipdate < date '1994-01-01' + interval '{p}' day "
        "and l_discount between 0.05 and 0.07 and l_quantity < 24"
    )
    Q14 = (
        "select 100.00 * sum(case when p_type like 'PROMO%' "
        "then l_extendedprice * (1 - l_discount) else 0 end) "
        "/ sum(l_extendedprice * (1 - l_discount)) as promo_revenue "
        "from lineitem, part where l_partkey = p_partkey "
        "and l_shipdate >= date '1994-01-01' + interval '{p}' day "
        "and l_shipdate < date '1994-02-01' + interval '{p}' day"
    )

    def test_one_walk_per_plan_from_sql_to_result(self, data, host, root_walks):
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data),
            replicas=2,
            seed=SEED,
            result_cache_bytes=1 << 24,
            plan_cache_entries=32,
        )
        # 20 requests over 12 distinct parameterisations: the repeats are
        # result-cache candidates, every shape after the first two a
        # plan-cache hit.
        plans = [
            host.plan((self.Q6 if i % 2 else self.Q14).format(p=30 * (i % 6)))
            for i in range(20)
        ]
        planned = len(root_walks)
        for i, plan in enumerate(plans):
            fleet.submit(plan, data, label=f"r{i}", arrival_s=i * 2e-4)
        report = fleet.run()
        assert report.counters["completed"] == len(plans)
        assert report.result_cache["hits"] > 0 and report.plan_cache["hits"] > 0

        # Every published plan was checked (by its producer) ...
        walked = [id(root) for root in root_walks]
        assert {id(plan.root) for plan in plans} <= set(walked)
        # ... no tree was walked twice, and submit -> run walked nothing.
        assert len(set(walked)) == len(walked)
        assert len(root_walks) == planned


class TestDeterminism:
    """Satellite: same seed -> byte-identical fleet schedule and reports,
    for every routing policy."""

    def _run(self, data, mix, routing):
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data),
            replicas=3,
            routing=routing,
            seed=SEED,
            result_cache_bytes=1 << 22,
            plan_cache_entries=32,
        )
        driver = FleetWorkloadDriver(data, mix, seed=SEED)
        return driver.diurnal_open_loop(
            fleet, num_queries=20, base_qps=1000.0, peak_qps=20000.0, period_s=0.01
        )

    @pytest.mark.parametrize(
        "routing", ["round-robin", "least-outstanding", "placement"]
    )
    def test_same_seed_same_everything(self, data, mix, routing):
        first = self._run(data, mix, routing)
        second = self._run(data, mix, routing)
        assert first.schedule_digest == second.schedule_digest
        assert first.to_dict() == second.to_dict()
        for ra, rb in zip(first.replicas, second.replicas):
            assert ra["report"] == rb["report"]

    def test_different_seeds_differ(self, data, mix):
        first = self._run(data, mix, "round-robin")
        fleet = FleetScheduler(
            engine_factory(GH200, warm=data), replicas=3, seed=SEED + 1
        )
        other = FleetWorkloadDriver(data, mix, seed=SEED + 1).diurnal_open_loop(
            fleet, num_queries=20, base_qps=1000.0, peak_qps=20000.0, period_s=0.01
        )
        assert other.schedule_digest != first.schedule_digest


class TestLifecycleGuards:
    def test_fleet_runs_exactly_once(self, data, plans):
        fleet = FleetScheduler(engine_factory(GH200, warm=data), replicas=1)
        fleet.submit(plans[6], data)
        fleet.run()
        with pytest.raises(RuntimeError, match="exactly one run"):
            fleet.run()

    def test_needs_at_least_one_replica(self, data):
        with pytest.raises(ValueError, match="at least one replica"):
            FleetScheduler(engine_factory(GH200, warm=data), replicas=0)
