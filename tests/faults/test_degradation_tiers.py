"""Tier-ordering tests for the degradation ladder.

The contract under test: OOM escalates through GPU-resident remedies in
cost order — the cheap spill+batched retry, then full partitioned
out-of-core execution — then the whole-plan host fallback, and only then
raises — with exactly one enriched event recorded per degraded query.
``execute`` and the serving scheduler climb the GPU rungs by one rule,
:func:`~repro.core.fallback.next_rung`.
"""

import pytest

from repro.columnar import Schema, Table
from repro.core import SiriusEngine, UnsupportedFeatureError
from repro.core.fallback import next_rung
from repro.faults import FaultInjector, FaultPlan
from repro.gpu import OutOfDeviceMemory
from repro.gpu.device import TransientKernelError
from repro.gpu.specs import A100_40G
from repro.hosts import CpuEngine
from repro.plan import PlanBuilder, col, lit
from repro.sched import JobState, ServingScheduler

SCHEMA = Schema([("k", "int64"), ("v", "float64")])


@pytest.fixture
def data():
    return {
        "t": Table.from_pydict(
            {"k": list(range(2000)), "v": [float(i) for i in range(2000)]}, SCHEMA
        )
    }


@pytest.fixture
def plan():
    return PlanBuilder.read("t", SCHEMA).filter(col("v") > lit(10.0)).build()


def inject(engine: SiriusEngine, fault_plan: FaultPlan) -> FaultInjector:
    injector = FaultInjector(fault_plan)
    injector.attach_device(engine.device)
    return injector


FAILURES = {
    "oom": OutOfDeviceMemory(1 << 20, 0, "processing"),
    "unsupported": UnsupportedFeatureError("no GPU kernel"),
    "kernel-fault": TransientKernelError("kernel kept failing"),
}


class TestNextRung:
    """The one rule: climbing starts only on device OOM; once on a rung,
    any recoverable failure moves one rung up until the rungs are spent."""

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    @pytest.mark.parametrize(
        "out_of_core, tier, oom_rung, other_rung",
        [
            (False, None, "gpu-retry-spill", None),
            (False, "gpu-retry-spill", "gpu-spill", "gpu-spill"),
            (False, "gpu-spill", None, None),
            (True, None, "gpu-retry-spill", None),
            (True, "gpu-retry-spill", None, None),
        ],
    )
    def test_table(self, out_of_core, tier, oom_rung, other_rung, failure):
        expected = oom_rung if failure == "oom" else other_rung
        assert next_rung(out_of_core, FAILURES[failure], tier) == expected


class TestServingSharesTheRule:
    def test_non_oom_first_failure_is_final(self, plan):
        """A served query whose table is missing fails after one step and
        climbs no rung — exactly what ``execute`` does with it."""
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        sched = ServingScheduler(engine, streams=1)
        job = sched.submit(plan, {})  # table absent on the GPU path
        report = sched.run()
        assert job.state == JobState.FAILED
        assert job.steps == 1
        assert job.degraded_tier is None
        assert report.counters["degraded"] == 0

        solo = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        with pytest.raises(UnsupportedFeatureError):
            solo.execute(plan, {})
        assert solo.fallback.events[0].tiers_attempted == ()
        assert solo.fallback.events[0].tier == "raise"


class TestHostTierCatalog:
    def test_host_tier_runs_against_the_calls_catalog(self, plan):
        """The ``cpu-plan`` tier re-runs the plan on the catalog of the
        ``execute`` call that degraded, not on one captured earlier."""
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=0.00003)
        engine.set_host_executor(CpuEngine().execute)
        for n in (2000, 3000):
            catalog = {
                "t": Table.from_pydict(
                    {"k": list(range(n)), "v": [float(i) for i in range(n)]}, SCHEMA
                )
            }
            out = engine.execute(plan, catalog)
            assert engine.fallback.events[-1].tier == "cpu-plan"
            assert out.to_pydict() == CpuEngine().execute(plan, catalog).to_pydict()
            assert out.num_rows == n - 11


class TestRetrySpillTier:
    def test_oom_spike_retried_on_gpu(self, data, plan):
        """A transient OOM is absorbed by the out-of-core retry; the query
        never leaves the GPU and the profile stays valid."""
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        inject(engine, FaultPlan().oom_spike(at=0.0, count=1))
        out = engine.execute(plan, data)
        assert out.num_rows == 1989
        assert engine.fallback.fallback_count == 1
        event = engine.fallback.events[0]
        assert event.tier == "gpu-retry-spill"
        assert event.tiers_attempted == ("gpu-retry-spill",)
        assert event.exception_type == "OutOfDeviceMemory"
        assert engine.last_profile is not None  # result was produced on GPU

    def test_retry_restores_engine_configuration(self, data, plan, config_observer):
        engine = SiriusEngine.for_spec(
            A100_40G, memory_limit_gb=1.0, tracer=config_observer
        )
        config_observer.engine = engine
        inject(engine, FaultPlan().oom_spike(at=0.0, count=1))
        engine.execute(plan, data)
        assert engine.fallback.events[0].tier == "gpu-retry-spill"
        assert engine.batch_rows is None
        # The retry ran batched without ever writing the batch size (or
        # the out-of-core mode) into the engine: re-entrant readers saw
        # the constructor values throughout.
        assert config_observer.seen == {(False, None)}

    def test_event_enrichment(self, data, plan):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        inject(engine, FaultPlan().oom_spike(at=0.0, count=1))
        engine.execute(plan, data)
        event = engine.fallback.events[0]
        assert event.plan_fingerprint not in ("", "unknown")
        assert len(event.plan_fingerprint) == 12
        assert event.sim_time is not None and event.sim_time >= 0.0
        # Same plan -> same fingerprint (it identifies the plan, not the run).
        inject(engine, FaultPlan().oom_spike(at=0.0, count=1))
        engine.execute(plan, data)
        assert engine.fallback.events[1].plan_fingerprint == event.plan_fingerprint


class TestTierOrdering:
    def test_persistent_oom_cascades_to_host(self, data, plan):
        """Device truly too small: the spill retry fails too, so the query
        lands on the host — one event, original exception preserved."""
        engine = SiriusEngine.for_spec(
            A100_40G,
            memory_limit_gb=0.00003,
        )
        engine.set_host_executor(CpuEngine().execute)
        out = engine.execute(plan, data)
        assert out.num_rows == 1989
        assert engine.fallback.fallback_count == 1
        event = engine.fallback.events[0]
        assert event.tier == "cpu-plan"
        assert event.tiers_attempted == ("gpu-retry-spill", "gpu-spill", "cpu-plan")
        assert event.exception_type == "OutOfDeviceMemory"

    def test_unsupported_feature_skips_gpu_retry(self, data, plan):
        """Only OOM triggers the out-of-core retry; feature gaps go
        straight to the CPU tiers."""
        engine = SiriusEngine.for_spec(
            A100_40G,
            memory_limit_gb=1.0,
        )
        engine.set_host_executor(lambda p, _catalog: CpuEngine().execute(p, data))
        engine.execute(plan, {})  # table absent on the GPU path
        event = engine.fallback.events[0]
        assert event.tiers_attempted == ("cpu-plan",)

    def test_exhausted_ladder_raises_original(self, data, plan):
        engine = SiriusEngine.for_spec(
            A100_40G, memory_limit_gb=0.00003
        )
        with pytest.raises(OutOfDeviceMemory):
            engine.execute(plan, data)
        assert engine.fallback.fallback_count == 1
        event = engine.fallback.events[0]
        assert event.tier == "raise"
        assert event.tiers_attempted == ("gpu-retry-spill", "gpu-spill")

    def test_failing_host_tier_raises_original(self, data, plan):
        """A host executor that cannot run the plan either ends the ladder:
        the original error surfaces, and the one event lists the host tier
        among the tiers tried."""

        def host(_plan, _catalog):
            raise UnsupportedFeatureError("host engine lacks it too")

        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=0.00003)
        engine.set_host_executor(host)
        with pytest.raises(OutOfDeviceMemory):
            engine.execute(plan, data)
        assert engine.fallback.fallback_count == 1
        event = engine.fallback.events[0]
        assert event.tier == "raise"
        assert event.tiers_attempted == ("gpu-retry-spill", "gpu-spill", "cpu-plan")


class TestRungsWriteNoEngineState:
    """A GPU rung changes the arguments of its re-run and nothing else:
    the pool's pressure hooks, the pinned staging budget and the engine's
    own configuration read the same before and after ``gpu-spill``."""

    @staticmethod
    def state(engine):
        return (
            engine.device.processing_pool.pressure_callback,
            engine.buffer_manager.pinned_fragment_budget,
            engine.out_of_core,
            engine.batch_rows,
        )

    def test_execute_through_gpu_spill(self, data, plan):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        before = self.state(engine)
        inject(engine, FaultPlan().oom_spike(at=0.0, count=2))
        assert engine.execute(plan, data).num_rows == 1989
        assert engine.fallback.events[0].tiers_attempted == ("gpu-retry-spill", "gpu-spill")
        assert self.state(engine) == before

    def test_serving_through_gpu_spill(self, data, plan):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        before = self.state(engine)
        inject(engine, FaultPlan().oom_spike(at=0.0, count=2))
        sched = ServingScheduler(engine, streams=1)
        job = sched.submit(plan, data)
        report = sched.run()
        assert job.state == JobState.COMPLETED
        assert job.degraded_tier == "gpu-spill"
        assert report.counters["degraded"] == 2
        assert self.state(engine) == before


class TestTransientKernelFaults:
    def test_faults_below_limit_absorbed_by_relaunch(self, data, plan):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        inject(engine, FaultPlan().kernel_fault(at=0.0, count=2))
        out = engine.execute(plan, data)
        assert out.num_rows == 1989
        assert engine.device.kernel_relaunches == 2
        assert engine.fallback.fallback_count == 0

    def test_persistent_kernel_fault_falls_back(self, data, plan):
        engine = SiriusEngine.for_spec(
            A100_40G,
            memory_limit_gb=1.0,
        )
        engine.set_host_executor(CpuEngine().execute)
        inject(engine, FaultPlan().kernel_fault(at=0.0, count=10))
        out = engine.execute(plan, data)
        assert out.num_rows == 1989
        event = engine.fallback.events[0]
        assert event.exception_type == "TransientKernelError"
        assert event.tiers_attempted == ("cpu-plan",)

    def test_relaunches_still_charge_the_clock(self, data, plan):
        clean = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        clean.execute(plan, data)
        faulted = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        inject(faulted, FaultPlan().kernel_fault(at=0.0, count=2))
        faulted.execute(plan, data)
        assert faulted.device.clock.now > clean.device.clock.now


class TestSummary:
    def test_summary_groups_by_tier(self, data, plan):
        engine = SiriusEngine.for_spec(
            A100_40G,
            memory_limit_gb=0.00003,
        )
        engine.set_host_executor(CpuEngine().execute)
        engine.execute(plan, data)
        engine.execute(plan, data)
        report = engine.fallback.summary()
        assert "2 degraded queries" in report
        assert "tier cpu-plan: 2" in report
        assert "OutOfDeviceMemory x2" in report

    def test_summary_empty(self):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        assert engine.fallback.summary() == "no degraded queries"
