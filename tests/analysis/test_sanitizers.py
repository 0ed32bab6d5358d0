"""Sanitizer layer tests: zero observer effect, clean-suite gates, and
the determinism checker over the real serving/fleet stack.

The tentpole guarantee is that ``sanitize=True`` only *observes*: for
any plan and any serving workload, the sanitized run must produce
byte-identical results, clocks, counters, and reports to the unsanitized
run — and report zero findings on the repo's own (correct) code paths.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizers import SanitizerReport
from repro.analysis.sanitizers.cli import (
    run_battery_suite,
    run_fleet_suite,
    run_tpch_suite,
)
from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.obs import Tracer
from repro.sched import JobState, ServingScheduler

from tests.core.test_random_plans import plans, tables


def _engine_fingerprint(engine) -> dict:
    return {
        "clock": engine.device.clock.now,
        "bm": engine.buffer_manager.stats(),
        "pool_in_use": engine.device.processing_pool.in_use,
        "pool_stats": engine.device.processing_pool.stats(),
        "caching_used": engine.device.caching_region.used,
    }


class TestZeroObserverEffect:
    @settings(max_examples=25, deadline=None)
    @given(data=tables(), plan=plans(), overlap=st.booleans())
    def test_sanitized_query_is_byte_identical(self, data, plan, overlap):
        plain = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, overlap=overlap)
        result_plain = plain.execute(plan, data)

        san = SiriusEngine.for_spec(
            GH200, memory_limit_gb=1.0, overlap=overlap, sanitize=True
        )
        result_san = san.execute(plan, data)

        assert result_san.to_pydict() == result_plain.to_pydict()
        assert _engine_fingerprint(san) == _engine_fingerprint(plain)
        assert san.sanitizer.ok, [str(f) for f in san.sanitizer.findings]
        assert san.sanitizer.hb.acyclic()

    @settings(max_examples=10, deadline=None)
    @given(data=tables(), batch=st.lists(plans(), min_size=2, max_size=3))
    def test_sanitized_serving_report_is_byte_identical(self, data, batch):
        reports = {}
        for sanitize in (False, True):
            engine = SiriusEngine.for_spec(
                GH200, memory_limit_gb=1.0, sanitize=sanitize
            )
            sched = ServingScheduler(
                engine, policy="fair", streams=2, tracer_factory=Tracer
            )
            jobs = [
                sched.submit(plan, data, label=f"q{i}", arrival_s=0.0)
                for i, plan in enumerate(batch)
            ]
            reports[sanitize] = (sched.run(), jobs, engine)

        plain_report, _, _ = reports[False]
        san_report, san_jobs, san_engine = reports[True]
        assert san_report.to_json() == plain_report.to_json()
        assert san_report.schedule_digest == plain_report.schedule_digest
        assert san_engine.sanitizer.ok, [
            str(f) for f in san_engine.sanitizer.findings
        ]
        # busy_s partition: per-operator spans still sum to each query's
        # own service time under the sanitizer.
        for job in san_jobs:
            assert job.state == JobState.COMPLETED
            op_spans = [s for s in job.profile.spans if s.kind == "operator"]
            busy = sum(s.attributes.get("busy_s", 0.0) for s in op_spans)
            assert busy == pytest.approx(
                job.qrun.service_seconds, rel=1e-9, abs=1e-15
            )


class TestReportMachinery:
    def test_report_round_trips_and_merges(self):
        a = SanitizerReport(suite="a")
        b = SanitizerReport(suite="b", counters={"checks_run": 3})
        a.merge(b)
        payload = json.loads(a.to_json())
        assert payload["suite"] == "a"
        assert payload["counters"]["checks_run"] == 3
        assert payload["ok"] is True
        assert "SA01" in payload["rules"]

    def test_unknown_rule_rejected(self):
        from repro.analysis.report import Finding

        report = SanitizerReport(suite="x")
        with pytest.raises(ValueError):
            report.add(Finding("SA99", "error", "nope", "here"))


class TestCleanSuites:
    """The repo's own workloads run clean under the sanitizer (the CI
    ``sanitize`` job runs the full versions; these are scaled-down)."""

    def test_tpch_suite_clean(self):
        report = run_tpch_suite(queries=(1, 6))
        assert report.ok, report.to_json()
        assert report.counters["checks_run"] > 0
        assert report.counters["stream_events"] > 0

    def test_battery_suite_clean(self):
        report = run_battery_suite(limit=12)
        assert report.ok, report.to_json()
        assert report.counters["battery_cases"] == 12

    def test_fleet_suite_clean_across_all_routings(self):
        # The acceptance gate: the determinism checker passes on every
        # routing policy under permuted tie-breaks and runtime traps.
        report = run_fleet_suite(requests=8, replicas=2)
        assert report.ok, report.to_json()
        for routing in ("round-robin", "least-outstanding", "placement"):
            assert report.counters[f"determinism_runs:{routing}"] >= 4
