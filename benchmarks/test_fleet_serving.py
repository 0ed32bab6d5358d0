"""Fleet serving benchmark — replication, caching, and elasticity.

A bursty open-loop Q1/Q3/Q6 workload at 10x the solo serving
concurrency (160 queries, 40x oversubscribed bursts) against
``repro.fleet``:

* 4 always-on replicas must beat 1 replica on p99 total latency —
  replication is what absorbs the bursts;
* a warm result cache must beat the cache-off fleet on throughput —
  repeated query shapes short-circuit at the router;
* an autoscaled 1..4 fleet must bill fewer replica-seconds than the
  always-on 4-replica fleet while still completing everything;
* same seed, same schedule: every fleet report is bit-deterministic.

The full report (per-config p50/p95/p99 split into queue wait vs
service, cache hit rates, replica-seconds) is written to
``benchmarks/results/fleet_serving.json`` for the CI artifact.
"""

import json

import pytest

from repro.fleet import (
    Autoscaler,
    FleetScheduler,
    FleetWorkloadDriver,
    engine_factory,
)
from repro.gpu.specs import GH200
from repro.hosts import MiniDuck
from repro.sched import WorkloadQuery
from repro.tpch import generate_tpch, tpch_query

from .conftest import BENCH_SF

SERVE_SF = min(BENCH_SF, 0.05)  # serving interleaves; keep the data small
SEED = 19920101
MIX = (1, 3, 6)
STREAMS = 4

# 10x the solo serving loop's 16 queries; bursts oversubscribe a single
# replica's sustainable rate by roughly 10x.
NUM_QUERIES = 160
BURST = dict(
    base_qps=500.0, burst_qps=20000.0, burst_every_s=0.01, burst_len_s=0.002
)


@pytest.fixture(scope="module")
def workload():
    data = generate_tpch(sf=SERVE_SF, seed=SEED)
    host = MiniDuck()
    host.load_tables(data)
    plans = {n: host.plan(tpch_query(n)) for n in MIX}
    mix = [WorkloadQuery(f"q{n}", plans[n]) for n in MIX]
    return data, mix


def run_fleet(workload, replicas, result_cache_bytes=0, autoscaler=None):
    data, mix = workload
    fleet = FleetScheduler(
        engine_factory(GH200, warm=data),
        replicas=replicas,
        routing="least-outstanding",
        streams=STREAMS,
        seed=SEED,
        result_cache_bytes=result_cache_bytes,
        plan_cache_entries=64 if result_cache_bytes else 0,
        autoscaler=autoscaler,
    )
    driver = FleetWorkloadDriver(data, mix, seed=SEED)
    return driver.bursty_open_loop(fleet, num_queries=NUM_QUERIES, **BURST)


_RUNS: dict[str, object] = {}


def fleet_report(workload, key):
    """Each configuration is simulated once; every test shares the runs."""
    if key not in _RUNS:
        if key == "solo_1":
            _RUNS[key] = run_fleet(workload, replicas=1)
        elif key == "fleet_4":
            _RUNS[key] = run_fleet(workload, replicas=4)
        elif key == "fleet_4_warm":
            _RUNS[key] = run_fleet(
                workload, replicas=4, result_cache_bytes=1 << 25
            )
        elif key == "autoscale_1_to_4":
            _RUNS[key] = run_fleet(
                workload,
                replicas=1,
                autoscaler=Autoscaler(
                    min_replicas=1,
                    max_replicas=4,
                    up_queue_wait_s=0.0005,
                    down_utilization=0.5,
                    cooldown_s=0.001,
                    interval_s=0.0005,
                ),
            )
        else:  # pragma: no cover - guard against typos
            raise KeyError(key)
    return _RUNS[key]


def test_four_replicas_beat_one_on_p99(workload):
    one = fleet_report(workload, "solo_1")
    four = fleet_report(workload, "fleet_4")
    assert one.counters["completed"] == NUM_QUERIES
    assert four.counters["completed"] == NUM_QUERIES
    # The acceptance bar: replication wins the tail under bursts.
    assert four.latency["total_s"]["p99"] < one.latency["total_s"]["p99"]
    assert four.latency["total_s"]["p95"] < one.latency["total_s"]["p95"]


def test_warm_result_cache_beats_cold_on_throughput(workload):
    cold = fleet_report(workload, "fleet_4")
    warm = fleet_report(workload, "fleet_4_warm")
    assert warm.counters["completed"] == NUM_QUERIES
    # The mix repeats three shapes: nearly everything after the first
    # pass is served out of the result cache.
    assert warm.counters["cache_hits"] > NUM_QUERIES // 2
    assert warm.result_cache_hit_rate > 0.5
    # The acceptance bar: the warm cache wins on throughput.
    assert warm.throughput_qps > cold.throughput_qps
    assert warm.latency["total_s"]["p50"] <= cold.latency["total_s"]["p50"]


def test_autoscaler_bills_less_than_always_on(workload):
    four = fleet_report(workload, "fleet_4")
    auto = fleet_report(workload, "autoscale_1_to_4")
    assert auto.counters["completed"] == NUM_QUERIES
    assert auto.counters["scale_ups"] >= 1
    # Elasticity pays: fewer replica-seconds than always-on 4.
    assert auto.replica_seconds < four.replica_seconds


def test_fleet_run_is_deterministic(workload):
    first = fleet_report(workload, "fleet_4")
    repeat = run_fleet(workload, replicas=4)
    assert repeat.schedule_digest == first.schedule_digest
    assert repeat.to_dict() == first.to_dict()


def _config_doc(report) -> dict:
    """The compact per-config slice of the CI artifact (no per-job rows)."""
    return {
        "routing": report.routing,
        "makespan_s": report.makespan_s,
        "throughput_qps": report.throughput_qps,
        "latency": report.latency,
        "counters": report.counters,
        "result_cache": report.result_cache,
        "result_cache_hit_rate": report.result_cache_hit_rate,
        "plan_cache": report.plan_cache,
        "replica_seconds": report.replica_seconds,
        "autoscale_events": report.autoscale_events,
        "schedule_digest": report.schedule_digest,
        "replicas": [
            {k: v for k, v in r.items() if k != "report"}
            for r in report.replicas
        ],
    }


def test_write_fleet_report(workload, results_dir):
    """Render the cross-config fleet report consumed by CI."""

    doc = {
        "sf": SERVE_SF,
        "seed": SEED,
        "mix": [f"q{n}" for n in MIX],
        "streams": STREAMS,
        "num_queries": NUM_QUERIES,
        "burst": BURST,
        "configs": {
            key: _config_doc(fleet_report(workload, key))
            for key in (
                "solo_1",
                "fleet_4",
                "fleet_4_warm",
                "autoscale_1_to_4",
            )
        },
    }
    out = results_dir / "fleet_serving.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert out.exists()
