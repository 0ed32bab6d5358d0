"""Serving benchmark — multi-query throughput and tail latency.

A mixed Q1/Q3/Q6 workload on one simulated GH200:

* concurrency ≥ 4 must beat serialized back-to-back execution on
  aggregate simulated throughput (cross-query stream parallelism);
* shortest-expected-cost-first must beat FIFO on p50 latency when a
  long query arrives first (SJF's whole point);
* same seed, same schedule: the report is bit-deterministic.

The full report (per-policy throughput, p50/p95/p99 split into queue
wait vs service) is written to ``benchmarks/results/
throughput_serving.json`` for the CI artifact.
"""

import json

import pytest

from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import MiniDuck
from repro.sched import ServingScheduler, WorkloadDriver, WorkloadQuery
from repro.tpch import generate_tpch, tpch_query

from .conftest import BENCH_SF

SERVE_SF = min(BENCH_SF, 0.05)  # serving interleaves; keep the data small
SEED = 19920101
MIX = (1, 3, 6)
STREAMS = 4


@pytest.fixture(scope="module")
def workload():
    data = generate_tpch(sf=SERVE_SF, seed=SEED)
    host = MiniDuck()
    host.load_tables(data)
    plans = {n: host.plan(tpch_query(n)) for n in MIX}
    return data, plans


def fresh_engine(data) -> SiriusEngine:
    engine = SiriusEngine.for_spec(GH200)
    engine.warm_cache(data)
    return engine


@pytest.fixture(scope="module")
def serialized_seconds(workload) -> float:
    data, plans = workload
    engine = fresh_engine(data)
    total = 0.0
    for n in MIX:
        engine.execute(plans[n], data)
        total += engine.last_profile.sim_seconds
    return total


def serve(workload, policy, submit_order=MIX, streams=STREAMS):
    data, plans = workload
    engine = fresh_engine(data)
    sched = ServingScheduler(engine, policy=policy, streams=streams, seed=SEED)
    for n in submit_order:
        sched.submit(plans[n], data, label=f"q{n}", arrival_s=0.0)
    return sched.run()


def test_concurrent_throughput_beats_serialized(workload, serialized_seconds):
    report = serve(workload, "fair")
    assert report.counters["completed"] == len(MIX)
    assert report.makespan_s < serialized_seconds
    concurrent_qps = report.throughput_qps
    serialized_qps = len(MIX) / serialized_seconds
    assert concurrent_qps > serialized_qps


def test_sjf_beats_fifo_on_p50(workload):
    """Long query submitted first: FIFO makes the short ones wait; SJF
    reorders and wins the median."""

    # Q1 (the heavy aggregation) first, then the lighter Q3/Q6.
    fifo = serve(workload, "fifo", submit_order=(1, 3, 6), streams=1)
    sjf = serve(workload, "sjf", submit_order=(1, 3, 6), streams=1)
    assert sjf.latency["total_s"]["p50"] < fifo.latency["total_s"]["p50"]


def test_same_seed_is_deterministic(workload):
    data, plans = workload
    reports = []
    for _ in range(2):
        engine = fresh_engine(data)
        mix = [WorkloadQuery(f"q{n}", plans[n]) for n in MIX]
        driver = WorkloadDriver(engine, data, mix, seed=SEED)
        reports.append(
            driver.open_loop(
                num_queries=16, rate_qps=4000.0, policy="fair", streams=STREAMS
            )
        )
    assert reports[0].schedule_digest == reports[1].schedule_digest
    assert reports[0].to_dict() == reports[1].to_dict()


def test_cold_start_serving_benefits_from_overlap(workload, results_dir):
    """Cold-start serving (caches empty, every query pays its loads): the
    copy/compute-overlap engine must finish the mix strictly faster, and
    both runs stay bit-deterministic."""

    def cold_serve(enabled: bool):
        data, plans = workload
        engine = SiriusEngine.for_spec(GH200, overlap=enabled)  # no warm_cache
        sched = ServingScheduler(engine, policy="fair", streams=STREAMS, seed=SEED)
        for n in MIX:
            sched.submit(plans[n], data, label=f"q{n}", arrival_s=0.0)
        return sched.run()

    baseline = cold_serve(False)
    overlapped = cold_serve(True)
    assert baseline.counters["completed"] == len(MIX)
    assert overlapped.counters["completed"] == len(MIX)
    assert overlapped.makespan_s < baseline.makespan_s
    repeat = cold_serve(True)
    assert repeat.makespan_s == overlapped.makespan_s
    doc = {
        "baseline_makespan_s": baseline.makespan_s,
        "overlap_makespan_s": overlapped.makespan_s,
        "speedup": baseline.makespan_s / overlapped.makespan_s,
    }
    (results_dir / "serving_cold_overlap.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


def test_write_serving_report(workload, serialized_seconds, results_dir):
    """Render the cross-policy serving report consumed by CI."""

    doc = {
        "sf": SERVE_SF,
        "seed": SEED,
        "mix": [f"q{n}" for n in MIX],
        "streams": STREAMS,
        "serialized_s": serialized_seconds,
        "policies": {},
    }
    for policy in ("fifo", "fair", "sjf"):
        report = serve(workload, policy)
        doc["policies"][policy] = report.to_dict()
    out = results_dir / "throughput_serving.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert out.exists()
