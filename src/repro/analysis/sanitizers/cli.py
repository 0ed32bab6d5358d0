"""Sanitized suite runners behind ``python -m repro sanitize``.

Each runner executes a deterministic, seeded slice of the repo's own
workloads with the sanitizer attached and returns a
:class:`~repro.analysis.sanitizers.SanitizerReport`:

* ``tpch`` — the single-node TPC-H queries across the engine
  configurations that exercise every async path (synchronous baseline,
  copy/compute overlap + prefetch, out-of-core partitioned execution,
  and a memory-capped config that forces cache spills);
* ``battery`` — a sample of the SQL shape battery through the
  MiniDuck -> Sirius acceleration path;
* ``fleet`` — sanitized fleet runs on all three routing policies, each
  additionally re-executed by the :class:`~.determinism
  .DeterminismChecker` under permuted scheduler tie-breaks and runtime
  nondeterminism traps.

The clean suite must report **zero** findings — CI fails on any.
"""

from __future__ import annotations

from .determinism import DeterminismChecker
from .report import SanitizerReport

__all__ = [
    "run_tpch_suite",
    "run_battery_suite",
    "run_fleet_suite",
    "run_suite",
    "SUITES",
]

_SEED = 19920101


def _tpch_mix(queries):
    from ...hosts import MiniDuck
    from ...tpch import generate_tpch, tpch_query

    data = generate_tpch(sf=0.01, seed=_SEED)
    host = MiniDuck()
    host.load_tables(data)
    return data, [(f"q{n}", host.plan(tpch_query(n))) for n in queries]


def run_tpch_suite(queries=(1, 3, 6)) -> SanitizerReport:
    """Sanitize single-node TPC-H across the async-path configurations."""
    from ...core import SiriusEngine
    from ...gpu.specs import GH200

    data, plans = _tpch_mix(queries)
    configs = {
        "baseline": {},
        "overlap": {"overlap": True},
        "out-of-core": {"out_of_core": True},
        # Caching region capped below the working set: cold loads must
        # evict/spill mid-suite, exercising SA02/SA08 paths for real.
        "spill": {"memory_limit_gb": 0.0125, "overlap": True},
        # Fused streaming runs: the compiled-expression path must satisfy
        # the same dynamic invariants as the interpreted one.
        "fusion": {"fusion": True},
    }
    report = SanitizerReport(suite="tpch")
    for config, kwargs in configs.items():
        engine = SiriusEngine.for_spec(GH200, sanitize=True, **kwargs)
        for label, plan in plans:
            engine.execute(plan, data)
        for label, plan in plans:  # hot second pass: prefetch/hot hits
            engine.execute(plan, data)
        report.merge(engine.sanitizer.report(f"tpch:{config}"))
    return report


def run_battery_suite(limit: int | None = 40) -> SanitizerReport:
    """Sanitize a battery sample through the acceleration path."""
    from ...bench.baselines.battery import SCALE_FACTOR, battery_cases
    from ...core import SiriusEngine
    from ...gpu.specs import GH200
    from ...hosts import MiniDuck
    from ...tpch import generate_tpch

    data = generate_tpch(sf=SCALE_FACTOR, seed=_SEED)
    host = MiniDuck()
    host.load_tables(data)
    engine = SiriusEngine.for_spec(GH200, sanitize=True)
    cases = battery_cases()
    if limit is not None:
        cases = cases[:limit]
    for case in cases:
        engine.execute(host.plan(case.sql), host.tables)
    report = engine.sanitizer.report("battery")
    report.counters["battery_cases"] = len(cases)
    return report


_ROUTINGS = ("round-robin", "least-outstanding", "placement")


def run_fleet_suite(requests: int = 16, replicas: int = 3) -> SanitizerReport:
    """Sanitize fleet serving on every routing policy and re-run each
    schedule through the determinism checker."""
    from ...fleet import FleetScheduler, FleetWorkloadDriver, engine_factory
    from ...gpu.specs import GH200
    from ...hosts import MiniDuck
    from ...sched import WorkloadQuery
    from ...tpch import generate_tpch, tpch_query

    data = generate_tpch(sf=0.01, seed=_SEED)
    host = MiniDuck()
    host.load_tables(data)
    mix = [WorkloadQuery(f"q{n}", host.plan(tpch_query(n))) for n in (1, 3, 6)]
    report = SanitizerReport(suite="fleet")

    for routing in _ROUTINGS:
        fleets: list[FleetScheduler] = []

        def run_once(transform, routing=routing, fleets=fleets):
            policy = "fair" if transform is None else transform(_make_fair())
            fleet = FleetScheduler(
                engine_factory(GH200, warm=data, sanitize=True),
                replicas=replicas,
                routing=routing,
                policy=policy,
                streams=2,
                seed=_SEED,
            )
            fleets.append(fleet)
            driver = FleetWorkloadDriver(data, mix, seed=_SEED)
            return driver.open_loop(fleet, requests, rate_qps=2000.0)

        checker = DeterminismChecker(permutations=2)
        checker.check(run_once, site=f"fleet:{routing}")
        for finding in checker.findings:
            report.add(finding)
        for fleet in fleets:
            report.merge(fleet.sanitizer_report(f"fleet:{routing}"))
        report.counters[f"determinism_runs:{routing}"] = checker.runs
    return report


def _make_fair():
    from ...sched.policies import make_policy

    return make_policy("fair")


SUITES = {
    "tpch": run_tpch_suite,
    "battery": run_battery_suite,
    "fleet": run_fleet_suite,
}


def run_suite(suite: str = "all") -> SanitizerReport:
    """Run one named suite, or every suite merged (``all``)."""
    if suite in SUITES:
        return SUITES[suite]()
    if suite != "all":
        raise ValueError(f"unknown sanitize suite {suite!r}")
    merged = SanitizerReport(suite="all")
    for runner in SUITES.values():
        merged.merge(runner())
    return merged
