"""The four workloads: what runs, on which engine, and how an op is judged.

Everything here goes through the program's documented entry points only
(``generate_tpch``, ``MiniDuck``, ``SiriusExtension``, ``CpuEngine``,
``SiriusEngine.for_spec``, ``FleetScheduler``, ``engine_factory``,
``estimate_plan``) and reads results through public attributes.  Optional
report fields are read with ``_field`` so that a renamed counter costs one
per-layer number, not the run.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import SiriusEngine
from repro.fleet import FleetScheduler, engine_factory
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine, MiniDuck, SiriusExtension
from repro.obs import Tracer
from repro.sched import estimate_plan
from repro.tpch import generate_tpch

from .clock import now
from .oracle import canonical_rows, rows_match
from .stats import geomean, median, percentile, qerror_geomean

WORKLOAD_DIR = Path(__file__).with_name("workloads")

# Frozen inputs: a later change to the battery or to the TPC-H texts must
# not silently change what this benchmark runs.
FROZEN_SHA256 = {
    "tpch_22.sql": "559e383af4483e84e3220df1d2335908d7b162b623840492f2def55d80961ce7",
    "battery_348.sql": "711f6b770922f4fdb0088725e5bc1128cd27d24bc08b217eb670cb5b58536150",
    "fleet_templates.sql": "94a41b2f8ca52a07804495fd84cf974df483b62463f5bc45a848e26e5b715bbf",
}

# tpch_pressure: a pool small enough that partitions spill, large enough
# that nothing degrades to a CPU tier (see README, "Sizing").
PRESSURE_LIMIT_GB = 0.032

CPU_TIERS = ("cpu-pipeline", "cpu-plan")
FIGURE5_CATEGORIES = ("join", "groupby", "filter", "aggregation", "orderby", "other", "transfer")

# --seed drives the data.  Statement order and the fleet's request trace are
# drawn from this fixed stream instead, so that simulated numbers differ
# between seeds only through the data; see README, "What the seed drives".
FROZEN_STREAM = 19920101
FLEET_RATES = (("low", 8_000.0), ("mid", 32_000.0), ("high", 128_000.0))
FLEET_REQUESTS_PER_RATE = 100
FLEET_TEMPLATE_WEIGHTS = (("q6", 0.45), ("q14", 0.25), ("q3", 0.25), ("q1", 0.05))
FLEET_PARAM_RANKS = 640
FLEET_ZIPF_EXPONENT = 1.0
# Latency limit for sim_max_rate_qps: twice the seed commit's p90 at `low`.
FLEET_P90_LIMIT_MS = 0.905
FLEET_BACKLOG_GROWTH = 2.0


def verify_frozen_inputs() -> None:
    for name, expected in FROZEN_SHA256.items():
        digest = hashlib.sha256((WORKLOAD_DIR / name).read_bytes()).hexdigest()
        if digest != expected:
            raise SystemExit(f"perfbench: frozen input {name} changed (sha256 {digest})")


def _statements(name: str) -> list[tuple[str, str]]:
    """(label, sql) pairs from a ``-- label`` / ``;``-separated file."""
    out = []
    for block in (WORKLOAD_DIR / name).read_text(encoding="utf-8").split("\n;\n"):
        block = block.strip()
        if not block:
            continue
        header, _, sql = block.partition("\n")
        out.append((header.removeprefix("--").strip(), sql.strip()))
    return out


def _battery() -> list[tuple[str, str]]:
    lines = (WORKLOAD_DIR / "battery_348.sql").read_text(encoding="utf-8").splitlines()
    return [tuple(line.split("\t", 1)) for line in lines]


def build_engine(mode: str, data=None, **observers):
    """The one place engines are configured.

    ``hot``: the paper's default configuration (``observers`` switch on a
    tracer, the sanitizer or fusion for the A/B ratios).  ``pressure``:
    all three memory modes together under a tight pool.  ``fleet``: the
    replica factory the fleet scheduler calls per spawn.
    """
    if mode == "hot":
        return SiriusEngine.for_spec(GH200, **observers)
    if mode == "pressure":
        return SiriusEngine.for_spec(
            GH200,
            memory_limit_gb=PRESSURE_LIMIT_GB,
            out_of_core=True,
            overlap=True,
            fusion=True,
        )
    if mode == "fleet":
        return engine_factory(GH200, warm=data)
    raise ValueError(f"unknown engine mode {mode!r}")


def _field(obj, name: str, default=0):
    """Read an optional report attribute or dict key; warn if it is gone
    (the default warning filter prints each distinct message once)."""
    if isinstance(obj, dict):
        if name in obj:
            return obj[name]
    elif hasattr(obj, name):
        return getattr(obj, name)
    warnings.warn(f"perfbench: {type(obj).__name__}.{name} is gone; reporting {default}")
    return default


def _timed_dbgen(sf: float, seed: int) -> tuple[dict, dict]:
    """The data, and the timers dict every set-up starts with."""
    start = now()
    data = generate_tpch(sf=sf, seed=seed)
    return data, {"tpch.dbgen_s": now() - start}


def _timed_first_plan(db: MiniDuck, sql: str, timers: dict) -> None:
    """A fresh MiniDuck's first ``plan()`` pays the ANALYZE-style
    distinct-count scan over every table."""
    start = now()
    db.plan(sql)
    timers["hosts.first_plan_ms"] = (now() - start) * 1e3


@dataclass
class RoundResult:
    op_walls: list[float] = field(default_factory=list)  # host seconds, one per op
    extra_wall: float = 0.0  # timed work that belongs to no single op
    unit: float = 0.0  # seconds per cu around this round (set by the harness)
    attempted: int = 0
    failed: int = 0
    sim: dict = field(default_factory=dict)  # end-to-end sim metrics (exact)
    counters: dict = field(default_factory=dict)  # per-layer exact numbers
    signature: tuple = ()  # further values that must repeat (schedule digests)
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.op_walls) + self.extra_wall


class _Tally:
    """What one round's executed operations add up to: the public
    ``QueryProfile`` fields, speed-ups over the CPU reference, and the
    scheduler's estimates beside what actually happened."""

    def __init__(self):
        self.c = {
            "core.pipelines": 0,
            "core.chunks": 0,
            "core.cold_loads": 0,
            "core.hot_hits": 0,
            "core.fused_regions": 0,
            "core.gpu_tier_retries": 0,
            "core.cpu_tier_fallbacks": 0,
            "core.spilled_mb": 0.0,
            "core.unspilled_mb": 0.0,
            "gpu.kernel_launches": 0,
            "gpu.pool_peak_mb": 0.0,
        }
        for cat in FIGURE5_CATEGORIES:
            self.c[f"gpu.sim_{_short(cat)}_ms"] = 0.0
        self.sims: list[float] = []
        self.speedups: list[float] = []
        self._service: list[tuple[float, float]] = []  # (estimated, actual) seconds
        self._working_set: list[tuple[float, float]] = []  # (estimated, peak) bytes

    def executed(self, profile, estimate, sim_s: float, cpu_sim_s: float) -> None:
        """Book one operation that ran on the GPU path; ``profile`` and
        ``estimate`` may be None when the program no longer exposes them."""
        self.sims.append(sim_s)
        self.speedups.append(cpu_sim_s / sim_s)
        if estimate is not None:
            self._service.append((estimate.service_s, sim_s))
        if profile is None:
            return
        c = self.c
        c["core.pipelines"] += _field(profile, "pipelines_run")
        c["core.chunks"] += _field(profile, "chunks_processed")
        c["core.fused_regions"] += _field(profile, "fused_kernels")
        c["gpu.kernel_launches"] += _field(profile, "kernel_count")
        tier = _field(profile, "fallback_tier", None)
        if tier is not None and tier not in CPU_TIERS:
            c["core.gpu_tier_retries"] += 1
        spill = _field(profile, "spill", {})
        c["core.spilled_mb"] += spill.get("spilled_bytes", 0) / 1e6
        c["core.unspilled_mb"] += spill.get("unspilled_bytes", 0) / 1e6
        peak = _field(profile, "device_mem_peak")
        c["gpu.pool_peak_mb"] = max(c["gpu.pool_peak_mb"], peak / 1e6)
        breakdown = _field(profile, "breakdown", {})
        for cat in FIGURE5_CATEGORIES:
            c[f"gpu.sim_{_short(cat)}_ms"] += breakdown.get(cat, 0.0) * 1e3
        if estimate is not None:
            self._working_set.append((estimate.working_set_bytes, peak))

    def cache_traffic(self, stats_after: dict, stats_before: dict | None = None) -> None:
        """Add a buffer manager's cold loads and hot hits (``engine.stats()``)."""
        for key, stat in (("core.cold_loads", "cold_loads"), ("core.hot_hits", "hot_hits")):
            before = _field(stats_before, stat) if stats_before is not None else 0
            self.c[key] += _field(stats_after, stat) - before

    def counters(self) -> dict:
        self.c["sched.service_qerror_geomean"] = qerror_geomean(self._service)
        self.c["sched.workingset_qerror_geomean"] = qerror_geomean(self._working_set)
        return self.c


def _short(category: str) -> str:
    return "agg" if category == "aggregation" else category


@dataclass
class ClosedLoopState:
    data: dict
    db: MiniDuck
    engine: SiriusEngine
    ops: list[tuple[str, str]]
    timers: dict
    oracle: dict = field(default_factory=dict)  # label -> canonical rows
    cpu_sim: dict = field(default_factory=dict)  # label -> CPU sim seconds
    estimates: dict = field(default_factory=dict)  # label -> PlanEstimate

    def attach(self, engine: SiriusEngine) -> None:
        self.engine = engine
        # A CPU fallback lets a degraded op complete, so that it is
        # counted (as failed) instead of aborting the round.
        self.db.install_extension(SiriusExtension(engine, fallback_engine=CpuEngine()))


class ClosedLoop:
    """One client, one statement at a time, through the Figure-4 path:
    ``MiniDuck.execute(sql)`` -> Substrait JSON -> ``SiriusExtension`` ->
    ``SiriusEngine``."""

    def __init__(self, name, sf, load_ops, mode, ab_observers=False, min_rounds=5,
                 trace_rounds=(2, 3)):
        self.name = name
        self.sf = sf
        self.load_ops = load_ops
        self.mode = mode  # "hot" or "pressure"
        self.ab_observers = ab_observers  # traced runs add the A/B variants
        self.min_rounds = min_rounds
        self.trace_rounds = trace_rounds  # (untraced reference, traced) minimum
        self.recorder = None

    # -- set-up ----------------------------------------------------------------

    def setup(self, seed: int) -> ClosedLoopState:
        data, timers = _timed_dbgen(self.sf, seed)
        ops = self.load_ops()
        random.Random(FROZEN_STREAM).shuffle(ops)  # not file order; same in every round
        state = self._state_for(data, ops, timers, build_engine(self.mode))
        _timed_first_plan(state.db, ops[0][1], timers)
        return state

    def _state_for(self, data, ops, timers, engine) -> ClosedLoopState:
        db = MiniDuck()
        db.load_tables(data)
        state = ClosedLoopState(data, db, engine, ops, timers)
        state.attach(engine)
        if self.mode == "hot":
            engine.warm_cache(data)
        return state

    def prepare_oracle(self, state: ClosedLoopState) -> None:
        """CPU reference rows and sim seconds per statement, plus the
        scheduler's pre-execution estimate of each plan."""
        cpu = MiniDuck()
        cpu.load_tables(state.data)
        flags = {"out_of_core": True, "fusion": True} if self.mode == "pressure" else {}
        for label, sql in state.ops:
            result = cpu.execute(sql)
            state.oracle[label] = canonical_rows(result.table)
            state.cpu_sim[label] = result.sim_seconds
            state.estimates[label] = estimate_plan(
                state.db.plan(sql), state.data, state.engine.device, **flags
            )

    def observer_variants(self, state: ClosedLoopState) -> dict[str, ClosedLoopState]:
        """States that differ from ``state`` in one observer or mode, for
        the A/B host-cost ratios."""
        if not self.ab_observers:
            return {}
        variants = {}
        for key, observers in (
            ("tracer", {"tracer": Tracer()}),
            ("sanitizer", {"sanitize": True}),
            ("fusion", {"fusion": True}),
        ):
            variant = self._state_for(
                state.data, state.ops, state.timers, build_engine("hot", **observers)
            )
            variant.oracle, variant.cpu_sim = state.oracle, state.cpu_sim
            variant.estimates = state.estimates
            variant.db.plan(state.ops[0][1])
            variants[key] = variant
        return variants

    # -- one round -------------------------------------------------------------

    def round(self, state: ClosedLoopState, index: int) -> RoundResult:
        out = RoundResult()
        if self.mode == "pressure":  # cold caches: a fresh engine every round
            start = now()
            state.attach(build_engine("pressure"))
            out.extra_wall = now() - start
        stats_before = state.engine.stats()
        tally = _Tally()
        for label, sql in state.ops:
            if self.recorder is not None:
                self.recorder.request = f"{self.name}/r{index}/{label}"
            out.attempted += 1
            start = now()
            try:
                result = state.db.execute(sql)
            except Exception:  # an op that raises is a failed op, not a failed run
                out.op_walls.append(now() - start)
                out.failed += 1
                out.problems.append(f"{label}: {traceback.format_exc(limit=3)}")
                continue
            out.op_walls.append(now() - start)
            if result.profile is None:
                # Completed on a CPU tier: cheaper in host time than the
                # GPU path, so it must never read as a speed-up.
                tally.c["core.cpu_tier_fallbacks"] += 1
                out.failed += 1
                out.problems.append(f"{label}: completed on a CPU degradation tier")
                continue
            if not rows_match(canonical_rows(result.table), state.oracle[label]):
                out.failed += 1
                out.problems.append(f"{label}: rows differ from the CPU reference")
            tally.executed(
                result.profile, state.estimates[label], result.sim_seconds, state.cpu_sim[label]
            )
        tally.cache_traffic(state.engine.stats(), stats_before)
        out.counters = tally.counters()
        sims = tally.sims
        if sims:
            total = sum(sims)
            # Latency as the owner of a statement sees it when the round's
            # statements are all submitted at its start and one client
            # serves them in order: simulated time from round start to the
            # statement's completion.  (Per-statement service times would
            # sit on fixed-size tables and never move with the data.)
            completions = list(itertools.accumulate(sims))
            out.sim = {
                "sim_round_ms": total * 1e3,
                "sim_speedup_vs_cpu": geomean(tally.speedups),
                # Order statistics of an exactly repeating population, so
                # the ten-samples-beyond rule (sampling noise) does not apply.
                "sim_lat_p50_ms": median(completions) * 1e3,
                "sim_lat_p90_ms": percentile(completions, 0.9, min_beyond=0) * 1e3,
                # One closed-loop client sustains ops / simulated second.
                "sim_max_rate_qps": len(sims) / total,
            }
        return out


# -- fleet_param ---------------------------------------------------------------


def fleet_trace(templates: dict[str, str]) -> dict[str, list[tuple[float, str, str]]]:
    """The frozen request trace: per rate, (arrival_s, template, sql).

    Poisson arrivals, a weighted template pick and a Zipf-ranked parameter
    per request, all by inverse CDF from ``Random.random()`` alone — the
    one stream CPython guarantees to reproduce across versions.
    """
    names = [n for n, _ in FLEET_TEMPLATE_WEIGHTS]
    pick_cdf = _cdf([w for _, w in FLEET_TEMPLATE_WEIGHTS])
    rank_cdf = _cdf([1.0 / (k + 1) ** FLEET_ZIPF_EXPONENT for k in range(FLEET_PARAM_RANKS)])
    trace = {}
    for rate_name, rate in FLEET_RATES:
        rng = random.Random(f"perfbench-fleet:{FROZEN_STREAM}:{rate_name}")
        t = 0.0
        requests = []
        for _ in range(FLEET_REQUESTS_PER_RATE):
            t += -math.log(1.0 - rng.random()) / rate
            name = names[min(bisect.bisect_right(pick_cdf, rng.random()), len(names) - 1)]
            rank = min(bisect.bisect_right(rank_cdf, rng.random()), FLEET_PARAM_RANKS - 1)
            requests.append((t, name, templates[name].format(p=rank)))
        trace[rate_name] = requests
    return trace


def _cdf(weights: list[float]) -> list[float]:
    total = sum(weights)
    acc, out = 0.0, []
    for w in weights:
        acc += w / total
        out.append(acc)
    return out


@dataclass
class FleetState:
    data: dict
    host: MiniDuck
    trace: dict
    timers: dict
    oracle: dict = field(default_factory=dict)  # sql -> canonical rows
    cpu_sim: dict = field(default_factory=dict)  # sql -> CPU sim seconds


class FleetParam:
    """Open loop in simulated time: a frozen trace of parameterised SQL
    requests at three fixed Poisson rates, a fresh 4-replica fleet per
    rate.  The host side is a closed loop (plan, submit, ..., run)."""

    name = "fleet_param"
    sf = 0.02
    min_rounds = 3
    trace_rounds = (1, 2)

    def __init__(self):
        self.recorder = None

    def setup(self, seed: int) -> FleetState:
        data, timers = _timed_dbgen(self.sf, seed)
        host = MiniDuck()
        host.load_tables(data)
        trace = fleet_trace(dict(_statements("fleet_templates.sql")))
        _timed_first_plan(host, trace["low"][0][2], timers)
        return FleetState(data, host, trace, timers)

    def prepare_oracle(self, state: FleetState) -> None:
        cpu = MiniDuck()
        cpu.load_tables(state.data)
        for requests in state.trace.values():
            for _, _, sql in requests:
                if sql not in state.oracle:
                    result = cpu.execute(sql)
                    state.oracle[sql] = canonical_rows(result.table)
                    state.cpu_sim[sql] = result.sim_seconds

    def observer_variants(self, state: FleetState) -> dict:
        return {}

    def round(self, state: FleetState, index: int) -> RoundResult:
        out = RoundResult()
        tally = _Tally()
        c = tally.c
        c.update({"fleet.events": 0, "fleet.sim_replica_seconds": 0.0})
        plan_hits = plan_lookups = 0
        digests, passing = [], []
        for rate_name, rate in FLEET_RATES:
            start = now()
            fleet = FleetScheduler(
                build_engine("fleet", state.data),
                replicas=4,
                routing="least-outstanding",
                policy="sjf",
                streams=4,
                seed=FROZEN_STREAM,
                result_cache_bytes=16_000_000,
                plan_cache_entries=256,
            )
            out.extra_wall += now() - start
            jobs = []
            for i, (arrival, label, sql) in enumerate(state.trace[rate_name]):
                if self.recorder is not None:
                    self.recorder.request = f"{self.name}/r{index}/{rate_name}/{i}:{label}"
                start = now()
                job = fleet.submit(state.host.plan(sql), state.data, label=label, arrival_s=arrival)
                out.op_walls.append(now() - start)
                jobs.append((job, sql))
            if self.recorder is not None:
                self.recorder.request = f"{self.name}/r{index}/{rate_name}/run"
            start = now()
            report = fleet.run()
            out.extra_wall += now() - start

            latencies_ms = []
            for job, sql in jobs:
                out.attempted += 1
                if job.state != "completed" or job.table is None:
                    out.failed += 1
                    out.problems.append(f"{rate_name}/{job.label}: ended {job.state}")
                    continue
                if not rows_match(canonical_rows(job.table), state.oracle[sql]):
                    out.failed += 1
                    out.problems.append(f"{rate_name}/{job.label}: rows differ from the CPU reference")
                latencies_ms.append(job.latency_s * 1e3)
                if job.cache_hit:
                    continue
                inner = job.job
                tally.executed(
                    _field(inner, "profile", None),
                    _field(inner, "estimate", None),
                    job.service_s,
                    state.cpu_sim[sql],
                )
            if len(latencies_ms) == len(jobs):
                p50 = median(latencies_ms)
                p90 = percentile(latencies_ms, 0.9)
                quarter = len(latencies_ms) // 4
                growing = (
                    sum(latencies_ms[-quarter:])
                    > FLEET_BACKLOG_GROWTH * sum(latencies_ms[:quarter])
                )
                if p90 <= FLEET_P90_LIMIT_MS and not growing:
                    passing.append(rate)
                waits = [job.queue_wait_s * 1e3 for job, _ in jobs]
                c[f"fleet.sim_lat_p50_ms.{rate_name}"] = p50
                c[f"fleet.sim_lat_p90_ms.{rate_name}"] = p90
                c[f"sched.sim_queue_wait_p90_ms.{rate_name}"] = percentile(waits, 0.9)
            c[f"fleet.result_cache_hit_share.{rate_name}"] = sum(
                1 for job, _ in jobs if job.cache_hit
            ) / len(jobs)
            plan_cache = _field(report, "plan_cache", {})
            plan_hits += plan_cache.get("hits", 0)
            plan_lookups += plan_cache.get("hits", 0) + plan_cache.get("misses", 0)
            c["fleet.events"] += len(_field(fleet, "event_log", ()))
            c["fleet.sim_replica_seconds"] += _field(report, "replica_seconds", 0.0)
            for replica in _field(fleet, "replicas", ()):
                tally.cache_traffic(replica.engine.stats())
            digests.append(_field(report, "schedule_digest", ""))

        c["fleet.plan_cache_hit_share"] = plan_hits / plan_lookups if plan_lookups else 0.0
        c["sched.sim_service_p50_ms"] = median(tally.sims) * 1e3 if tally.sims else 0.0
        out.counters = tally.counters()
        out.signature = tuple(digests)
        if out.failed == 0:
            out.sim = {
                # Simulated device-seconds the round's requests consumed.
                "sim_round_ms": sum(tally.sims) * 1e3,
                "sim_speedup_vs_cpu": geomean(tally.speedups),
                # The overloaded regime is where scheduling decisions show.
                "sim_lat_p50_ms": c["fleet.sim_lat_p50_ms.high"],
                "sim_lat_p90_ms": c["fleet.sim_lat_p90_ms.high"],
                # One step below the lowest rate if even that one fails.
                "sim_max_rate_qps": max(passing, default=FLEET_RATES[0][1] / 4),
            }
        return out


# name -> factory; a run creates its own workload object.
WORKLOADS = {
    "tpch_hot": lambda: ClosedLoop(
        "tpch_hot", 0.05, lambda: _statements("tpch_22.sql"), "hot", ab_observers=True
    ),
    "battery_tiny": lambda: ClosedLoop("battery_tiny", 0.001, _battery, "hot"),
    "tpch_pressure": lambda: ClosedLoop(
        "tpch_pressure", 0.02, lambda: _statements("tpch_22.sql"), "pressure"
    ),
    "fleet_param": FleetParam,
}
