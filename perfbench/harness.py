"""The run shape shared by all workloads.

set-up (repeated, median reported) -> CPU oracle -> one untimed warm-up
round that fixes the simulated metrics and exact counters -> timed rounds
on identical inputs until ``--seconds`` have passed, a calibration reading
before and after each.  Every round checks every result and must reproduce the
warm-up round's simulated numbers exactly.

A traced run (``--trace 1``) spends a third of its time on untraced
reference rounds, then rebinds the entry-point table and records spans for
the rest; it reports per-layer metrics only and never feeds an end-to-end
number.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from . import spans as span_ops
from .clock import NOMINAL_UNIT_S, Calibrator, now, peak_rss_mb, to_cu
from .stats import MIN_BEYOND, TooFewSamples, median, metric_clock, percentile

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).with_name("out")

SETUP_REPEATS = 3
SIM_REL_TOL = 1e-9  # the sim clock accumulates, so its last bits move

# Per-layer metrics that are span counts per traced round, by span name.
SPAN_COUNTS = {
    "sql.statements": "sql.parser.parse_sql",
    "sched.estimates": "sched.estimator.estimate_plan",
    "sched.step_events": "sched.scheduler.ServingScheduler.step_event",
}


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=SIM_REL_TOL, abs_tol=1e-15)
    return a == b


def _import_program() -> None:
    """Import the program in a fresh interpreter (an import can be timed
    only once per process, and set-up is timed three times)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT), str(ROOT / "src")))}
    subprocess.run([sys.executable, "-c", "import perfbench.workloads"], env=env, check=True)


def _median_wall(rounds) -> float:
    return median(r.wall for r in rounds)


def _median_cu(rounds) -> float:
    return median(to_cu(r.wall, r.unit) for r in rounds)


class Run:
    """One invocation: one workload, one seed, traced or not."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        # The metric names, units and order to print, from the one file
        # that declares them.
        self.spec = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
        workloads = importlib.import_module("perfbench.workloads")
        workloads.verify_frozen_inputs()
        self.workload = workloads.WORKLOADS[workload]()
        self.calibrate = Calibrator()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.warm = None

    # -- phases ------------------------------------------------------------------

    def set_up(self):
        """Three imports and three set-ups, each between two calibration
        readings.  ``setup_s`` is speed-corrected: the medians in cu, times
        the nominal unit, so that a slow quarter of an hour on a shared box
        does not read as work moved into set-up."""
        import_cu, setup_cu, walls, timers = [], [], [], []
        for i in range(SETUP_REPEATS):
            _, wall, unit = self.calibrate.around(_import_program, fresh=(i == 0))
            import_cu.append(to_cu(wall, unit))
            walls.append(wall)
        state = None
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()  # the previous copy of the data must not count twice
            state, wall, unit = self.calibrate.around(
                lambda: self.workload.setup(self.seed), fresh=False
            )
            setup_cu.append(to_cu(wall, unit))
            walls.append(wall)
            timers.append(state.timers)
        self.setup_s = (median(import_cu) + median(setup_cu)) * NOMINAL_UNIT_S
        self.setup_wall_s = median(walls[:SETUP_REPEATS]) + median(walls[SETUP_REPEATS:])
        self.setup_timers = {k: median(t[k] for t in timers) for k in timers[0]}
        start = now()
        self.workload.prepare_oracle(state)
        self.setup_timers["hosts.cpu_ref_ms"] = (now() - start) * 1e3
        # The oracle's rows are the harness's objects, not the program's:
        # keep the collector from walking them inside timed operations.
        gc.collect()
        gc.freeze()
        return state

    def round(self, state, index: int, exact: bool = True):
        """Run one round; book its ops and, unless the state is an A/B
        variant, hold it to the warm-up round's simulated numbers."""
        gc.collect()  # every round starts from the same collector state
        result = self.workload.round(state, index)
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems.extend(result.problems)
        if exact and self.warm is not None:
            ref = self.warm
            for what, got, want in (
                ("sim", result.sim, ref.sim),
                ("counter", result.counters, ref.counters),
            ):
                for key in want:
                    if not _same(got.get(key), want[key]):
                        self.problems.append(
                            f"round {index}: {what} {key} = {got.get(key)!r}, "
                            f"warm-up round had {want[key]!r}"
                        )
            if result.signature != ref.signature:
                self.problems.append(f"round {index}: schedule digest changed")
        return result

    def timed_rounds(self, states: dict, budget_s: float, min_rounds: int, first_index: int):
        """Cycle through ``states`` (the base state under key ``""`` and any
        A/B variants), one round each, until the budget is spent.  A
        calibration reading is taken before the first round and after every
        round; a round's unit is the mean of the two readings around it.
        Returns {key: [rounds]}."""
        out = {key: [] for key in states}
        start = now()
        fresh = True
        while len(out[""]) < min_rounds or now() - start < budget_s:
            for key, state in states.items():
                index = first_index + sum(len(v) for v in out.values())
                result, _, unit = self.calibrate.around(
                    lambda: self.round(state, index, exact=(key == "")), fresh=fresh
                )
                result.unit = unit
                out[key].append(result)
                fresh = False
        return out

    # -- the two kinds of run -------------------------------------------------------

    def execute(self) -> dict:
        state = self.set_up()
        self.warm = self.round(state, 0)
        metrics = self.traced(state) if self.trace else self.untraced(state)
        if self.problems:
            print(f"perfbench: {len(self.problems)} problem(s):", file=sys.stderr)
            for line in self.problems[:20]:
                print(f"  {line}", file=sys.stderr)
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def untraced(self, state) -> dict:
        first_reading = len(self.calibrate.readings)
        rounds = self.timed_rounds({"": state}, self.seconds, self.workload.min_rounds, 1)[""]
        # An operation's cost is its fastest repetition over the rounds
        # (interference only ever adds time, and an operation is short
        # enough to be hit whole), in units of the run's median reading;
        # percentiles are taken across operations.  Pooling raw samples, or
        # taking each operation's median, was 2-5x noisier between runs.
        readings = self.calibrate.readings[first_reading:]
        unit = median(readings)
        op_mcu = [
            to_cu(min(r.op_walls[i] for r in rounds), unit) * 1e3
            for i in range(len(rounds[0].op_walls))
        ]
        samples = len(op_mcu) * len(rounds)
        try:
            # Ten raw samples beyond the percentile = this many operations.
            p90 = percentile(op_mcu, 0.9, min_beyond=math.ceil(MIN_BEYOND / len(rounds)))
        except TooFewSamples as exc:
            self.problems.append(str(exc))
            p90 = 0.0
        values = {
            "setup_s": (self.setup_s, SETUP_REPEATS),
            "host_round_cu": (_median_cu(rounds), len(rounds)),
            "host_op_p50_mcu": (median(op_mcu), samples),
            "host_op_p90_mcu": (p90, samples),
            "host_peak_rss_mb": (peak_rss_mb(), 1),
        }
        for name, value in self.warm.sim.items():
            values[name] = (value, self.warm.attempted)
        print(f"# 1 cu = {unit:.6f} s (median of {len(readings)} readings); "
              f"round = {_median_wall(rounds):.6f} s; set-up = {self.setup_wall_s:.6f} s uncorrected")
        return self._emit(values)

    def traced(self, state) -> dict:
        w = self.workload
        ref_min, traced_min = w.trace_rounds
        states = {"": state, **w.observer_variants(state)}
        reference = self.timed_rounds(states, self.seconds / 3, ref_min, 1)
        ref_rounds = reference.pop("")
        ref_wall = _median_wall(ref_rounds)

        entrypoints = importlib.import_module("perfbench.entrypoints")
        recorder = span_ops.SpanRecorder()
        instrumentation = entrypoints.Instrumentation(recorder).install()
        w.recorder = recorder
        try:
            first = 1 + len(ref_rounds) + sum(len(v) for v in reference.values())
            traced = self.timed_rounds({"": state}, self.seconds * 2 / 3, traced_min, first)[""]
        finally:
            w.recorder = None
            instrumentation.restore()
        n = len(traced)

        values = {k: (v, SETUP_REPEATS) for k, v in self.setup_timers.items()}
        for name, value in self.warm.counters.items():
            values[name] = (value, 1)
        self_s = span_ops.self_times(recorder.spans)
        for name in entrypoints.traced_metrics() - instrumentation.missing:
            values[name] = (self_s.get(name, 0.0) * 1e3 / n, n)
        values["kernels.total_ms"] = (
            sum(v for k, (v, _) in values.items() if k.startswith("kernels.") and k.endswith("_ms")),
            n,
        )
        counts = span_ops.call_counts(recorder.spans)
        for name, span_name in SPAN_COUNTS.items():
            values[name] = (counts.get(span_name, 0) / n, n)
        values["kernels.calls"] = (
            sum(1 for s in recorder.spans if s[span_ops.METRIC].startswith("kernels.")) / n, n
        )

        refs = len(ref_rounds)
        launches = self.warm.counters.get("gpu.kernel_launches", 0)
        sim_ms = self.warm.sim.get("sim_round_ms", 0.0)
        values["gpu.host_us_per_launch"] = (ref_wall * 1e6 / launches if launches else 0.0, refs)
        values["gpu.host_s_per_sim_s"] = (ref_wall * 1e3 / sim_ms if sim_ms else 0.0, refs)
        ref_cu = _median_cu(ref_rounds)
        values["bench.trace_overhead_ratio"] = (_median_cu(traced) / ref_cu, n)
        values["bench.round_wall_s"] = (ref_wall, refs)
        readings = self.calibrate.readings
        values["bench.calibration_s"] = (median(readings), len(readings))
        values["bench.ops_per_wall_s"] = (self.warm.attempted / ref_wall, refs)
        for key, metric in (
            ("tracer", "obs.tracer_host_ratio"),
            ("sanitizer", "analysis.sanitizer_host_ratio"),
            ("fusion", "core.fusion_host_ratio"),
        ):
            if key in reference:
                values[metric] = (_median_cu(reference[key]) / ref_cu, len(reference[key]))
        if "fusion" in reference and sim_ms:
            fused_ms = reference["fusion"][0].sim.get("sim_round_ms", 0.0)
            values["core.fusion_sim_ratio"] = (fused_ms / sim_ms, 1)

        OUT_DIR.mkdir(exist_ok=True)
        span_ops.write_chrome_trace(
            recorder.spans,
            OUT_DIR / f"{w.name}.trace.json",
            {"workload": w.name, "seed": self.seed, "traced_rounds": n,
             "untraced_entry_points": sorted(instrumentation.missing)},
        )
        print(f"# {refs} reference rounds, {n} traced rounds, {len(recorder.spans)} spans")
        return self._emit(values)

    # -- output --------------------------------------------------------------------

    def _emit(self, values: dict) -> dict:
        """Print the readable table; return the contract's metrics object.
        A metric this workload does not produce is reported as 0."""
        print(f"# {self.workload.name}  seed={self.seed}  {'traced' if self.trace else 'untraced'}")
        metrics = {}
        for name, meta in self.spec.items():
            unit = meta["unit"]
            clock = metric_clock(name, unit)
            if name in values:
                value, n = values[name]
                print(f"{name:<40} {value:>16.6f} {unit:<6} {clock:<5} n={n}")
            else:
                value = 0.0
                print(f"{name:<40} {'not measured':>16} {unit:<6} {clock:<5}")
            metrics[name] = {"value": value, "unit": unit}
        unknown = sorted(set(values) - set(self.spec))
        if unknown:
            self.problems.append(f"metrics not in BENCHMARK.json: {unknown}")
        return metrics
