"""BENCHMARK.json against the benchmark contract and against the code."""

import hashlib
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_schema_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workloads_in_the_file_are_the_workloads_in_the_code():
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_frozen_inputs_match_their_hashes():
    from perfbench.workloads import FROZEN_SHA256, WORKLOAD_DIR, _battery, _statements, verify_frozen_inputs

    verify_frozen_inputs()
    assert len(_statements("tpch_22.sql")) == 22
    assert len(_battery()) == 348
    assert [label for label, _ in _statements("fleet_templates.sql")] == ["q6", "q14", "q3", "q1"]
    (name, digest), *_ = FROZEN_SHA256.items()
    assert hashlib.sha256((WORKLOAD_DIR / name).read_bytes()).hexdigest() == digest


def test_fleet_trace_is_reproducible_and_shaped_as_documented():
    from perfbench.workloads import FLEET_RATES, FLEET_REQUESTS_PER_RATE, _statements, fleet_trace

    templates = dict(_statements("fleet_templates.sql"))
    trace = fleet_trace(templates)
    assert trace == fleet_trace(templates)
    assert list(trace) == [name for name, _ in FLEET_RATES]
    for (name, rate), requests in zip(FLEET_RATES, trace.values()):
        assert len(requests) == FLEET_REQUESTS_PER_RATE
        arrivals = [t for t, _, _ in requests]
        assert arrivals == sorted(arrivals)
        # 100 Poisson arrivals at `rate` span about 100/rate seconds.
        assert 0.6 < arrivals[-1] * rate / FLEET_REQUESTS_PER_RATE < 1.5
        assert all("{p}" not in sql for _, _, sql in requests)


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_prints_exactly_the_metrics_the_file_names(trace, capsys):
    """Every name in BENCHMARK.json is printed by the run and vice versa
    (shortest possible run of the cheapest workload)."""
    from perfbench.harness import Run

    run = Run("battery_tiny", seed=3, seconds=0.0, trace=bool(trace))
    run.workload.min_rounds = 1
    run.workload.trace_rounds = (1, 1)
    result = run.execute()
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        reading = result["metrics"][m["name"]]
        assert set(reading) == {"value", "unit"} and reading["unit"] == m["unit"]
        assert isinstance(reading["value"], (int, float))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 348
    # One round cannot support a p90 (the percentile rule); nothing else
    # may be wrong, and in particular no metric may be unknown to the file.
    assert all("samples" in p for p in run.problems), run.problems
    printed = capsys.readouterr().out
    assert all(m["name"] in printed for m in section)
    if not trace:
        assert all(m["value"] > 0 for name, m in result["metrics"].items() if name != "host_op_p90_mcu")
