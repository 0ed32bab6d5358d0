"""Shared benchmark configuration.

Scale factor comes from ``REPRO_BENCH_SF`` (default 0.1 — the largest
scale that keeps a full three-engine TPC-H sweep in a few wall-clock
minutes).  The harnesses report *simulated* time; host cost is
``perfbench/``'s to measure.

Rendered tables for every figure/table are written to
``benchmarks/results/`` so EXPERIMENTS.md can reference the exact output.
"""

import os
from pathlib import Path

import pytest

BENCH_SF = float(os.environ.get("REPRO_BENCH_SF", "0.1"))
RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_sf() -> float:
    return BENCH_SF


@pytest.fixture(scope="session")
def single_node_harness():
    from repro.bench import SingleNodeHarness

    return SingleNodeHarness(sf=BENCH_SF)


@pytest.fixture(scope="session")
def distributed_harness():
    from repro.bench import DistributedHarness

    return DistributedHarness(sf=BENCH_SF, num_nodes=4)
