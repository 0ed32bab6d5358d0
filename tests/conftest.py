"""Shared fixtures: simulated devices and small canonical tables.

Reproducibility: property-based tests (hypothesis) honour the
``REPRO_TEST_SEED`` environment variable — set it to replay a failing CI
run locally (``REPRO_TEST_SEED=123 pytest ...``).  The active seed is
printed in the pytest report header and on failure hypothesis prints the
reproduction blob (``print_blob`` is on in the registered profile).
"""

import os

import numpy as np
import pytest

from repro.columnar import Schema, Table
from repro.gpu import A100_40G, Device, GH200, M7I_CPU
from repro.obs import Tracer

try:
    from hypothesis import settings as _hyp_settings

    _hyp_settings.register_profile("repro", print_blob=True)
    _hyp_settings.load_profile("repro")
    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test extra
    _HAVE_HYPOTHESIS = False

REPRO_TEST_SEED = os.environ.get("REPRO_TEST_SEED")


def pytest_configure(config):
    if _HAVE_HYPOTHESIS and REPRO_TEST_SEED and hasattr(config.option, "hypothesis_seed"):
        # Only take the env seed when none was passed on the command line.
        if config.option.hypothesis_seed is None:
            config.option.hypothesis_seed = REPRO_TEST_SEED


def pytest_report_header(config):
    if REPRO_TEST_SEED:
        return f"repro: REPRO_TEST_SEED={REPRO_TEST_SEED} (hypothesis seed pinned)"
    return "repro: REPRO_TEST_SEED unset (hypothesis uses a random seed)"


class EngineConfigObserver(Tracer):
    """A tracer that notes ``(engine.out_of_core, engine.batch_rows)`` on
    every hook the engine, its device and its executor call — what an
    admission controller or estimator reading the engine mid-query would
    see.  Point ``engine`` at the engine after constructing it with this
    tracer."""

    def __init__(self):
        super().__init__()
        self.engine = None
        self.seen = set()


def _noting_configuration(hook):
    def method(self, *args, **kwargs):
        if self.engine is not None:
            self.seen.add((self.engine.out_of_core, self.engine.batch_rows))
        return hook(self, *args, **kwargs)

    return method


for _hook in ("span", "record_span", "event", "count", "gauge", "mark", "spans_since"):
    setattr(EngineConfigObserver, _hook, _noting_configuration(getattr(Tracer, _hook)))


@pytest.fixture
def config_observer():
    return EngineConfigObserver()


@pytest.fixture
def unique_calls(monkeypatch):
    """One entry per ``np.unique`` call made while the test runs — the
    cost of taking a table's distinct counts, counted rather than timed."""
    calls = []
    real_unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(1) or real_unique(*a, **k))
    return calls


@pytest.fixture
def partition_every_sink(monkeypatch):
    """Keyed sinks of an out-of-core run scatter every chunk, as if no
    input ever fit the spool's in-core hold.  An oracle whose pool is
    roomy enough for the spool to hold everything would otherwise check
    only the in-core branch.  An in-core run never asks for the hold
    decision, so this is inert for it (``TestOneOperatorTree`` in
    ``tests/core/test_out_of_core.py`` checks that)."""
    from repro.core.operators import spool

    monkeypatch.setattr(spool, "_hold", lambda ctx, held_bytes: False)


@pytest.fixture
def root_walks(monkeypatch):
    """Every relation tree handed to the structural pass
    (``repro.plan.check``) while the test runs, one entry per walk.  The
    roots themselves are held, not their ids — an id is reused once its
    object is collected."""
    from repro.plan.check import PlanChecker

    walked = []
    visit = PlanChecker.visit

    def recording_visit(self, rel, path):
        if path == "root":
            walked.append(rel)
        return visit(self, rel, path)

    monkeypatch.setattr(PlanChecker, "visit", recording_visit)
    return walked


@pytest.fixture
def gpu():
    """A GH200-like device with a small memory limit (tests stay tiny)."""
    return Device(GH200, memory_limit_gb=2.0)


@pytest.fixture
def cpu_device():
    return Device(M7I_CPU, memory_limit_gb=2.0)


@pytest.fixture
def a100():
    return Device(A100_40G, memory_limit_gb=2.0)


@pytest.fixture
def orders_table():
    """A small orders-like table with ints, floats, dates, and strings."""
    schema = Schema(
        [
            ("o_orderkey", "int64"),
            ("o_custkey", "int64"),
            ("o_totalprice", "float64"),
            ("o_orderdate", "date"),
            ("o_orderpriority", "string"),
        ]
    )
    return Table.from_pydict(
        {
            "o_orderkey": [1, 2, 3, 4, 5, 6],
            "o_custkey": [10, 20, 10, 30, 20, 10],
            "o_totalprice": [100.0, 250.5, 75.25, 300.0, 125.75, 90.0],
            "o_orderdate": [
                "1995-01-10",
                "1995-03-15",
                "1996-06-01",
                "1996-07-20",
                "1997-02-28",
                "1997-11-11",
            ],
            "o_orderpriority": ["1-URGENT", "2-HIGH", "1-URGENT", "3-MEDIUM", "2-HIGH", "5-LOW"],
        },
        schema,
    )


@pytest.fixture
def customer_table():
    schema = Schema(
        [
            ("c_custkey", "int64"),
            ("c_name", "string"),
            ("c_acctbal", "float64"),
        ]
    )
    return Table.from_pydict(
        {
            "c_custkey": [10, 20, 30, 40],
            "c_name": ["Customer#10", "Customer#20", "Customer#30", "Customer#40"],
            "c_acctbal": [1000.0, -50.0, 0.0, 777.7],
        },
        schema,
    )
