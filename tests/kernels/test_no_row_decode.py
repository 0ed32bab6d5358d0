"""Structural test: on the GPU path string keys stay dictionary-encoded.

Joins, group-bys and concatenation work on integer codes; the only strings
ever compared are the dictionary *entries* the valid rows reference.  Two
observations, made from outside the library while real queries run:

* ``GColumn.decoded`` (one Python string per row) is never called from
  ``repro.kernels.keys`` or ``repro.kernels.copying``;
* no object array handed to ``np.unique`` from those modules is longer
  than the number of dictionary entries the call's string columns
  reference.

Statements: TPC-H Q1, Q10, Q16, Q18 (string group keys) and Q3, Q9, on the
default engine and under a 0.032 GB pool with out-of-core + overlap +
fusion (partitioned joins, so fragments are concatenated).
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro import kernels
from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import MiniDuck, SiriusExtension
from repro.kernels.gtable import GColumn
from repro.tpch import generate_tpch, tpch_query
from tests.core.test_random_plans import normalise

QUERIES = (1, 10, 16, 18, 3, 9)
WATCHED = ("repro.kernels.keys", "repro.kernels.copying")


def caller_module(depth=2):
    return sys._getframe(depth).f_globals.get("__name__")


def rebind_everywhere(monkeypatch, original, replacement):
    """Modules bind kernels by name at import; replace every binding."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def watch(monkeypatch):
    seen = SimpleNamespace(
        row_decodes=[],  # calling module, once per decoded() call
        oversized_sorts=[],  # (calling module, array length, entries referenced)
        string_calls=0,  # watched calls that carried string columns
    )
    real_unique, real_decoded = np.unique, GColumn.decoded
    budgets = []  # dictionary entries referenced by the kernel call in progress

    def decoded(self):
        if caller_module() in WATCHED:
            seen.row_decodes.append(caller_module())
        return real_decoded(self)

    def unique(values, *args, **kwargs):
        if caller_module() in WATCHED and np.asarray(values).dtype == object:
            if len(values) > budgets[-1]:
                seen.oversized_sorts.append((caller_module(), len(values), budgets[-1]))
        return real_unique(values, *args, **kwargs)

    def with_budget(kernel, string_columns_of):
        def wrapper(*args, **kwargs):
            columns = [c for c in string_columns_of(*args, **kwargs) if c.dtype.is_string]
            seen.string_calls += bool(columns)
            budgets.append(
                sum(
                    len(real_unique(c.data[c.valid_mask() & (c.data >= 0)]))
                    for c in columns
                )
            )
            try:
                return kernel(*args, **kwargs)
            finally:
                budgets.pop()

        return wrapper

    monkeypatch.setattr(GColumn, "decoded", decoded)
    monkeypatch.setattr(np, "unique", unique)
    rebind_everywhere(
        monkeypatch,
        kernels.factorize_keys,
        with_budget(
            kernels.factorize_keys,
            lambda left, right=(), nulls_match=False: [*left, *right],
        ),
    )
    rebind_everywhere(
        monkeypatch,
        kernels.concat_gtables,
        with_budget(
            kernels.concat_gtables,
            lambda tables: [c for t in tables if t is not None for c in t.columns],
        ),
    )
    return seen


@pytest.fixture(scope="module")
def data():
    return generate_tpch(sf=0.01, seed=1)


@pytest.fixture(scope="module")
def cpu_rows(data):
    cpu = MiniDuck()
    cpu.load_tables(data)
    return {q: sorted(normalise(cpu.execute(tpch_query(q)).table)) for q in QUERIES}


@pytest.mark.parametrize(
    "options",
    [
        pytest.param({}, id="default"),
        pytest.param(
            dict(memory_limit_gb=0.032, out_of_core=True, overlap=True, fusion=True),
            id="pressure",
        ),
    ],
)
def test_string_keys_are_never_decoded_per_row(watch, data, cpu_rows, options):
    db = MiniDuck()
    db.load_tables(data)
    db.install_extension(SiriusExtension(SiriusEngine.for_spec(GH200, **options)))
    for q in QUERIES:
        result = db.execute(tpch_query(q))
        assert result.profile is not None, f"Q{q} left the GPU tier"
        assert sorted(normalise(result.table)) == cpu_rows[q], f"Q{q}"
    assert watch.string_calls > 0, "no watched kernel saw a string column"
    assert watch.row_decodes == []
    assert watch.oversized_sorts == []
