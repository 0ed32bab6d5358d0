"""The SQL shape battery: 340+ one-line statements over TPC-H, each
validated against its committed (rows, cols) shape on BOTH engines, with
CPU and GPU values cross-checked — once on the default GPU engine, once
with ``out_of_core=True`` and the spool's in-core hold switched off, so
every keyed join and group-by scatters through the partition spool.  Zero
tolerated mismatches."""

import pytest

from repro.bench.baselines import battery_cases, expected_shapes, rows_equal
from repro.bench.baselines.battery import SCALE_FACTOR
from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine, MiniDuck, SiriusExtension
from repro.tpch import generate_tpch

CASES = battery_cases()
SHAPES = expected_shapes()


def _cpu_and_gpu_dbs(**engine_options):
    tables = generate_tpch(SCALE_FACTOR)
    cpu_db = MiniDuck()
    cpu_db.load_tables(tables)
    gpu_db = MiniDuck()
    gpu_db.load_tables(tables)
    gpu_db.install_extension(
        SiriusExtension(
            SiriusEngine.for_spec(GH200, memory_limit_gb=4.0, **engine_options), CpuEngine()
        )
    )
    return cpu_db, gpu_db


@pytest.fixture(scope="module")
def engines():
    return _cpu_and_gpu_dbs()


@pytest.fixture(scope="module")
def out_of_core_engines():
    """The same pair with every keyed join and group-by partitioned."""
    return _cpu_and_gpu_dbs(out_of_core=True)


def test_every_case_has_a_committed_shape():
    assert len(CASES) >= 300
    assert {c.case_id for c in CASES} == set(SHAPES)


def _check_shape_and_agreement(engines, case):
    cpu_db, gpu_db = engines
    expected = SHAPES[case.case_id]

    cpu = cpu_db.execute(case.sql).table
    assert (cpu.num_rows, len(cpu.schema.fields)) == expected, case.sql

    gpu = gpu_db.execute(case.sql).table
    assert (gpu.num_rows, len(gpu.schema.fields)) == expected, case.sql

    assert cpu.schema.names() == gpu.schema.names(), case.sql
    assert rows_equal(cpu.to_rows(), gpu.to_rows()), case.sql


class TestBatteryShapes:
    # Two methods, not a parametrised fixture: the ids of the default
    # engine's tests are the floor of record and must not change.
    @pytest.mark.parametrize("case", CASES, ids=[c.case_id for c in CASES])
    def test_shape_and_engine_agreement(self, engines, case):
        _check_shape_and_agreement(engines, case)

    @pytest.mark.parametrize("case", CASES, ids=[c.case_id for c in CASES])
    @pytest.mark.usefixtures("partition_every_sink")
    def test_shape_and_engine_agreement_out_of_core(self, out_of_core_engines, case):
        _check_shape_and_agreement(out_of_core_engines, case)
