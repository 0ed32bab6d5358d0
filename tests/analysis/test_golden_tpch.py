"""Golden suite: every production plan must pass the analyzer clean.

All 22 single-node TPC-H plans (as MiniDuck plans them) and the Q1/Q3/Q6
distributed fragments (as MiniDoris fragments them) must produce zero
findings, and the analyzer's working-set estimate must agree *exactly*
with :func:`repro.sched.estimator.estimate_plan` — the number admission
control gates on.  The per-pipeline-breaker breakdown (site, kind, bytes,
in order) is pinned against a golden recorded before the analyzer's own
byte walk was replaced by the estimator's record of the same sites.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import analyze_plan
from repro.gpu import GH200, Device
from repro.hosts import MiniDoris, MiniDuck
from repro.plan import Plan
from repro.sched.estimator import estimate_plan
from repro.tpch import generate_tpch, tpch_query

SF = 0.01
GOLDEN_WORKING_SETS = Path(__file__).with_name("golden_tpch_pipeline_working_sets.json")


@pytest.fixture(scope="module")
def duck():
    host = MiniDuck()
    host.load_tables(generate_tpch(SF))
    return host


@pytest.fixture(scope="module")
def device():
    return Device(GH200, memory_limit_gb=1.0)


class TestGoldenTpch:
    @pytest.mark.parametrize("q", range(1, 23))
    def test_tpch_plan_is_clean(self, q, duck, device):
        plan = duck.plan(tpch_query(q))
        report = analyze_plan(plan, duck.tables, device)
        assert report.findings == [], [str(f) for f in report.findings]
        assert report.ok
        assert report.gpu_supported
        assert report.suggested_tier == "gpu"
        assert report.output_schema is not None

    @pytest.mark.parametrize("q", range(1, 23))
    def test_working_set_matches_sched_estimator(self, q, duck, device):
        plan = duck.plan(tpch_query(q))
        report = analyze_plan(plan, duck.tables, device)
        est = estimate_plan(plan, duck.tables, device)
        assert report.working_set_bytes == est.working_set_bytes
        assert report.estimated_rows == est.rows
        assert report.estimated_service_s == est.service_s
        # The per-pipeline-breaker breakdown must account for every byte.
        assert (
            sum(site["bytes"] for site in report.pipeline_working_sets)
            == est.working_set_bytes
        )

    @pytest.mark.parametrize("out_of_core", [False, True])
    def test_pipeline_working_sets_match_golden(self, out_of_core, duck, device):
        golden = json.loads(GOLDEN_WORKING_SETS.read_text())
        got = {}
        for q in range(1, 23):
            report = analyze_plan(
                duck.plan(tpch_query(q)), duck.tables, device, out_of_core=out_of_core
            )
            got[str(q)] = [
                [site["site"], site["kind"], site["bytes"]]
                for site in report.pipeline_working_sets
            ]
        assert got == golden[f"out_of_core={str(out_of_core).lower()}"]

    def test_output_schema_matches_plan(self, duck, device):
        plan = duck.plan(tpch_query(1))
        report = analyze_plan(plan, duck.tables, device)
        expected = [(f.name, f.dtype.name) for f in plan.output_schema()]
        assert report.output_schema == expected


class TestGoldenDistributedFragments:
    @pytest.fixture(scope="class")
    def doris(self):
        db = MiniDoris(num_nodes=2, mode="doris")
        db.load_tables(generate_tpch(SF))
        return db

    @pytest.mark.parametrize("q", [1, 3, 6])
    def test_fragments_are_clean(self, q, doris):
        fragments = doris.plan_fragments(tpch_query(q))
        assert fragments
        for fragment in fragments:
            report = analyze_plan(Plan(fragment.plan))
            assert report.findings == [], (q, [str(f) for f in report.findings])
            assert report.suggested_tier == "gpu"
