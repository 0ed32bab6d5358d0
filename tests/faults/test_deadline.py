"""The unified deadline / DNF mechanism, across every executor."""

import pytest

from repro.columnar import Schema, Table
from repro.core import (
    Deadline,
    DeadlineExceededError,
    DidNotFinishError,
    SiriusEngine,
)
from repro.gpu.clock import SimClock
from repro.gpu.specs import A100_40G
from repro.hosts import ClickLite, CpuEngine, MiniDoris
from repro.plan import PlanBuilder, col, lit
from repro.tpch import generate_tpch, tpch_query

SCHEMA = Schema([("k", "int64"), ("v", "float64")])


@pytest.fixture
def data():
    return {
        "t": Table.from_pydict(
            {"k": list(range(2000)), "v": [float(i) for i in range(2000)]}, SCHEMA
        )
    }


@pytest.fixture
def plan():
    return PlanBuilder.read("t", SCHEMA).filter(col("v") > lit(10.0)).build()


class TestDeadlineUnit:
    def test_anchored_at_construction(self):
        clock = SimClock()
        clock.advance(1.0)
        deadline = Deadline(0.5, clock)
        assert deadline.started_at == pytest.approx(1.0)
        assert deadline.expires_at == pytest.approx(1.5)
        assert deadline.remaining(1.2) == pytest.approx(0.3)
        assert not deadline.expired(1.5)
        assert deadline.expired(1.51)

    def test_check_raises_past_deadline(self):
        clock = SimClock()
        deadline = Deadline(0.1, clock)
        deadline.check(clock)  # fine at t=0
        clock.advance(0.2)
        with pytest.raises(DeadlineExceededError) as info:
            deadline.check(clock)
        assert info.value.budget_s == pytest.approx(0.1)
        assert info.value.elapsed_s == pytest.approx(0.2)

    def test_projected_check_fires_before_work(self):
        clock = SimClock()
        deadline = Deadline(0.1, clock)
        deadline.check_projected(clock, 0.05)  # would finish in time
        with pytest.raises(DeadlineExceededError):
            deadline.check_projected(clock, 0.2)
        assert clock.now == 0.0  # nothing was charged

    def test_dnf_is_the_common_base(self):
        assert issubclass(DeadlineExceededError, DidNotFinishError)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0, SimClock())
        with pytest.raises(ValueError):
            Deadline(None, SimClock())  # envelope needs >=1 dimension

    def test_memory_ceiling_dimension(self):
        from repro.core import MemoryBudgetExceededError

        deadline = Deadline(None, SimClock(), max_intermediate_rows=100)
        deadline.check_rows(100)  # at the ceiling is fine
        with pytest.raises(MemoryBudgetExceededError) as info:
            deadline.check_rows(101)
        assert issubclass(MemoryBudgetExceededError, DidNotFinishError)
        assert info.value.rows == 101 and info.value.limit == 100
        # A memory-only envelope never expires on time.
        assert not deadline.expired(1e9)


class TestEngineDeadlines:
    def test_sirius_pipeline_executor_enforces_deadline(self, data, plan):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        with pytest.raises(DeadlineExceededError):
            engine.execute(plan, data, deadline_s=1e-12)

    def test_deadline_not_absorbed_by_fallback(self, data, plan):
        """DNF is an answer, not a failure the degradation ladder should
        hide: a host executor must NOT be invoked for a blown deadline."""
        engine = SiriusEngine.for_spec(
            A100_40G,
            memory_limit_gb=1.0,
        )
        engine.set_host_executor(CpuEngine().execute)
        with pytest.raises(DeadlineExceededError):
            engine.execute(plan, data, deadline_s=1e-12)
        assert engine.fallback.fallback_count == 0

    def test_sirius_generous_deadline_completes(self, data, plan):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        out = engine.execute(plan, data, deadline_s=10.0)
        assert out.num_rows == 1989

    def test_cpu_engine_enforces_deadline(self, data, plan):
        engine = CpuEngine()
        with pytest.raises(DeadlineExceededError):
            engine.execute(plan, data, deadline_s=1e-12)
        out = engine.execute(plan, data, deadline_s=10.0)
        assert out.num_rows == 1989


class TestClickLiteQ9:
    """Q9's written-order cross join DNFs through the deadline — the old
    row-budget guard is off (``max_intermediate_rows=None``)."""

    @pytest.fixture(scope="class")
    def tpch(self):
        return generate_tpch(sf=0.01)

    def make_click(self, tpch, deadline_s):
        click = ClickLite(max_intermediate_rows=None, deadline_s=deadline_s)
        click.load_tables(tpch)
        return click

    def test_q9_exceeds_tight_deadline_without_materialising(self, tpch):
        click = self.make_click(tpch, deadline_s=0.0001)
        with pytest.raises(DeadlineExceededError) as info:
            click.execute(tpch_query(9, for_clickhouse=True))
        assert info.value.budget_s == pytest.approx(0.0001)
        # The projected check aborted before the clock ground through the
        # cross join: simulated time never passed the (tiny) deadline by
        # more than one kernel.
        assert click.device.clock.now < 0.05

    def test_q9_completes_under_generous_deadline(self, tpch):
        click = self.make_click(tpch, deadline_s=30.0)
        result = click.execute(tpch_query(9, for_clickhouse=True))
        assert result.table.num_rows > 0

    def test_one_deadline_separates_q6_from_q9(self, tpch):
        # A scan-heavy query fits comfortably inside the budget Q9 blows.
        click = self.make_click(tpch, deadline_s=0.0004)
        result = click.execute(tpch_query(6, for_clickhouse=True))
        assert result.table.num_rows == 1
        with pytest.raises(DeadlineExceededError):
            click.execute(tpch_query(9, for_clickhouse=True))


class TestDistributedDeadline:
    @pytest.fixture(scope="class")
    def doris(self):
        db = MiniDoris(num_nodes=2, mode="doris")
        db.load_tables(generate_tpch(sf=0.01))
        return db

    def test_distributed_dnf(self, doris):
        with pytest.raises(DeadlineExceededError):
            doris.execute(tpch_query(6), deadline_s=1e-9)

    def test_distributed_generous_deadline_completes(self, doris):
        result = doris.execute(tpch_query(6), deadline_s=60.0)
        assert result.table.num_rows == 1

    def test_constructor_default_deadline(self):
        db = MiniDoris(num_nodes=2, mode="doris", deadline_s=1e-9)
        db.load_tables(generate_tpch(sf=0.01))
        with pytest.raises(DeadlineExceededError):
            db.execute(tpch_query(6))
