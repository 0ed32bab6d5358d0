"""Tests for graceful fallback and the operator-implementation registry."""

import pytest

from repro.columnar import Schema, Table
from repro.core import SiriusEngine
from repro.core.operators.base import OperatorRegistry
from repro.gpu.specs import A100_40G
from repro.hosts import CpuEngine
from repro.hosts.cpu_engine import CpuEvalError
from repro.plan import Plan, PlanBuilder, col, lit
from repro.plan.expressions import AggregateCall, FieldRef, Literal, ScalarCall
from repro.plan.relations import AggregateRel, FilterRel, JoinRel, ProjectRel, ReadRel

SCHEMA = Schema([("k", "int64"), ("v", "float64")])


def _kept():
    return FilterRel(ReadRel("t", SCHEMA), ScalarCall("gt", [FieldRef(1), Literal(10.0)]))


# round's digits must be a literal to lower: over the filtered table, and
# over a join's (k, v, k, v) output.
_ROUNDED = ScalarCall("round", [FieldRef(1), FieldRef(0)])
_RESIDUAL = ScalarCall("gt", [ScalarCall("round", [FieldRef(1), FieldRef(2)]), Literal(0.0)])

# Plans whose one unlowerable expression sits in each place an operator
# compiles one.
UNLOWERABLE = {
    "project": lambda: Plan(ProjectRel(_kept(), [_ROUNDED], ["r"])),
    "global-aggregate": lambda: Plan(
        AggregateRel(_kept(), [], [(AggregateCall("sum", _ROUNDED), "s")])
    ),
    "grouped-aggregate": lambda: Plan(
        AggregateRel(_kept(), [0], [(AggregateCall("sum", _ROUNDED), "s")])
    ),
    "inner-join-residual": lambda: Plan(
        JoinRel(_kept(), ReadRel("t", SCHEMA), "inner", [0], [0], _RESIDUAL)
    ),
    "semi-join-residual": lambda: Plan(
        JoinRel(_kept(), ReadRel("t", SCHEMA), "semi", [0], [0], _RESIDUAL)
    ),
}


@pytest.fixture
def data():
    return {
        "t": Table.from_pydict(
            {"k": list(range(2000)), "v": [float(i) for i in range(2000)]}, SCHEMA
        )
    }


class TestFallback:
    def test_oom_falls_back_to_host(self, data):
        engine = SiriusEngine.for_spec(
            A100_40G,
            memory_limit_gb=0.00003,  # ~30 KB: cannot hold the table
        )
        engine.set_host_executor(CpuEngine().execute)
        plan = PlanBuilder.read("t", SCHEMA).filter(col("v") > lit(10.0)).build()
        out = engine.execute(plan, data)
        assert out.num_rows == 1989
        assert engine.fallback.fallback_count == 1
        assert engine.fallback.events[0].exception_type == "OutOfDeviceMemory"

    def test_missing_table_falls_back(self, data):
        calls = []

        def host(plan, _catalog):
            calls.append(plan)
            return CpuEngine().execute(plan, data)

        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        engine.set_host_executor(host)
        plan = PlanBuilder.read("t", SCHEMA).build()
        engine.execute(plan, {})  # table absent on the GPU path
        assert len(calls) == 1

    def test_no_host_executor_reraises(self, data):
        engine = SiriusEngine.for_spec(
            A100_40G, memory_limit_gb=0.00003
        )
        plan = PlanBuilder.read("t", SCHEMA).build()
        with pytest.raises(Exception):
            engine.execute(plan, data)
        assert engine.fallback.fallback_count == 1  # event recorded anyway

    @pytest.mark.parametrize("case", sorted(UNLOWERABLE))
    def test_a_run_the_compiler_rejects_falls_back_when_it_runs(self, data, case):
        """A plan holding an expression the device cannot lower — in a
        Filter/Project run, an aggregate measure or a join residual —
        fails to compile: nothing launches on the GPU, and the host tier
        answers."""
        from repro.core import UnsupportedExpressionError

        calls = []

        def host(plan, _catalog):
            calls.append(plan)
            return Table.empty(plan.root.output_schema())

        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        engine.set_host_executor(host)
        plan = UNLOWERABLE[case]()
        with pytest.raises(UnsupportedExpressionError):
            engine.explain_physical(plan)
        engine.execute(plan, data)
        assert calls == [plan]
        assert len(engine.fallback.events) == 1
        assert engine.fallback.events[0].exception_type == "UnsupportedExpressionError"
        assert engine.device.kernel_count == 0  # refused before anything launched

    def test_a_host_tier_error_still_records_its_event(self, data):
        """The host engine needs the same literal arguments the device
        does: its own error propagates, and the degraded query still logs
        exactly one event, as ``raise``."""
        engine = SiriusEngine.for_spec(A100_40G)
        engine.set_host_executor(CpuEngine().execute)
        with pytest.raises(CpuEvalError):
            engine.execute(UNLOWERABLE["global-aggregate"](), data)
        (event,) = engine.fallback.events
        assert event.tiers_attempted == ("cpu-plan",)
        assert event.exception_type == "UnsupportedExpressionError"
        assert event.tier == "raise"

    def test_profile_cleared_after_fallback(self, data):
        engine = SiriusEngine.for_spec(
            A100_40G,
            memory_limit_gb=0.00003,
        )
        engine.set_host_executor(CpuEngine().execute)
        plan = PlanBuilder.read("t", SCHEMA).build()
        engine.execute(plan, data)
        assert engine.last_profile is None  # GPU profile would be misleading


class TestRegistry:
    def test_register_and_use(self):
        reg = OperatorRegistry()
        reg.register("join", "a", object(), make_active=True)
        reg.register("join", "b", object())
        assert reg.active_implementations()["join"] == "a"
        reg.use("join", "b")
        assert reg.active_implementations()["join"] == "b"

    def test_unknown_impl_rejected(self):
        reg = OperatorRegistry()
        reg.register("join", "a", object())
        with pytest.raises(KeyError):
            reg.use("join", "missing")

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            OperatorRegistry().get("teleport")

    def test_available_lists_all(self):
        reg = OperatorRegistry()
        reg.register("groupby", "x", object())
        reg.register("groupby", "y", object())
        assert sorted(reg.available("groupby")) == ["x", "y"]

    def test_engine_swap_changes_results_not_values(self, data):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        other = PlanBuilder.read("t", SCHEMA)
        plan = (
            PlanBuilder.read("t", SCHEMA)
            .join(other, "inner", [("k", "k")])
            .aggregate(groups=[], aggs=[("count", None, "n")])
            .build()
        )
        baseline = engine.execute(plan, data).to_pydict()
        engine.use_implementation("join", "custom")
        assert engine.execute(plan, data).to_pydict() == baseline

    def test_filtered_semi_join_runs_the_registered_join(self, data, monkeypatch):
        """A semi join with a residual predicate (Q21's shape) runs an inner
        join under the hood; the custom implementation must run it too."""
        other = Schema([("k2", "int64"), ("w", "float64")])
        data = dict(
            data,
            u=Table.from_pydict(
                {"k2": [i % 500 for i in range(1500)], "w": [float(i % 7) for i in range(1500)]},
                other,
            ),
        )
        # The residual reads both sides: v > w over the (k, v, k2, w) pairs.
        residual = ScalarCall("gt", [FieldRef(1), FieldRef(3)])
        plan = Plan(
            JoinRel(ReadRel("t", SCHEMA), ReadRel("u", other), "semi", [0], [0], residual)
        )
        rows = {}
        for impl in ("libcudf", "custom"):
            engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
            engine.use_implementation("join", impl)
            kinds = []
            charge = engine.device._charge_launch

            def recording(kclass, cost, kinds=kinds, charge=charge):
                kinds.append(kclass)
                return charge(kclass, cost)

            monkeypatch.setattr(engine.device, "_charge_launch", recording)
            rows[impl] = engine.execute(plan, data).to_pydict()
            if impl == "custom":
                # Two sort passes for the semi join, two for its inner join.
                assert kinds.count("sort") == 4
                assert "hash_build" not in kinds and "hash_probe" not in kinds
        assert rows["custom"] == rows["libcudf"]
        assert 0 < len(rows["custom"]["k"]) < 500

    def test_engine_rejects_unknown_impl(self, data):
        engine = SiriusEngine.for_spec(A100_40G, memory_limit_gb=1.0)
        with pytest.raises(KeyError):
            engine.use_implementation("join", "fpga")
