"""Property-based tests on the plan IR: random expression/plan round-trips."""

import copy
import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_plan
from repro.columnar import Schema
from repro.core import SiriusEngine
from repro.core.planner import compile_plan
from repro.fleet.digest import plan_digest
from repro.gpu.specs import GH200
from repro.plan import (
    FieldRef,
    Literal,
    Plan,
    PlanBuilder,
    ScalarCall,
    col,
    expr_from_dict,
    lit,
)
from repro.sched.estimator import estimate_plan
from tests.core.test_random_plans import plans, tables

SCHEMA = Schema([("a", "int64"), ("b", "float64"), ("c", "string"), ("d", "date")])

literals = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(-1e12, 1e12, allow_nan=False),
    st.text(max_size=10),
    st.booleans(),
    st.dates(datetime.date(1900, 1, 1), datetime.date(2100, 1, 1)),
)


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        if draw(st.booleans()):
            return FieldRef(draw(st.integers(0, 3)))
        return Literal(draw(literals))
    func = draw(
        st.sampled_from(["add", "subtract", "multiply", "eq", "lt", "and", "or"])
    )
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return ScalarCall(func, [left, right])


class TestExpressionRoundTrip:
    @settings(max_examples=150)
    @given(expressions())
    def test_dict_round_trip(self, expr):
        back = expr_from_dict(expr.to_dict())
        assert back.to_dict() == expr.to_dict()
        assert back == expr

    @settings(max_examples=80)
    @given(expressions())
    def test_json_round_trip_via_plan(self, expr):
        import json

        payload = json.dumps(expr.to_dict())
        assert expr_from_dict(json.loads(payload)) == expr


@st.composite
def simple_plans(draw):
    builder = PlanBuilder.read("t", SCHEMA)
    n_filters = draw(st.integers(0, 2))
    for _ in range(n_filters):
        column = draw(st.sampled_from(["a", "b"]))
        builder = builder.filter(col(column) > lit(draw(st.integers(-5, 5))))
    if draw(st.booleans()):
        builder = builder.aggregate(
            groups=["c"], aggs=[(draw(st.sampled_from(["sum", "min", "max"])), "b", "m")]
        )
    if draw(st.booleans()):
        schema = builder.schema()
        builder = builder.sort([(schema.names()[0], draw(st.booleans()))])
    if draw(st.booleans()):
        builder = builder.limit(draw(st.integers(0, 100)))
    return builder.build()


class TestPlanRoundTrip:
    @settings(max_examples=100)
    @given(simple_plans())
    def test_json_round_trip(self, plan):
        back = Plan.from_json(plan.to_json())
        assert back.to_dict() == plan.to_dict()
        back.validate()

    @settings(max_examples=60)
    @given(simple_plans())
    def test_output_schema_stable(self, plan):
        back = Plan.from_json(plan.to_json())
        assert back.output_schema() == plan.output_schema()

    @settings(max_examples=60)
    @given(simple_plans())
    def test_optimizer_keeps_schema(self, plan):
        from repro.sql.optimizer import optimize_plan

        optimized = optimize_plan(plan, {"t": 1000})
        assert optimized.output_schema() == plan.output_schema()


class TestPublishedPlansAreNotMutated:
    """What makes checking a plan once sound: no consumer changes a
    published tree (rewrites build new relations through
    ``with_inputs``), so a root that passed ``validate()`` still would."""

    @settings(max_examples=40, deadline=None)
    @given(data=tables(), plan=plans())
    def test_no_consumer_mutates_the_tree(self, data, plan):
        from repro.sql.optimizer import optimize_plan

        # Deep-copied: to_dict() may hand out the relation's own lists.
        before = copy.deepcopy(plan.to_dict())
        root = plan.root
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0)
        optimize_plan(plan, {name: t.num_rows for name, t in data.items()})
        estimate_plan(plan, data, engine.device, out_of_core=True, fusion=True)
        plan_digest(plan)
        analyze_plan(plan, data, engine.device)
        compile_plan(plan)
        engine.execute(plan, data)
        assert plan.root is root
        assert plan.to_dict() == before
