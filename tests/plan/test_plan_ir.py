"""Unit tests for the plan IR: expressions, relations, validation, JSON."""

import datetime
import json

import pytest

from repro.columnar import BOOL, DATE32, FLOAT64, INT64, Schema, STRING
from repro.plan import (
    AggregateCall,
    AggregateRel,
    FieldRef,
    FilterRel,
    JoinRel,
    Literal,
    Plan,
    PlanBuilder,
    PlanValidationError,
    ProjectRel,
    ReadRel,
    ScalarCall,
    SortRel,
    col,
    expr_from_dict,
    infer_type,
    lit,
)

SCHEMA = Schema(
    [("k", "int64"), ("price", "float64"), ("d", "date"), ("name", "string")]
)


class TestExpressionTyping:
    def test_field_ref(self):
        assert infer_type(FieldRef(1), SCHEMA) is FLOAT64

    def test_literal_types(self):
        assert Literal(3).dtype is INT64
        assert Literal(3.5).dtype is FLOAT64
        assert Literal("x").dtype is STRING
        assert Literal(datetime.date(1995, 1, 1)).dtype is DATE32
        assert Literal(True).dtype is BOOL

    def test_comparison_is_boolean(self):
        e = ScalarCall("le", [FieldRef(1), Literal(5.0)])
        assert infer_type(e, SCHEMA) is BOOL

    def test_arith_promotes(self):
        e = ScalarCall("add", [FieldRef(0), Literal(1.0)])
        assert infer_type(e, SCHEMA) is FLOAT64

    def test_divide_always_float(self):
        e = ScalarCall("divide", [FieldRef(0), Literal(2)])
        assert infer_type(e, SCHEMA) is FLOAT64

    def test_date_arithmetic(self):
        e = ScalarCall("subtract", [FieldRef(2), Literal(90)])
        assert infer_type(e, SCHEMA) is DATE32

    def test_aggregate_types(self):
        assert infer_type(AggregateCall("count_star", None), SCHEMA) is INT64
        assert infer_type(AggregateCall("avg", FieldRef(0)), SCHEMA) is FLOAT64
        assert infer_type(AggregateCall("sum", FieldRef(0)), SCHEMA) is INT64
        assert infer_type(AggregateCall("sum", FieldRef(1)), SCHEMA) is FLOAT64
        assert infer_type(AggregateCall("min", FieldRef(3)), SCHEMA) is STRING

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            ScalarCall("sqrt", [FieldRef(0)])

    def test_out_of_range_field(self):
        with pytest.raises(IndexError):
            infer_type(FieldRef(99), SCHEMA)


class TestRelationSchemas:
    def test_read_projection(self):
        r = ReadRel("t", SCHEMA, projection=["name", "k"])
        assert r.output_schema().names() == ["name", "k"]

    def test_read_unknown_projection_rejected(self):
        with pytest.raises(KeyError):
            ReadRel("t", SCHEMA, projection=["ghost"])

    def test_join_schema_concatenates(self):
        left = ReadRel("a", Schema([("x", "int64")]))
        right = ReadRel("b", Schema([("y", "int64")]))
        j = JoinRel(left, right, "inner", [0], [0])
        assert j.output_schema().names() == ["x", "y"]

    def test_semi_join_keeps_left_only(self):
        left = ReadRel("a", Schema([("x", "int64")]))
        right = ReadRel("b", Schema([("y", "int64")]))
        j = JoinRel(left, right, "semi", [0], [0])
        assert j.output_schema().names() == ["x"]

    def test_aggregate_schema(self):
        read = ReadRel("t", SCHEMA)
        agg = AggregateRel(read, [3], [(AggregateCall("sum", FieldRef(1)), "total")])
        out = agg.output_schema()
        assert out.names() == ["name", "total"]
        assert out.field("total").dtype is FLOAT64


class TestValidation:
    def test_valid_plan_passes(self):
        plan = (
            PlanBuilder.read("t", SCHEMA)
            .filter(col("price") > lit(10.0))
            .aggregate(groups=["name"], aggs=[("sum", "price", "total")])
            .build()
        )
        assert plan.output_schema().names() == ["name", "total"]

    def test_non_boolean_filter_rejected(self):
        rel = FilterRel(ReadRel("t", SCHEMA), FieldRef(1))
        with pytest.raises(PlanValidationError, match="not boolean"):
            Plan(rel).validate()

    def test_field_out_of_range_rejected(self):
        rel = FilterRel(ReadRel("t", SCHEMA), ScalarCall("eq", [FieldRef(9), Literal(1)]))
        with pytest.raises(PlanValidationError, match="out of range"):
            Plan(rel).validate()

    def test_join_type_mismatch_rejected(self):
        left = ReadRel("a", Schema([("x", "string")]))
        right = ReadRel("b", Schema([("y", "int64")]))
        rel = JoinRel(left, right, "inner", [0], [0])
        with pytest.raises(PlanValidationError, match="type mismatch"):
            Plan(rel).validate()

    def test_duplicate_project_names_rejected(self):
        rel = ProjectRel(ReadRel("t", SCHEMA), [FieldRef(0), FieldRef(1)], ["a", "a"])
        with pytest.raises(PlanValidationError, match="duplicate"):
            Plan(rel).validate()

    @pytest.mark.parametrize(
        "call, message",
        [
            (ScalarCall("like", [FieldRef(3)]), "like takes 2 arguments, got 1"),
            (ScalarCall("between", [FieldRef(0), Literal(1)]), "between takes 3 arguments, got 2"),
            (ScalarCall("substring", [FieldRef(3)]), "substring takes 3 arguments, got 1"),
            (ScalarCall("round", [FieldRef(1), Literal(1), Literal(2)]),
             "round takes 1 to 2 arguments, got 3"),
            (ScalarCall("coalesce", []), "coalesce takes at least 1 argument, got 0"),
            (ScalarCall("case", [ScalarCall("gt", [FieldRef(0), Literal(1)]), Literal(1)]),
             "case takes an odd number of arguments, got 2"),
        ],
    )
    def test_call_arity_rejected(self, call, message):
        with pytest.raises(TypeError, match=message):
            infer_type(call, SCHEMA)
        # Wherever the call sits in the tree, validation names it.
        nested = ScalarCall("eq", [ScalarCall("is_null", [call]), Literal(False)])
        for condition in (call, nested):
            with pytest.raises(PlanValidationError, match=message):
                Plan(FilterRel(ReadRel("t", SCHEMA), condition)).validate()


class TestValidatedOnce:
    """``validate()`` remembers success for the root it checked — and
    nothing else."""

    def test_a_valid_plan_is_walked_once(self, root_walks):
        plan = Plan(FilterRel(ReadRel("t", SCHEMA), ScalarCall("gt", [FieldRef(1), Literal(1.0)])))
        plan.validate()
        plan.validate()
        assert root_walks == [plan.root]

    def test_failure_is_not_remembered(self, root_walks):
        plan = Plan(FilterRel(ReadRel("t", SCHEMA), FieldRef(1)))
        for _ in range(2):
            with pytest.raises(PlanValidationError, match="not boolean"):
                plan.validate()
        assert len(root_walks) == 2

    def test_a_new_root_is_checked_again(self, root_walks):
        plan = Plan(ReadRel("t", SCHEMA))
        plan.validate()
        plan.root = SortRel(plan.root, [(0, True)])
        plan.validate()
        assert len(root_walks) == 2
        plan.root = SortRel(plan.root, [(-1, True)])
        with pytest.raises(PlanValidationError, match="ordinal"):
            plan.validate()


class TestSchemaDerivedOnce:
    """Relations are never mutated after construction, so each derives its
    output schema once; the memo must equal a fresh derivation everywhere."""

    def test_tpch_and_battery_plans(self):
        from repro.bench.baselines import battery_cases
        from repro.bench.baselines.battery import SCALE_FACTOR
        from repro.hosts import MiniDuck
        from repro.plan.plan import walk_relations
        from repro.tpch import generate_tpch, tpch_query

        host = MiniDuck()
        host.load_tables(generate_tpch(SCALE_FACTOR))
        sqls = [tpch_query(n) for n in range(1, 23)] + [c.sql for c in battery_cases()]
        nodes = 0
        for sql in sqls:
            plan = host.plan(sql)
            plan.output_schema()  # memoizes the root, and through it every input
            for rel in walk_relations(plan.root):
                memo = rel.output_schema()
                assert memo is rel.output_schema()
                assert memo == rel._derive_schema(), sql
                nodes += 1
        assert nodes > len(sqls)


class TestSerialization:
    def make_plan(self):
        return (
            PlanBuilder.read("t", SCHEMA)
            .filter((col("d") <= lit(datetime.date(1998, 9, 2))) & (col("name").like("A%")))
            .project([(col("price") * lit(0.9), "discounted"), ("name", "name")])
            .aggregate(groups=["name"], aggs=[("sum", "discounted", "total"), ("count", None, "n")])
            .sort([("total", False)])
            .limit(5)
            .build()
        )

    def test_json_round_trip(self):
        plan = self.make_plan()
        back = Plan.from_json(plan.to_json())
        assert back.to_dict() == plan.to_dict()
        back.validate()

    def test_round_trip_preserves_schema(self):
        plan = self.make_plan()
        back = Plan.from_json(plan.to_json())
        assert back.output_schema() == plan.output_schema()

    def test_exchange_node_is_rejected(self):
        # Distributed plans state their exchanges on fragments, never as
        # a relation in the tree.
        payload = Plan(ReadRel("t", SCHEMA)).to_dict()
        payload["root"] = {
            "rel": "exchange", "input": payload["root"], "kind": "broadcast", "keys": [],
        }
        with pytest.raises(ValueError, match="unknown relation kind 'exchange'"):
            Plan.from_json(json.dumps(payload))

    def test_date_literals_survive_json(self):
        e = Literal(datetime.date(1995, 3, 15))
        back = expr_from_dict(e.to_dict())
        assert back.value == datetime.date(1995, 3, 15)

    def test_explain_renders_tree(self):
        text = self.make_plan().explain()
        assert "Read(t)" in text and "Aggregate" in text


class TestBuilderSugar:
    def test_operator_overloads(self):
        expr = (col("k") + lit(1)) * lit(2) >= lit(10)
        resolved = expr.resolve(SCHEMA)
        assert infer_type(resolved, SCHEMA) is BOOL

    def test_between_and_isin(self):
        plan = (
            PlanBuilder.read("t", SCHEMA)
            .filter(col("price").between(1.0, 9.0) & col("name").isin(["a", "b"]))
            .build()
        )
        plan.validate()
