"""Regressions for the streaming expression path.

Two bug classes fixed alongside the fusion work:

* **bare-literal dtype threading** — the projection evaluator used to drop
  the projection's declared dtype when the expression was a bare
  ``Literal``, so a literal whose python value's natural dtype differed
  from the declared field dtype (e.g. ``Literal(1, FLOAT64)``)
  materialised a wrongly-typed column that disagreed with the plan
  schema.  A project stage now threads each output field's dtype through
  (``compile_stages``).
* **zero-row chunks** — batched execution can hand any operator or sink
  a chunk with no rows (a filter that kills a whole batch); every
  downstream consumer must pass it through without tripping.
"""

import numpy as np
import pytest

from repro.columnar import FLOAT64, INT64, Schema, Table
from repro.core import SiriusEngine
from repro.gpu.specs import GH200
from repro.hosts import CpuEngine
from repro.plan import PlanBuilder
from repro.plan.expressions import FieldRef, Literal
from repro.plan.relations import ProjectRel


@pytest.fixture
def engines():
    return (
        SiriusEngine.for_spec(GH200, memory_limit_gb=1.0),
        SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=True),
        CpuEngine(),
    )


SCHEMA = Schema([("k", "int64"), ("v", "float64")])


def small_catalog(n=10):
    return {
        "t": Table.from_pydict(
            {"k": list(range(n)), "v": [float(i) / 2 for i in range(n)]}, SCHEMA
        )
    }


class TestBareLiteralDtype:
    def test_explicitly_typed_literal_matches_declared_schema(self, engines):
        """A FLOAT64 literal holding a python int must come back float64
        on every engine (the old GPU path produced an int64 column that
        contradicted the plan schema)."""
        data = small_catalog()
        builder = PlanBuilder.read("t", SCHEMA)
        rel = ProjectRel(
            builder.relation, [FieldRef(0), Literal(1, FLOAT64)], ["k", "one"]
        )
        plan = PlanBuilder(rel).build()
        declared = plan.root.output_schema().fields[1].dtype
        assert declared is FLOAT64
        for engine in engines:
            result = engine.execute(plan, data)
            col = result["one"]
            assert result.schema.fields[1].dtype is FLOAT64
            assert np.asarray(col.data).dtype == np.float64, type(engine).__name__
            assert col.to_pylist() == [1.0] * 10

    def test_sql_literal_projection_through_parser_and_planner(self):
        """Full front-to-back: parse SQL with bare literal projections,
        plan, and execute on GPU (fused and unfused) and CPU — schemas
        and values must agree everywhere."""
        from repro.hosts import MiniDuck

        data = small_catalog()
        host = MiniDuck()
        host.load_tables(data)
        plan = host.plan("SELECT k, 2.5 AS half, 7 AS seven FROM t WHERE k < 3")
        declared = {f.name: f.dtype for f in plan.root.output_schema()}
        results = []
        for engine in (
            SiriusEngine.for_spec(GH200, memory_limit_gb=1.0),
            SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=True),
            CpuEngine(),
        ):
            result = engine.execute(plan, data)
            for f in result.schema:
                assert f.dtype is declared[f.name]
            results.append(
                sorted(tuple(row) for row in result.to_rows())
            )
        assert results[0] == results[1] == results[2]
        assert results[0][0] == (0, 2.5, 7)


class TestZeroRowChunks:
    @pytest.mark.parametrize("fusion", [False, True])
    def test_whole_batches_filtered_away(self, fusion):
        """batch_rows smaller than the table guarantees some batches
        filter to zero rows; group-by, global agg, join, and sort sinks
        must all absorb them."""
        n = 2000
        data = {
            "t": Table.from_pydict(
                {"k": list(range(n)), "v": [1.0] * n}, SCHEMA
            )
        }
        engine = SiriusEngine.for_spec(
            GH200, memory_limit_gb=1.0, batch_rows=300, fusion=fusion
        )
        cpu = CpuEngine()

        base = PlanBuilder.read("t", SCHEMA)
        from repro.plan import col, lit

        cases = [
            base.filter(col("k") < lit(5))
            .aggregate(groups=["k"], aggs=[("sum", "v", "s")])
            .sort([("k", True)])
            .build(),
            base.filter(col("k") < lit(0))
            .aggregate(groups=[], aggs=[("count", None, "n")])
            .build(),
            base.filter(col("k") < lit(0)).sort([("k", True)]).build(),
            base.filter(col("k") < lit(3))
            .join(PlanBuilder.read("t", SCHEMA).filter(col("k") < lit(0)), "left", [("k", "k")])
            .build(),
        ]
        for plan in cases:
            gpu_rows = sorted(map(tuple, engine.execute(plan, data).to_rows()))
            cpu_rows = sorted(map(tuple, cpu.execute(plan, data).to_rows()))
            assert gpu_rows == cpu_rows

    @pytest.mark.parametrize("fusion", [False, True])
    def test_empty_input_table(self, fusion):
        data = {"t": Table.empty(SCHEMA)}
        engine = SiriusEngine.for_spec(GH200, memory_limit_gb=1.0, fusion=fusion)
        from repro.plan import col, lit

        plan = (
            PlanBuilder.read("t", SCHEMA)
            .filter(col("k") > lit(0))
            .aggregate(groups=["k"], aggs=[("sum", "v", "s")])
            .build()
        )
        assert engine.execute(plan, data).num_rows == 0

    def test_mask_table_zero_rows(self):
        from repro.gpu import Device, GH200 as SPEC
        from repro.kernels import GTable, mask_table

        dev = Device(SPEC)
        empty = GTable.from_host(dev, Table.empty(SCHEMA))
        out = mask_table(empty, np.array([], dtype=bool))
        assert out.num_rows == 0
        assert out.schema == empty.schema

    def test_fused_op_zero_row_chunk(self):
        from repro.core.operators.fused import FusedOp
        from repro.core.operators.streaming import FilterOp, ProjectOp
        from repro.gpu import Device, GH200 as SPEC
        from repro.kernels import GTable
        from repro.plan.expressions import ScalarCall

        dev = Device(SPEC)

        class Ctx:
            device = dev
            out_of_core = False

        empty = GTable.from_host(dev, Table.empty(SCHEMA))
        cond = ScalarCall("lt", [FieldRef(0), Literal(10, INT64)])
        op = FusedOp(
            [
                FilterOp(cond, SCHEMA),
                ProjectOp(
                    [ScalarCall("multiply", [FieldRef(1), Literal(2.0, FLOAT64)])],
                    ["d"],
                    Schema([("d", "float64")]),
                ),
            ]
        )
        for fused_billing in (False, True):
            dev.fused_billing = fused_billing
            out = op.process(Ctx(), empty, {"slots": {}})
            assert out.num_rows == 0
            assert [f.name for f in out.schema] == ["d"]
