"""The stages of a region: filter and project.

Neither is an operator a pipeline runs.  The compiler gathers each run of
them into a region — one :class:`~.fused.FusedOp`, or a region of a
:class:`~.join.HashJoinProbe`: the input region of the probe a run that
opens a pipeline feeds, the output region of the probe a run follows — and
:func:`~.fused.compile_stages` lowers them to the program that region
runs.  Each declares the Figure-5 ``category`` its kernels are billed to
under per-part billing.
"""

from __future__ import annotations

from ...columnar import Schema
from .base import Category

__all__ = ["FilterOp", "ProjectOp"]


class FilterOp:
    """Row selection: evaluate the predicate, compact survivors."""

    category = Category.FILTER

    def __init__(self, condition, input_schema: Schema):
        self.condition = condition
        self.input_schema = input_schema

    def output_schema(self) -> Schema:
        return self.input_schema

    def describe(self) -> str:
        return f"Filter({self.condition!r})"


class ProjectOp:
    """Compute named expressions over a chunk."""

    category = Category.OTHER

    def __init__(self, expressions, names, output_schema: Schema):
        self.expressions = list(expressions)
        self.names = list(names)
        self._schema = output_schema

    def output_schema(self) -> Schema:
        return self._schema

    def describe(self) -> str:
        return f"Project({self.names})"
