"""One-shot expression evaluation outside compiled stages.

A probe's residual ``post_filter`` and an aggregate's measure arguments
evaluate a plan :class:`~repro.plan.Expression` against one chunk at a
time: each entry point here compiles the expression with
:mod:`repro.core.expr_compile` (the engine's only evaluator) and calls
the closure once, without a CSE cache — a repeated subtree launches its
kernels every time it occurs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..kernels import GColumn, GTable
from ..plan import Expression
from .expr_compile import compile_expression, keep_mask, materialise

__all__ = ["evaluate", "evaluate_to_column", "evaluate_predicate"]


def evaluate(expr: Expression, table: GTable) -> "GColumn | Any":
    """Evaluate ``expr`` over ``table``; returns a GColumn or a scalar."""
    return compile_expression(expr)(table, None)


def evaluate_to_column(expr: Expression, table: GTable, dtype=None) -> GColumn:
    """Like :func:`evaluate` but materialises a bare literal as a column
    of ``dtype``, the planner-typed output type of the expression's slot."""
    return materialise(evaluate(expr, table), table, dtype)


def evaluate_predicate(expr: Expression, table: GTable) -> np.ndarray:
    """Evaluate a boolean expression to a keep-mask (NULL -> False)."""
    return keep_mask(evaluate(expr, table), table)
