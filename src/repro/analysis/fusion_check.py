"""Front 1b: verification of *fused* physical plans.

:func:`repro.core.planner.fuse_operators` rewrites pipeline operator
lists, collapsing streaming runs into :class:`FusedOp` regions.  Any
rewrite pass is a place where a planner bug can silently change query
semantics, and every plan goes through it, so the fused form gets its
own verifier: :func:`verify_fused_plan` re-checks every pipeline of a
compiled :class:`~repro.core.planner.PhysicalPlan` and returns
:class:`~repro.analysis.report.Finding` objects in the same vocabulary
the plan analyzer and the lint front use.  The equivalence gate in
``tests/core/test_fusion_equivalence.py`` requires zero findings on
every TPC-H and battery plan.

:class:`FusedOp` itself refuses an empty run or a non-streaming stage
(``ValueError`` / ``TypeError`` at construction, and RR04 forbids
changing it afterwards), and its output schema *is* its last stage's,
so the verifier checks only what construction does not.  A
:class:`HashJoinProbe` carries the Filter/Project run it absorbed as its
``stages`` and is checked the same way:

======  =========  ===========================================================
rule    severity   meaning
======  =========  ===========================================================
FC02    error      stage schemas do not chain (a stage's declared input
                   arity disagrees with its predecessor's output; a probe's
                   first absorbed stage chains from the probe's join schema)
FC03    error      fusible work survives unfused in a pipeline: two
                   adjacent unfused Filter/Project operators, or a
                   ``FusedOp`` / Filter / Project directly after a
                   ``HashJoinProbe`` that could have absorbed it
======  =========  ===========================================================
"""

from __future__ import annotations

from ..core.expr_compile import UnsupportedExpressionError
from ..core.operators.fused import FusedOp
from ..core.operators.join import HashJoinProbe
from ..core.operators.streaming import FilterOp, ProjectOp
from ..core.planner import PhysicalPlan, Pipeline
from .report import SEVERITY_ERROR, Finding

__all__ = ["FUSION_RULES", "verify_fused_plan"]

FUSION_RULES = {
    "FC02": "fused stage schemas do not chain",
    "FC03": "fusible work left unfused in a pipeline",
}


def verify_fused_plan(physical: PhysicalPlan) -> list[Finding]:
    """Statically verify a compiled physical plan's fused regions; returns
    findings (empty list = the plan is structurally sound)."""
    findings: list[Finding] = []
    for pipeline in physical.pipelines:
        _check_pipeline(pipeline, findings)
    return findings


def _check_pipeline(pipeline: Pipeline, findings: list[Finding]) -> None:
    site = f"P{pipeline.pid}"
    ops = pipeline.operators

    # FC03: the pass promises *maximal* regions — two adjacent plain
    # streaming operators, or a run left behind a probe that could have
    # absorbed it, mean fusible work survived unfused.  (A single unfused
    # Filter/Project is legal: expression-compile fallback keeps whole
    # runs in interpreted form.)
    for prev, op in zip(ops, ops[1:]):
        prev_plain = type(prev) in (FilterOp, ProjectOp)
        op_plain = type(op) in (FilterOp, ProjectOp)
        if prev_plain and op_plain and not _fallback_run(prev, op):
            findings.append(
                Finding(
                    "FC03",
                    SEVERITY_ERROR,
                    f"adjacent unfused {prev.describe()} and {op.describe()}",
                    site,
                )
            )
        elif isinstance(prev, HashJoinProbe) and (op_plain or isinstance(op, FusedOp)):
            stages = op.stages if isinstance(op, FusedOp) else [op]
            if _absorbable(prev, stages):
                findings.append(
                    Finding(
                        "FC03",
                        SEVERITY_ERROR,
                        f"{op.describe()} left unfused after {prev.describe()}",
                        site,
                    )
                )

    for pos, op in enumerate(ops):
        if isinstance(op, FusedOp):
            _check_stages(op.stages, None, f"{site}[{pos}]", findings)
        elif isinstance(op, HashJoinProbe):
            _check_stages(op.stages, op.join_schema(), f"{site}[{pos}]", findings)


def _check_stages(stages, prev_schema, site: str, findings: list[Finding]) -> None:
    # FC02: schemas must chain — a filter passes its input schema through;
    # a project starts a new one.  Compare arities at each boundary where
    # the stage declares its input; ``prev_schema`` is what feeds the
    # first stage, when the region knows it.
    for idx, stage in enumerate(stages):
        if isinstance(stage, FilterOp):
            declared = stage.input_schema
            if prev_schema is not None and declared.dtypes() != prev_schema.dtypes():
                findings.append(
                    Finding(
                        "FC02",
                        SEVERITY_ERROR,
                        f"stage {idx} declares input {declared.dtypes()} but "
                        f"predecessor produces {prev_schema.dtypes()}",
                        f"{site}.stage{idx}",
                    )
                )
        prev_schema = stage.output_schema()


def _fallback_run(*ops) -> bool:
    """True when an unfused streaming run is the expression-compile
    fallback (one of its expressions cannot be lowered) — FusedOp's own
    constructor is the oracle."""
    try:
        FusedOp(list(ops))
    except UnsupportedExpressionError:
        return True
    return False


def _absorbable(probe: HashJoinProbe, stages) -> bool:
    """True when ``probe`` could have run ``stages`` in its own output
    region — the probe's constructor is the oracle."""
    try:
        probe.fused(probe.stages + list(stages))
    except UnsupportedExpressionError:
        return False
    return True
