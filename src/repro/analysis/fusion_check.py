"""Front 1b: verification of *fused* physical plans.

:func:`repro.core.planner.fuse_operators` rewrites pipeline operator
lists, collapsing streaming runs into :class:`FusedOp` regions.  Any
rewrite pass is a place where a planner bug can silently change query
semantics, so the fused form gets its own verifier:
:func:`verify_fused_plan` re-checks every pipeline of a compiled
:class:`~repro.core.planner.PhysicalPlan` and returns
:class:`~repro.analysis.report.Finding` objects in the same vocabulary
the plan analyzer and the lint front use.  The equivalence gate in
``tests/core/test_fusion_equivalence.py`` requires zero findings on
every fused TPC-H plan.

Rule catalog:

======  =========  ===========================================================
rule    severity   meaning
======  =========  ===========================================================
FC01    error      a FusedOp contains a non-streaming stage (anything but
                   Filter/Project), or is empty
FC02    error      stage schemas do not chain (a stage's declared input
                   arity disagrees with its predecessor's output)
FC03    error      two adjacent unfused Filter/Project operators survive in
                   a fused pipeline (the pass missed a fusible run)
FC05    error      flattening every FusedOp back to its stages does not
                   reproduce a schema-equivalent operator chain
======  =========  ===========================================================
"""

from __future__ import annotations

from ..core.operators.fused import FusedOp
from ..core.operators.streaming import FilterOp, ProjectOp
from ..core.planner import PhysicalPlan, Pipeline
from .report import SEVERITY_ERROR, Finding

__all__ = ["FUSION_RULES", "verify_fused_plan"]

FUSION_RULES = {
    "FC01": "FusedOp contains a non-streaming stage or is empty",
    "FC02": "fused stage schemas do not chain",
    "FC03": "adjacent unfused Filter/Project operators in a fused pipeline",
    "FC05": "flattened fused chain is not schema-equivalent",
}


def verify_fused_plan(physical: PhysicalPlan) -> list[Finding]:
    """Statically verify a fusion-compiled physical plan; returns findings
    (empty list = the fused plan is structurally sound)."""
    findings: list[Finding] = []
    for pipeline in physical.pipelines:
        _check_pipeline(pipeline, findings)
    return findings


def _check_pipeline(pipeline: Pipeline, findings: list[Finding]) -> None:
    site = f"P{pipeline.pid}"
    ops = pipeline.operators

    # FC03: the pass promises *maximal* runs — two adjacent plain
    # streaming operators mean a fusible pair survived unfused.  (A single
    # unfused Filter/Project is legal: expression-compile fallback keeps
    # whole runs in interpreted form.)
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

    for pos, op in enumerate(ops):
        if isinstance(op, FusedOp):
            _check_fused_op(op, f"{site}[{pos}]", findings)

    # FC05: expanding fused regions must yield a chain whose end schema
    # matches the fused chain's declared output.
    flat = []
    for op in ops:
        flat.extend(op.stages if isinstance(op, FusedOp) else [op])
    if ops and flat:
        try:
            fused_out = ops[-1].output_schema()
            flat_out = flat[-1].output_schema()
        except Exception as exc:  # schema derivation itself broke
            findings.append(
                Finding("FC05", SEVERITY_ERROR, f"schema derivation failed: {exc}", site)
            )
            return
        if fused_out.dtypes() != flat_out.dtypes():
            findings.append(
                Finding(
                    "FC05",
                    SEVERITY_ERROR,
                    f"fused output schema {fused_out.dtypes()} != flattened "
                    f"{flat_out.dtypes()}",
                    site,
                )
            )


def _check_fused_op(op: FusedOp, site: str, findings: list[Finding]) -> None:
    if not op.stages:
        findings.append(Finding("FC01", SEVERITY_ERROR, "empty FusedOp", site))
        return
    for stage in op.stages:
        if not isinstance(stage, (FilterOp, ProjectOp)):
            findings.append(
                Finding(
                    "FC01",
                    SEVERITY_ERROR,
                    f"non-streaming stage {type(stage).__name__} inside FusedOp",
                    site,
                )
            )
            return
    # FC02: schemas must chain — a filter passes its input schema through;
    # a project starts a new one.  Compare arities at each boundary where
    # the stage declares its input.
    prev_schema = None
    for idx, stage in enumerate(op.stages):
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
    from ..core.expr_compile import UnsupportedExpressionError

    try:
        FusedOp(list(ops))
    except UnsupportedExpressionError:
        return True
    return False

