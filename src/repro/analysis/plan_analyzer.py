"""Front 1: static dataflow analysis over the plan IR.

The structural pass itself — schemas propagated defensively through every
relation, every expression type-checked, GPU supportability decided
statically — lives once, in
:mod:`repro.plan.check`.  :meth:`repro.plan.Plan.validate` runs it and
raises on the *first* error; the analyzer runs the same pass and keeps
going, collecting every finding into one
:class:`~repro.analysis.report.AnalysisReport`, then adds what is its
own: the plan fingerprint, the estimator's processing-pool working set
per pipeline breaker, and the predicted degradation tier.

Admission control consumes the report *before* the query touches the
device (the Theseus-style front-loaded feasibility check): an ``error``
finding means the plan cannot execute and should be rejected; a
``gpu-unsupported`` warning means the query will need the ``cpu-plan``
fallback tier; a working set beyond the pool predicts the
``gpu-retry-spill`` tier.

Rule catalog (each rule has passing and failing fixtures in
``tests/analysis``):

======  =========  ===========================================================
rule    severity   meaning
======  =========  ===========================================================
PA01    error      read references a table absent from the catalog
PA02    error      ordinal not an int in [0, arity) (field ref, group, sort,
                   join key)
PA03    error      expression fails type inference
PA04    error      filter / pushed filter / join post-filter is not boolean
PA05    error      aggregate misuse: non-aggregate measure, aggregate call in
                   a scalar position, nested aggregates, duplicate output
                   names
PA06    error      join keys incompatible, or key-less non-inner join
PA08    warning    construct unsupported on the GPU (non-literal LIKE
                   pattern / IN list / substring bounds, ...): query will
                   need the cpu-plan fallback tier
PA09    warning    static working set exceeds the device processing pool:
                   query will need the gpu-retry-spill tier
PA10    error      fetch offset / count negative
======  =========  ===========================================================
"""

from __future__ import annotations

from typing import Mapping

from ..columnar import Table
from ..plan import Plan
from ..plan.check import PlanChecker
from .report import (
    SEVERITY_WARNING,
    TIER_CPU_PLAN,
    TIER_GPU,
    TIER_GPU_SPILL,
    TIER_REJECT,
    TIER_SPILL,
    AnalysisReport,
    Finding,
)

__all__ = ["analyze_plan", "PLAN_RULES"]

# rule id -> short description, for ``python -m repro.analysis rules``.
PLAN_RULES = {
    "PA01": "read references a table absent from the catalog",
    "PA02": "ordinal out of range (field/group/sort/join key)",
    "PA03": "expression fails type inference",
    "PA04": "predicate position holds a non-boolean expression",
    "PA05": "aggregate misuse (measure shape, scalar position, duplicates)",
    "PA06": "join keys incompatible, or key-less non-inner join",
    "PA08": "construct unsupported on the GPU (needs cpu-plan fallback)",
    "PA09": "static working set exceeds the processing pool (needs spill)",
    "PA10": "fetch offset/count negative",
}


def analyze_plan(
    plan: Plan,
    catalog: Mapping[str, Table] | None = None,
    device=None,
    out_of_core: bool = False,
) -> AnalysisReport:
    """Statically analyze ``plan``; never raises on plan defects.

    Args:
        plan: The logical plan to analyze.
        catalog: Host tables by name; enables unknown-table checks and the
            working-set / cardinality estimate.  Exchange temp tables
            (``__ex*``) are treated as known-but-unsized.
        device: A :class:`~repro.gpu.device.Device`; enables the service
            estimate and the pool-capacity (spill-tier) check.
        out_of_core: The engine that will run the plan supports partitioned
            out-of-core execution: an over-pool working set is then a
            priced ``gpu-spill`` verdict (the query completes on the GPU
            through the tiered spill store) instead of a prediction of the
            batched ``gpu-retry-spill`` tier.
    """
    from ..core.fallback import plan_fingerprint  # lazy: core imports us back

    report = AnalysisReport(plan_fingerprint=plan_fingerprint(plan))

    def flag(rule: str, severity: str, message: str, site: str) -> None:
        report.findings.append(Finding(rule, severity, message, site))

    schema = PlanChecker(flag, catalog).visit(plan.root, "root")
    if schema is not None:
        report.output_schema = [(f.name, f.dtype.name) for f in schema]

    if report.ok and catalog is not None and device is not None:
        # The numbers admission control gates on, totals and per-pipeline-
        # breaker breakdown alike: one estimator prices both.
        from ..sched.estimator import estimate_plan  # lazy: sched imports us back

        est = estimate_plan(plan, catalog, device, out_of_core=out_of_core)
        report.working_set_bytes = est.working_set_bytes
        report.estimated_rows = est.rows
        report.estimated_service_s = est.service_s
        report.pipeline_working_sets = [
            {"site": site, "kind": kind, "bytes": nbytes}
            for site, kind, nbytes in est.working_sets
        ]

    report.gpu_supported = not any(f.rule == "PA08" for f in report.findings)
    if not report.ok:
        report.suggested_tier = TIER_REJECT
    elif not report.gpu_supported:
        report.suggested_tier = TIER_CPU_PLAN
    elif (
        report.working_set_bytes is not None
        and device is not None
        and report.working_set_bytes > device.processing_pool.capacity
    ):
        report.findings.append(
            Finding(
                "PA09",
                SEVERITY_WARNING,
                f"static working set {report.working_set_bytes} B exceeds the "
                f"processing pool ({device.processing_pool.capacity} B); the "
                "query is predicted to need out-of-core execution",
                "root",
            )
        )
        report.suggested_tier = TIER_GPU_SPILL if out_of_core else TIER_SPILL
    else:
        report.suggested_tier = TIER_GPU
    return report
