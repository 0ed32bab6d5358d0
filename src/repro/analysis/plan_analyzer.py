"""Front 1: static dataflow analysis over the plan IR.

The structural pass itself — schemas propagated defensively through every
relation, every expression type-checked — lives once, in
:mod:`repro.plan.check`.  :meth:`repro.plan.Plan.validate` runs it and
raises on the *first* error; the analyzer runs the same pass and keeps
going, collecting every finding into one
:class:`~repro.analysis.report.AnalysisReport`, then adds what is its
own: the plan fingerprint, the estimator's processing-pool working set
per pipeline breaker, and the predicted degradation tier.  Every verdict
it cannot make itself it reads from the code that makes it at run time:
GPU support from the expression compiler
(:func:`repro.core.expr_compile.compile_expression`), tier names from the
degradation ladder (:mod:`repro.core.fallback`).

The report is the front-loaded feasibility check (the Theseus idea) for
callers that want one before the query touches the device — ``python -m
repro analyze`` and ``python -m repro.analysis plan``: an ``error``
finding means the plan cannot execute; a PA08 warning means the query
will need the host tier; a working set beyond the pool predicts the
engine's first GPU retry rung.

Rule catalog (each rule has passing and failing fixtures in
``tests/analysis``):

======  =========  ===========================================================
rule    severity   meaning
======  =========  ===========================================================
PA01    error      read references a table absent from the catalog
PA02    error      ordinal not an int in [0, arity) (field ref, group, sort,
                   join key)
PA03    error      expression fails type inference, or is a call the
                   expression compiler cannot build (missing arguments)
PA04    error      filter / pushed filter / join post-filter is not boolean
PA05    error      aggregate misuse: non-aggregate measure, aggregate call in
                   a scalar position, nested aggregates, duplicate output
                   names
PA06    error      join keys incompatible, or key-less non-inner join
PA08    warning    the expression compiler cannot lower an expression for
                   the device (whatever it rejects): query will need the
                   host (cpu-plan) tier
PA09    warning    static working set exceeds the device processing pool:
                   query will need the first GPU retry rung
PA10    error      fetch offset / count negative
======  =========  ===========================================================
"""

from __future__ import annotations

from typing import Mapping

from ..columnar import Table
from ..core.expr_compile import UnsupportedExpressionError, compile_expression
from ..core.fallback import HOST_TIER, gpu_rungs, plan_fingerprint
from ..plan import Plan
from ..plan.check import PlanChecker
from ..sched.estimator import estimate_plan
from .report import SEVERITY_ERROR, SEVERITY_WARNING, AnalysisReport, Finding

__all__ = ["analyze_plan", "PLAN_RULES"]

# rule id -> short description, for ``python -m repro.analysis rules``.
PLAN_RULES = {
    "PA01": "read references a table absent from the catalog",
    "PA02": "ordinal out of range (field/group/sort/join key)",
    "PA03": "expression fails type inference",
    "PA04": "predicate position holds a non-boolean expression",
    "PA05": "aggregate misuse (measure shape, scalar position, duplicates)",
    "PA06": "join keys incompatible, or key-less non-inner join",
    "PA08": "expression the compiler cannot lower for the GPU (needs cpu-plan)",
    "PA09": "static working set exceeds the processing pool (needs spill)",
    "PA10": "fetch offset/count negative",
}


class _DeviceChecker(PlanChecker):
    """The structural pass, asking the expression compiler about every
    type-correct expression: PA08 is exactly what it rejects."""

    def check_lowering(self, expr, site: str, what: str) -> None:
        try:
            compile_expression(expr)
        except UnsupportedExpressionError as exc:
            self.flag("PA08", SEVERITY_WARNING, f"{what}: {exc}", site)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            # A payload call with a literal argument no tier can use
            # (round's digits not an integer): the analyzer reports
            # rather than raises.
            self.flag("PA03", SEVERITY_ERROR, f"{what}: malformed call ({exc!r})", site)


def analyze_plan(
    plan: Plan,
    catalog: Mapping[str, Table] | None = None,
    device=None,
) -> AnalysisReport:
    """Statically analyze ``plan``; never raises on plan defects.

    Args:
        plan: The logical plan to analyze.
        catalog: Host tables by name; enables unknown-table checks and the
            working-set / cardinality estimate.  Exchange temp tables
            (``__ex*``) are treated as known-but-unsized.
        device: A :class:`~repro.gpu.device.Device`; enables the service
            estimate and the pool-capacity (spill-tier) check.
    """
    report = AnalysisReport(plan_fingerprint=plan_fingerprint(plan))

    def flag(rule: str, severity: str, message: str, site: str) -> None:
        report.findings.append(Finding(rule, severity, message, site))

    schema = _DeviceChecker(flag, catalog).visit(plan.root, "root")
    if schema is not None:
        report.output_schema = [(f.name, f.dtype.name) for f in schema]

    if report.ok and catalog is not None and device is not None:
        # The numbers admission control gates on, totals and per-pipeline-
        # breaker breakdown alike: one estimator prices both.
        est = estimate_plan(plan, catalog, device)
        report.working_set_bytes = est.working_set_bytes
        report.estimated_rows = est.rows
        report.estimated_service_s = est.service_s
        report.pipeline_working_sets = [
            {"site": site, "kind": kind, "bytes": nbytes}
            for site, kind, nbytes in est.working_sets
        ]

    report.gpu_supported = not any(f.rule == "PA08" for f in report.findings)
    if not report.ok:
        report.suggested_tier = "reject"
    elif not report.gpu_supported:
        report.suggested_tier = HOST_TIER
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
        report.suggested_tier = gpu_rungs(False)[0]
    return report
