"""Structured output of the static-analysis layer.

Both analyzer fronts — the plan dataflow pass and the codebase invariant
linter — report through the same vocabulary: a :class:`Finding` is one
rule violation at one site, and an :class:`AnalysisReport` aggregates a
plan's findings together with its static working-set estimate, GPU
supportability, and the degradation tier the query is predicted to need.

Severity semantics:

* ``error`` — the plan is structurally broken; executing it would raise
  (``suggested_tier == "reject"``).
* ``warning`` — the plan executes, but not on the happy path: a construct
  needs the CPU fallback, or the working set will not fit the pool.
* ``info`` — advisory observations (estimate details, redundancies).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..plan.check import SEVERITY_ERROR, SEVERITY_WARNING

__all__ = [
    "Finding",
    "AnalysisReport",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SEVERITY_INFO",
    "TIER_GPU",
    "TIER_SPILL",
    "TIER_GPU_SPILL",
    "TIER_CPU_PLAN",
    "TIER_REJECT",
]

SEVERITY_INFO = "info"

# Statically-predicted execution tiers (mirrors the degradation ladder in
# repro.core.fallback, plus "reject" for plans that cannot run at all).
TIER_GPU = "gpu"
TIER_SPILL = "gpu-retry-spill"
TIER_GPU_SPILL = "gpu-spill"  # partitioned out-of-core execution
TIER_CPU_PLAN = "cpu-plan"
TIER_REJECT = "reject"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site (a plan path or a source location)."""

    rule: str  # rule id, e.g. "PA02" or "RR01"
    severity: str  # "error" | "warning" | "info"
    message: str
    site: str  # plan path like "root.join.left" or "file.py:42"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "site": self.site,
        }

    def __str__(self) -> str:
        return f"[{self.rule}] {self.severity} at {self.site}: {self.message}"


@dataclass
class AnalysisReport:
    """Everything the plan analyzer learned about one plan.

    Attributes:
        plan_fingerprint: Stable sha1-prefix identifier of the plan.
        findings: Every rule violation discovered, in visit order.
        output_schema: ``[(name, dtype_name), ...]`` of the plan result,
            or ``None`` when schema propagation failed.
        working_set_bytes: Static estimate of concurrent processing-pool
            bytes (hash tables, sort buffers, materialised result), as
            priced by :func:`repro.sched.estimator.estimate_plan`.
            ``None`` when no catalog/device was supplied.
        pipeline_working_sets: The estimator's per-site contributions to
            that working set (one entry per pipeline breaker: join build,
            aggregate state, sort buffer, final result); they sum to it.
        estimated_rows: Estimated result cardinality (``None`` without a
            catalog).
        estimated_service_s: Estimated simulated device seconds (``None``
            without a device).
        gpu_supported: False when any construct requires the CPU fallback.
        suggested_tier: The degradation tier the query is predicted to
            need: ``gpu`` | ``gpu-retry-spill`` | ``cpu-plan`` |
            ``reject``.
    """

    plan_fingerprint: str = "unknown"
    findings: list[Finding] = field(default_factory=list)
    output_schema: list[tuple[str, str]] | None = None
    working_set_bytes: int | None = None
    pipeline_working_sets: list[dict] = field(default_factory=list)
    estimated_rows: int | None = None
    estimated_service_s: float | None = None
    gpu_supported: bool = True
    suggested_tier: str = TIER_GPU

    # -- accessors -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True when the plan is executable (no error-severity findings)."""
        return not self.errors

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_ERROR]

    def rules_hit(self) -> set[str]:
        return {f.rule for f in self.findings}

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "plan_fingerprint": self.plan_fingerprint,
            "ok": self.ok,
            "gpu_supported": self.gpu_supported,
            "suggested_tier": self.suggested_tier,
            "output_schema": self.output_schema,
            "working_set_bytes": self.working_set_bytes,
            "pipeline_working_sets": list(self.pipeline_working_sets),
            "estimated_rows": self.estimated_rows,
            "estimated_service_s": self.estimated_service_s,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """One human line: tier, findings count, working set."""
        parts = [f"tier={self.suggested_tier}", f"findings={len(self.findings)}"]
        if self.working_set_bytes is not None:
            parts.append(f"working_set={self.working_set_bytes / 1e6:.2f}MB")
        if self.estimated_rows is not None:
            parts.append(f"rows~{self.estimated_rows}")
        return " ".join(parts)
