"""Static analysis for plans and for the codebase itself.

Two fronts, one vocabulary (:class:`Finding` / :class:`AnalysisReport`):

* :func:`analyze_plan` — a dataflow pass over the plan IR that
  type-checks every expression, estimates the working set, and predicts
  the degradation tier *before* any GPU memory is committed.  Admission
  control consumes the report.
* :mod:`repro.analysis.lints` — AST lints enforcing the repo's
  determinism and ownership invariants (``python -m repro.analysis lint``).
* :mod:`repro.analysis.sanitizers` — runtime sanitizers proving the
  *dynamic* invariants (happens-before on stream clocks, allocation
  pairing, schedule-digest purity) over sanitized runs
  (``python -m repro sanitize``).
"""

from .fusion_check import FUSION_RULES, verify_fused_plan
from .plan_analyzer import PLAN_RULES, analyze_plan
from .report import (
    SEVERITY_ERROR,
    SEVERITY_INFO,
    SEVERITY_WARNING,
    TIER_CPU_PLAN,
    TIER_GPU,
    TIER_REJECT,
    TIER_SPILL,
    AnalysisReport,
    Finding,
)
from .sanitizers import (
    SA_RULES,
    DeterminismChecker,
    Sanitizer,
    SanitizerReport,
    sanitized,
)

__all__ = [
    "SA_RULES",
    "Sanitizer",
    "sanitized",
    "SanitizerReport",
    "DeterminismChecker",
    "analyze_plan",
    "PLAN_RULES",
    "verify_fused_plan",
    "FUSION_RULES",
    "AnalysisReport",
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "SEVERITY_INFO",
    "TIER_GPU",
    "TIER_SPILL",
    "TIER_CPU_PLAN",
    "TIER_REJECT",
]
