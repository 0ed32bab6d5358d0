"""Static analysis for plans and for the codebase itself.

Two fronts, one vocabulary (:class:`Finding` / :class:`AnalysisReport`):

* :func:`analyze_plan` — a dataflow pass over the plan IR that
  type-checks every expression, asks the expression compiler what the
  device can run (a plan it cannot lower fails ``compile_plan``, so
  PA08 predicts the host tier), estimates the working set, and predicts
  the degradation tier *before* any GPU memory is committed.  The shape
  of the compiled regions needs no verifier of its own: the compiler
  emits them, and ``compile_stages`` refuses stages that do not chain.
* :mod:`repro.analysis.lints` — AST lints enforcing the repo's
  determinism and ownership invariants (``python -m repro.analysis lint``).
* :mod:`repro.analysis.sanitizers` — runtime sanitizers proving the
  *dynamic* invariants (happens-before on stream clocks, allocation
  pairing, schedule-digest purity) over sanitized runs
  (``python -m repro sanitize``).
"""

from .plan_analyzer import PLAN_RULES, analyze_plan
from .report import SEVERITY_ERROR, SEVERITY_WARNING, AnalysisReport, Finding
from .sanitizers import SA_RULES, DeterminismChecker, Sanitizer, SanitizerReport

__all__ = [
    "SA_RULES",
    "Sanitizer",
    "SanitizerReport",
    "DeterminismChecker",
    "analyze_plan",
    "PLAN_RULES",
    "AnalysisReport",
    "Finding",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
]
