"""Runtime sanitizers: dynamic invariants over sanitized runs.

The static analysis layer (:mod:`repro.analysis`) proves properties of
plans and source; this subpackage proves properties of *runs*:

* :class:`Sanitizer` — happens-before graph over stream issue/wait
  edges plus a shadow ledger of pool allocations, attached opt-in via
  ``SiriusEngine(..., sanitize=True)`` (a fleet passes it through
  :func:`~repro.fleet.engine_factory`) or the :func:`sanitized` context
  manager (SA01–SA08);
* :class:`DeterminismChecker` — re-runs schedules under permuted
  tie-breaks and runtime nondeterminism traps (SA09–SA10);
* suite runners behind ``python -m repro sanitize`` (:mod:`.cli`).
"""

from .core import Sanitizer, sanitized
from .determinism import DeterminismChecker, NondeterminismTrap, PermutedPolicy
from .report import SanitizerReport
from .rules import SA_RULES, SA_SEVERITY
from .shadow import HBGraph, ShadowLedger

__all__ = [
    "SA_RULES",
    "SA_SEVERITY",
    "Sanitizer",
    "sanitized",
    "SanitizerReport",
    "DeterminismChecker",
    "NondeterminismTrap",
    "PermutedPolicy",
    "HBGraph",
    "ShadowLedger",
]
