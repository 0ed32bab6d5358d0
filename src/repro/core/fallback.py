"""Graceful degradation (§3.2.2, extended with a fault model).

Sirius "includes a graceful fallback mechanism to the host database
systems in the case of an error or missing features".  The engine wraps
GPU execution; recoverable failures climb an ordered ladder instead of
jumping straight to the host:

1. ``gpu-retry-spill`` — re-run on the GPU in small batches (§3.4);
2. ``gpu-spill`` — in-core engines only: re-run the same plan
   out-of-core, so its keyed sinks may spill (:func:`gpu_rungs` lists
   these two rungs, :func:`retry_settings` holds what each changes);
3. ``cpu-plan`` — the seed behaviour: re-execute the whole plan through
   the registered host executor;
4. raise — no rung could absorb the failure.

:func:`next_rung` is the one rule for the GPU rungs, shared by
``SiriusEngine.execute`` and the serving scheduler: a query starts
climbing only on device OOM, and once on a rung any recoverable failure
moves it one rung up.

Exactly **one** :class:`FallbackEvent` is recorded per degraded query —
carrying the original error, the tier that finally absorbed it, and every
tier attempted along the way — so ``fallback_count`` still counts queries,
not attempts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..gpu.device import TransientKernelError
from ..gpu.memory import OutOfDeviceMemory
from ..obs import NULL_TRACER
from ..plan import Plan
from .expr_compile import UnsupportedExpressionError
from .operators.base import UnsupportedFeatureError

__all__ = [
    "FallbackHandler",
    "FallbackEvent",
    "FALLBACK_EXCEPTIONS",
    "HOST_TIER",
    "OOC_RETRY_BATCH_ROWS",
    "gpu_rungs",
    "next_rung",
    "retry_settings",
]

FALLBACK_EXCEPTIONS = (
    UnsupportedFeatureError,
    UnsupportedExpressionError,
    OutOfDeviceMemory,
    TransientKernelError,
)


def plan_fingerprint(plan: Plan) -> str:
    """Short stable identifier for a plan (sha1 of its JSON form)."""
    try:
        return hashlib.sha1(plan.to_json().encode("utf-8")).hexdigest()[:12]
    except Exception:
        return "unknown"


# The last rung: the whole plan re-run by the registered host executor.
HOST_TIER = "cpu-plan"

# Batch size of the GPU-resident retry tiers (and of out-of-core engines
# that were given none): small enough to fit tight processing pools,
# large enough to keep kernels efficient.
OOC_RETRY_BATCH_ROWS = 65_536


def gpu_rungs(out_of_core: bool) -> tuple[str, ...]:
    """The GPU-resident rungs, cheapest first, that an engine walks on
    device OOM.  An out-of-core engine already runs partitioned, so it
    has no ``gpu-spill`` rung to escalate to."""
    return ("gpu-retry-spill",) if out_of_core else ("gpu-retry-spill", "gpu-spill")


def next_rung(
    out_of_core: bool, failure: BaseException, tier: str | None
) -> str | None:
    """The GPU rung to re-run on after the recoverable ``failure`` ended
    the attempt at ``tier`` (``None`` = the first attempt), or ``None``
    once the rungs are spent.  Climbing starts only on device OOM; once
    on a rung, any recoverable failure moves one rung up."""
    rungs = gpu_rungs(out_of_core)
    if tier is None:
        return rungs[0] if isinstance(failure, OutOfDeviceMemory) else None
    step = rungs.index(tier) + 1
    return rungs[step] if step < len(rungs) else None


def retry_settings(tier: str, batch_rows: int | None) -> dict:
    """``SiriusEngine.start_query`` arguments with which the GPU-resident
    tier ``tier`` re-runs a query that ran at ``batch_rows``: both rungs
    stream in small batches; only ``gpu-spill`` runs out-of-core,
    ``None`` keeping the engine's own mode.  A
    retry changes these arguments and nothing else."""
    return {
        "batch_rows": min(batch_rows or OOC_RETRY_BATCH_ROWS, OOC_RETRY_BATCH_ROWS),
        "out_of_core": True if tier == "gpu-spill" else None,
    }


@dataclass
class FallbackEvent:
    """Record of one query that degraded off the happy path.

    ``memory_watermark`` is the processing-pool bytes in use when the
    event was recorded (how full the pool was at the failure) and
    ``spill_bytes_attempted`` the total bytes the engine had spilled
    trying to stay on the GPU."""

    reason: str
    exception_type: str
    tier: str  # tier that absorbed the failure ("raise" = none)
    tiers_attempted: tuple
    plan_fingerprint: str
    sim_time: float
    memory_watermark: int
    spill_bytes_attempted: int


@dataclass
class FallbackHandler:
    """The engine's degradation log: one :class:`FallbackEvent` per
    degraded query, mirrored to the tracer."""

    events: list[FallbackEvent] = field(default_factory=list)
    # Observability sink; every recorded FallbackEvent is mirrored as a
    # span event carrying the tier label and the ladder walked.
    tracer: object = NULL_TRACER

    def record(
        self,
        exc: BaseException,
        plan: Plan,
        tier: str,
        attempted: list,
        clock,
        memory_watermark: int,
        spill_bytes_attempted: int,
    ) -> None:
        """Log that ``exc`` degraded ``plan`` to ``tier`` (``"raise"`` =
        no tier absorbed it) after trying ``attempted``."""
        self.events.append(
            FallbackEvent(
                reason=str(exc),
                exception_type=type(exc).__name__,
                tier=tier,
                tiers_attempted=tuple(attempted),
                plan_fingerprint=plan_fingerprint(plan),
                sim_time=clock.now,
                memory_watermark=memory_watermark,
                spill_bytes_attempted=spill_bytes_attempted,
            )
        )
        self.tracer.event(
            "fallback",
            sim_time=clock.now,
            tier=tier,
            tiers_attempted=tuple(attempted),
            exception=type(exc).__name__,
        )

    @property
    def fallback_count(self) -> int:
        return len(self.events)

    def summary(self) -> str:
        """Human-readable degradation report (one line per tier)."""
        if not self.events:
            return "no degraded queries"
        by_tier: dict[str, list[FallbackEvent]] = {}
        for event in self.events:
            by_tier.setdefault(event.tier, []).append(event)
        lines = [f"{len(self.events)} degraded quer{'y' if len(self.events) == 1 else 'ies'}"]
        for tier_name in sorted(by_tier):
            group = by_tier[tier_name]
            causes: dict[str, int] = {}
            for event in group:
                causes[event.exception_type] = causes.get(event.exception_type, 0) + 1
            cause_str = ", ".join(f"{k} x{v}" for k, v in sorted(causes.items()))
            lines.append(f"  tier {tier_name}: {len(group)} ({cause_str})")
        return "\n".join(lines)
