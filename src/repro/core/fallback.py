"""Graceful degradation tiers (§3.2.2, extended with a fault model).

Sirius "includes a graceful fallback mechanism to the host database
systems in the case of an error or missing features".  The engine wraps
GPU execution; recoverable failures walk an ordered ladder of
:class:`DegradationTier`\\ s instead of jumping straight to the host:

1. ``gpu-retry-spill`` — device OOM only: re-run on the GPU in small
   batches (§3.4);
2. ``gpu-spill`` — device OOM on an in-core engine only: re-run with the
   partitioned out-of-core operators (:func:`gpu_rungs` lists these two
   rungs, :func:`retry_settings` holds what each changes);
3. ``cpu-pipeline`` — re-run this pipeline/fragment on the node's CPU
   while the rest of the query stays on the GPU (wired by hosts that
   execute fragment-at-a-time, e.g. MiniDoris);
4. ``cpu-plan`` — the seed behaviour: re-execute the whole plan through
   the registered host executor;
5. raise — no tier could absorb the failure.

Exactly **one** :class:`FallbackEvent` is recorded per degraded query —
carrying the original error, the tier that finally absorbed it, and every
tier attempted along the way — so ``fallback_count`` still counts queries,
not attempts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from ..columnar import Table
from ..gpu.device import TransientKernelError
from ..gpu.memory import OutOfDeviceMemory
from ..obs import NULL_TRACER
from ..plan import Plan
from .expr_compile import UnsupportedExpressionError
from .operators.base import UnsupportedFeatureError

__all__ = [
    "FallbackHandler",
    "FallbackEvent",
    "DegradationTier",
    "FALLBACK_EXCEPTIONS",
    "HOST_TIER",
    "OOC_RETRY_BATCH_ROWS",
    "gpu_rungs",
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


@dataclass(frozen=True)
class DegradationTier:
    """One rung of the degradation ladder.

    Attributes:
        name: Tier label recorded in events (e.g. ``"gpu-retry-spill"``).
        handler: ``(plan, original_exception) -> Table``; may itself raise
            a fallback exception, which passes control to the next tier.
        triggers: Exception types this tier can absorb; the tier is
            skipped when the original failure is not an instance.
        gpu_result: True when the tier still produces its result on the
            GPU (so the engine's query profile remains valid).
    """

    name: str
    handler: Callable[[Plan, BaseException], Table]
    triggers: tuple = FALLBACK_EXCEPTIONS
    gpu_result: bool = False


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


def retry_settings(tier: str, batch_rows: int | None) -> dict:
    """``SiriusEngine.start_query`` arguments with which the GPU-resident
    tier ``tier`` re-runs a query that ran at ``batch_rows``: both rungs
    stream in small batches; only ``gpu-spill`` recompiles to the
    partitioned operators, ``None`` keeping the engine's own mode.  A
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
    trying to stay on the GPU — both ``None`` when the engine has no
    memory probe wired (e.g. a bare handler under test)."""

    reason: str
    exception_type: str
    tier: str = HOST_TIER  # tier that absorbed the failure ("raise" = none)
    tiers_attempted: tuple = ()
    plan_fingerprint: str = "unknown"
    sim_time: float | None = None
    memory_watermark: int | None = None
    spill_bytes_attempted: int | None = None


@dataclass
class FallbackHandler:
    """Wraps GPU execution with the tiered degradation ladder."""

    host_executor: Callable[[Plan], Table] | None = None
    events: list[FallbackEvent] = field(default_factory=list)
    # Observability sink; every recorded FallbackEvent is mirrored as a
    # span event carrying the tier label and the ladder walked.
    tracer: object = NULL_TRACER
    # Optional ``() -> {"memory_watermark": int, "spill_bytes_attempted": int}``
    # sampled at record time so every event says how full the pool was and
    # how much spilling was tried before degrading (None fields otherwise).
    memory_probe: Callable[[], dict] | None = None

    def run(
        self,
        gpu_execute: Callable[[], Table],
        plan: Plan,
        tiers: tuple = (),
        clock=None,
    ) -> tuple[Table, DegradationTier | None]:
        """Run ``gpu_execute``; walk the degradation tiers on known failures.

        ``tiers`` are tried in order; the registered ``host_executor`` (if
        any) is appended as the final ``cpu-plan`` tier.  One event is
        recorded per degraded query regardless of how many tiers ran.

        Returns:
            ``(result, tier)`` — ``tier`` is ``None`` on the happy path,
            else the :class:`DegradationTier` that produced the result.

        Raises:
            The original exception if no tier absorbed it, or any
            exception outside the fallback set (bugs must surface).
        """
        try:
            return gpu_execute(), None
        except FALLBACK_EXCEPTIONS as exc:
            original = exc

        ladder = list(tiers)
        if self.host_executor is not None:
            ladder.append(
                DegradationTier(
                    HOST_TIER, lambda p, _exc: self.host_executor(p), FALLBACK_EXCEPTIONS
                )
            )
        attempted: list[str] = []
        for tier in ladder:
            if not isinstance(original, tier.triggers):
                continue
            attempted.append(tier.name)
            try:
                result = tier.handler(plan, original)
            except FALLBACK_EXCEPTIONS:
                continue  # this tier could not absorb it either; next rung
            self._record(original, plan, tier.name, attempted, clock)
            return result, tier
        self._record(original, plan, "raise", attempted, clock)
        raise original

    def _record(self, exc, plan, tier: str, attempted: list, clock) -> None:
        memory = self.memory_probe() if self.memory_probe is not None else {}
        self.events.append(
            FallbackEvent(
                reason=str(exc),
                exception_type=type(exc).__name__,
                tier=tier,
                tiers_attempted=tuple(attempted),
                plan_fingerprint=plan_fingerprint(plan),
                sim_time=clock.now if clock is not None else None,
                memory_watermark=memory.get("memory_watermark"),
                spill_bytes_attempted=memory.get("spill_bytes_attempted"),
            )
        )
        self.tracer.event(
            "fallback",
            sim_time=clock.now if clock is not None else 0.0,
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
