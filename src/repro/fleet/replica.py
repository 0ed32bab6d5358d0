"""One engine replica: a device + scheduler pair the fleet routes into.

Each replica owns a full engine stack — its own device (pool, caching
region, buffer manager) built on the fleet's shared
:class:`~repro.gpu.clock.SimClock` — wrapped in a
:class:`~repro.sched.ServingScheduler` that the fleet steps event by
event through the incremental ``begin_run`` / ``step_event`` /
``end_run`` surface.  The replica tracks what the router needs to know:
outstanding estimated cost, which base tables its caching region holds
hot, and its lifecycle (spawned / draining / retired) for replica-second
cost accounting.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..columnar import Table
from ..core.sirius import SiriusEngine
from ..gpu.device import Device
from ..gpu.specs import GH200, DeviceSpec
from ..sched import ServingScheduler

__all__ = ["EngineReplica", "engine_factory"]


def engine_factory(
    spec: DeviceSpec = GH200,
    warm: Mapping[str, Table] | None = None,
    memory_limit_gb: float | None = None,
    **engine_kwargs,
) -> Callable[[int], SiriusEngine]:
    """A replica-engine builder: each call makes a fresh device and
    engine, warm-caching ``warm``.
    The returned callable takes the replica id (unused by the default
    factory, but custom factories can vary hardware per replica)."""

    def build(replica_id: int) -> SiriusEngine:
        device = Device(spec, memory_limit_gb=memory_limit_gb)
        engine = SiriusEngine(device, **engine_kwargs)
        if warm:
            engine.warm_cache(warm)
        return engine

    return build


class EngineReplica:
    """An engine + scheduler the fleet steps on the merged timeline."""

    def __init__(
        self,
        replica_id: int,
        engine: SiriusEngine,
        scheduler: ServingScheduler,
        spawned_at: float = 0.0,
    ):
        self.id = replica_id
        self.engine = engine
        self.scheduler = scheduler
        self.spawned_at = spawned_at
        self.retired_at: float | None = None
        self.draining = False
        self.crashed = False
        # Sum of estimated service seconds routed here and not yet
        # finished — the least-outstanding router's load signal.
        self.outstanding_cost = 0.0
        self.routed = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.retired_at is None

    @property
    def routable(self) -> bool:
        """Whether the router may send new work here."""
        return self.alive and not self.draining

    @property
    def idle(self) -> bool:
        return not self.scheduler.pending

    def retire(self, vt: float) -> None:
        self.retired_at = vt
        self.scheduler.end_run()

    def replica_seconds(self, end_vt: float) -> float:
        """Billed lifetime: spawn to retirement (or to ``end_vt``)."""
        end = self.retired_at if self.retired_at is not None else end_vt
        return max(0.0, end - self.spawned_at)

    # -- router signals ------------------------------------------------------

    def hot_tables(self) -> set[str]:
        """Base tables resident in this replica's caching region."""
        return set(self.engine.buffer_manager.cached_tables())

    def in_flight(self) -> int:
        return len(self.scheduler.running) + len(self.scheduler.queue)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "spawned_at": self.spawned_at,
            "retired_at": self.retired_at,
            "draining": self.draining,
            "crashed": self.crashed,
            "routed": self.routed,
        }
