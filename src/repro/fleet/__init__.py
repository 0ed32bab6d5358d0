"""Fleet serving: replicated engines, two-tier caching, autoscaling.

The serving tentpole scaled one engine to N concurrent queries; this
package scales N engines to a *fleet*.  A :class:`FleetScheduler` routes
arriving queries across engine replicas (round-robin, least-outstanding,
or data-placement-aware), answers repeats straight from an exact
**result cache**, reuses priced query shapes through a parameterized
**plan cache** (both keyed on normalized plan digests with version-based
invalidation), enforces per-tenant token-bucket quotas, and reacts to
queue pressure with a threshold/cooldown **autoscaler** whose scale-down
path drains replicas gracefully — no query is ever stranded.

Everything defaults off: a fleet of one replica with the caches disabled
produces a serving report byte-identical to a solo
:class:`~repro.sched.ServingScheduler`.
"""

from .autoscale import Autoscaler, ScaleEvent
from .cache import PlanCache, ResultCache, TableVersions
from .digest import PlanDigest, plan_digest
from .driver import FleetWorkloadDriver
from .job import FleetJob
from .replica import EngineReplica, engine_factory
from .report import FleetReport
from .routing import (
    LeastOutstandingRouting,
    PlacementAwareRouting,
    ROUTINGS,
    RoundRobinRouting,
    RoutingPolicy,
    make_routing,
)
from .scheduler import FleetScheduler, ReplicaCrashError
from .tenants import DEFAULT_TENANT, TenantQuota, TenantTable

__all__ = [
    "Autoscaler",
    "DEFAULT_TENANT",
    "EngineReplica",
    "FleetJob",
    "FleetReport",
    "FleetScheduler",
    "FleetWorkloadDriver",
    "LeastOutstandingRouting",
    "PlacementAwareRouting",
    "PlanCache",
    "PlanDigest",
    "ROUTINGS",
    "ReplicaCrashError",
    "ResultCache",
    "RoundRobinRouting",
    "RoutingPolicy",
    "ScaleEvent",
    "TableVersions",
    "TenantQuota",
    "TenantTable",
    "engine_factory",
    "make_routing",
    "plan_digest",
]
