"""Per-tenant fairness: token-bucket quotas over fleet admission.

Quotas sit *in front of* routing: a query whose tenant bucket is empty
at its arrival instant is throttled fleet-side — it never reaches a
replica's admission queue, so one tenant's burst cannot occupy queue
slots that the pool-headroom admission controller would otherwise hand
to everyone in arrival order.  Buckets refill on the virtual serving
timeline (see :class:`~repro.sched.admission.TokenBucket`), so the same
arrival sequence always produces the same admit/throttle decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..sched import TokenBucket

__all__ = ["TenantQuota", "TenantTable"]

DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantQuota:
    """Admission quota for one tenant: sustained rate plus burst depth."""

    rate_per_s: float
    burst: float = 1.0

    def bucket(self) -> TokenBucket:
        return TokenBucket(self.rate_per_s, self.burst)


class TenantTable:
    """The fleet's tenant registry: quotas, buckets, and counters.

    Tenants without a configured quota are unlimited (the whole layer
    defaults off).  ``admit`` consumes one token at the query's arrival
    instant; a refusal is a fleet-level throttle.
    """

    def __init__(self, quotas: Mapping[str, TenantQuota] | None = None):
        self.quotas = dict(quotas) if quotas else {}
        self._buckets = {name: q.bucket() for name, q in self.quotas.items()}
        self.submitted: dict[str, int] = {}
        self.throttled: dict[str, int] = {}

    def admit(self, tenant: str, now: float) -> bool:
        """Whether ``tenant`` may submit at virtual time ``now``."""
        self.submitted[tenant] = self.submitted.get(tenant, 0) + 1
        bucket = self._buckets.get(tenant)
        if bucket is None:
            return True
        if bucket.try_take(now):
            return True
        self.throttled[tenant] = self.throttled.get(tenant, 0) + 1
        return False

    def stats(self) -> dict:
        tenants = sorted(set(self.submitted) | set(self.quotas))
        return {
            name: {
                "submitted": self.submitted.get(name, 0),
                "throttled": self.throttled.get(name, 0),
                "quota": (
                    {
                        "rate_per_s": self.quotas[name].rate_per_s,
                        "burst": self.quotas[name].burst,
                    }
                    if name in self.quotas
                    else None
                ),
            }
            for name in tenants
        }
