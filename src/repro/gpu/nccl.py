"""NCCL-style collectives over a simulated fabric.

The paper's exchange service layer implements broadcast, shuffle, merge and
multi-cast on NCCL primitives running over PCIe / NVLink / InfiniBand.
Here three collectives carry every exchange — ``all_to_all`` (a shuffle,
and a broadcast as an all-gather), ``gather`` (a merge) and ``barrier`` —
and each participating device keeps its *own* simulated clock (nodes
compute in parallel); a collective is a synchronisation point:

1. every rank "arrives" at its local time;
2. the collective completes at ``max(arrival) + comm_time``;
3. every rank's clock is advanced to the completion time, with the waiting
   + wire time attributed to the ``"exchange"`` bucket.

``comm_time`` follows the standard alpha-beta model: per-message latency
(alpha) plus bytes over per-link bandwidth (beta), with the bottleneck rank
(max bytes in or out) setting the pace for all-to-all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..obs import NULL_TRACER
from .clock import SimClock

__all__ = [
    "Fabric",
    "Communicator",
    "LinkDroppedError",
    "INFINIBAND_NDR",
    "ETHERNET_100G",
    "NVLINK_P2P",
]


class LinkDroppedError(ConnectionError):
    """A collective failed because a link dropped mid-operation.

    This is the *transient* NCCL failure class: the caller (the exchange
    layer) is expected to retry with backoff; the failed handshake's
    latency has already been charged to every participating clock."""

GB = 1_000_000_000


@dataclass(frozen=True)
class Fabric:
    """A point-to-point interconnect between ranks.

    Attributes:
        name: Human-readable name.
        bandwidth_gbps: Per-link, per-direction bandwidth in GB/s.
        latency_us: Per-message latency in microseconds.
    """

    name: str
    bandwidth_gbps: float
    latency_us: float

    @property
    def bandwidth(self) -> float:
        return self.bandwidth_gbps * GB

    @property
    def latency(self) -> float:
        return self.latency_us * 1e-6


# 4x NDR InfiniBand = 400 Gbps ~= 50 GB/s per node (the paper's A100 cluster).
INFINIBAND_NDR = Fabric("InfiniBand 4x NDR", 50.0, 3.0)
ETHERNET_100G = Fabric("100 GbE", 12.5, 10.0)
NVLINK_P2P = Fabric("NVLink peer-to-peer", 300.0, 1.5)

EXCHANGE_CATEGORY = "exchange"


class Communicator:
    """A fixed group of ranks that synchronise through collectives.

    ``fabric_for(i, j)`` optionally overrides the link between a specific
    rank pair — the multi-GPU-per-node extension: ranks on the same host
    talk over NVLink peer links while cross-host traffic rides the default
    fabric, exactly how NCCL picks transports.
    """

    def __init__(
        self,
        clocks: Sequence[SimClock],
        fabric: Fabric,
        fabric_for=None,
    ):
        if not clocks:
            raise ValueError("communicator needs at least one rank")
        self._clocks = list(clocks)
        self.fabric = fabric
        self._fabric_for = fabric_for
        self.bytes_on_wire = 0
        self.collective_count = 0
        # Fault-injection hook (attached by repro.faults.FaultInjector;
        # None = healthy fabric).
        self.fault_injector = None
        self.dropped_collectives = 0
        # Observability sink: each collective becomes a span (with per-link
        # byte counts for all-to-all) and each dropped handshake an event.
        self.tracer = NULL_TRACER
        # Send/compute overlap (the distributed copy/compute-overlap
        # extension): before a pipelined exchange, the distributed executor
        # deposits the fragment-compute seconds the collective may hide
        # behind.  The budget is consumed by the next collective; at the
        # default of 0.0 every collective is fully synchronous (seed
        # behaviour).  ``max_overlap_fraction`` caps how much of the wire
        # time can hide even with ample budget (the send of the *last*
        # produced chunk can never overlap anything).
        self.max_overlap_fraction = 0.75
        self.overlap_budget_s = 0.0
        self.overlap_hidden_s = 0.0

    def link(self, src: int, dst: int) -> Fabric:
        """The fabric used between two ranks."""
        if self._fabric_for is not None:
            override = self._fabric_for(src, dst)
            if override is not None:
                return override
        return self.fabric

    @property
    def world_size(self) -> int:
        return len(self._clocks)

    # -- internals ----------------------------------------------------------

    def _complete(
        self, comm_seconds: float, nbytes: int, kind: str = "collective", links=None
    ) -> float:
        """Advance all ranks to ``max(arrivals) + comm_seconds``."""
        start = max(c.now for c in self._clocks)
        # Consume the overlap budget unconditionally: a retried collective
        # (link fault) must not re-overlap compute that already elapsed.
        budget = self.overlap_budget_s
        self.overlap_budget_s = 0.0
        injector = self.fault_injector
        if injector is not None:
            if injector.take_link_fault(start):
                # The failed handshake costs every rank one latency round
                # before the error surfaces to the exchange layer.
                failed_at = start + self.fabric.latency
                for clock in self._clocks:
                    clock.advance_to(failed_at, category=EXCHANGE_CATEGORY)
                self.dropped_collectives += 1
                self.tracer.event(
                    "link-drop", sim_time=failed_at, kind=kind, dropped_at=start
                )
                raise LinkDroppedError(
                    f"collective dropped at t={start:.6f}s (simulated link fault)"
                )
            # Bandwidth degradation stretches the whole operation (the
            # latency share is negligible for the exchanges that matter).
            comm_seconds /= injector.bandwidth_factor(start)
        end = start + comm_seconds
        hidden = 0.0
        if budget > 0.0:
            # Pipelined exchange: the sends were issued while the fragment
            # was still computing, so up to max_overlap_fraction of the wire
            # time (bounded by the compute actually available to hide
            # behind) has already elapsed by the time ranks synchronise.
            hidden = min(comm_seconds * self.max_overlap_fraction, budget)
            self.overlap_hidden_s += hidden
            end -= hidden
        for clock in self._clocks:
            clock.advance_to(end, category=EXCHANGE_CATEGORY)
        self.bytes_on_wire += nbytes
        self.collective_count += 1
        if self.tracer.enabled:
            attrs = {
                "bytes": nbytes,
                "world_size": self.world_size,
                "fabric": self.fabric.name,
            }
            if hidden > 0.0:
                attrs["hidden_s"] = hidden
            if links:
                attrs["link_bytes"] = [
                    {"src": i, "dst": j, "bytes": b} for i, j, b in links
                ]
            self.tracer.record_span(
                f"nccl.{kind}", "collective", start=start, end=end, **attrs
            )
            self.tracer.count("nccl.bytes_on_wire", nbytes)
        return comm_seconds

    # -- collectives ----------------------------------------------------------

    def barrier(self) -> float:
        """Synchronise all ranks with a latency-only round."""
        return self._complete(self.fabric.latency, 0, kind="barrier")

    def all_to_all(self, bytes_matrix: Sequence[Sequence[int]]) -> float:
        """Full shuffle: rank ``i`` sends ``bytes_matrix[i][j]`` to rank ``j``.

        Diagonal entries (data staying local) are free.  The bottleneck rank
        — max of per-rank bytes sent or received — sets the duration.
        """
        n = self.world_size
        if len(bytes_matrix) != n or any(len(row) != n for row in bytes_matrix):
            raise ValueError(f"bytes_matrix must be {n}x{n}")
        # Per-rank serialised send/recv time over the (possibly per-pair)
        # links; the bottleneck rank paces the collective.
        send_time = [0.0] * n
        recv_time = [0.0] * n
        wire_bytes = 0
        for i in range(n):
            for j in range(n):
                if i == j or not bytes_matrix[i][j]:
                    continue
                link = self.link(i, j)
                t = bytes_matrix[i][j] / link.bandwidth
                send_time[i] += t
                recv_time[j] += t
                wire_bytes += bytes_matrix[i][j]
        bottleneck = max(max(send_time, default=0.0), max(recv_time, default=0.0))
        seconds = self.fabric.latency * max(n - 1, 1) + bottleneck
        links = [
            (i, j, bytes_matrix[i][j])
            for i in range(n)
            for j in range(n)
            if i != j and bytes_matrix[i][j]
        ]
        return self._complete(seconds, wire_bytes, kind="all_to_all", links=links)

    def gather(self, root: int, nbytes_per_rank: Sequence[int]) -> float:
        """Gather (merge pattern): every rank sends its bytes to ``root``."""
        self._check_rank(root)
        if len(nbytes_per_rank) != self.world_size:
            raise ValueError("need one byte count per rank")
        incoming = sum(b for r, b in enumerate(nbytes_per_rank) if r != root)
        seconds = self.fabric.latency + incoming / self.fabric.bandwidth
        return self._complete(
            seconds,
            incoming,
            kind="gather",
            links=[(r, root, b) for r, b in enumerate(nbytes_per_rank) if r != root and b],
        )

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range (world size {self.world_size})")
