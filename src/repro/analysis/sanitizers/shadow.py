"""Shadow state mirrored by the sanitizer: a happens-before graph over
stream events and a ledger of RMM pool allocations.

Both structures are *observers*: they are fed from guarded hook sites in
the clock, the pool allocator, and the buffer manager, never mutate the
observed objects, and never advance the simulated clock — behaviour with
the sanitizer attached is byte-identical to behaviour without it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HBGraph", "HBNode", "ShadowLedger", "LiveAllocation"]


@dataclass(frozen=True)
class HBNode:
    """One node of the happens-before graph: a stream work item or a host
    sync point."""

    nid: int
    kind: str  # "issue" | "wait"
    stream: str
    start: float
    end: float


class HBGraph:
    """Happens-before over stream issue/wait edges.

    Nodes are stream work items (``issue``) and host sync points
    (``wait``).  Edges:

    * program order within a stream: each issue happens-before the next
      issue on the same stream (the stream frontier serialises them);
    * sync edges: a host ``wait(until)`` happens-after every issue on
      that stream whose completion timestamp is ``<= until``.

    The *synced frontier* of a stream is the largest event timestamp the
    host has ever waited to — an event is ``covered`` (safe to consume
    host-side) exactly when its timestamp is at or below that frontier.
    """

    def __init__(self) -> None:
        self.nodes: list[HBNode] = []
        self.edges: list[tuple[int, int]] = []
        self._last_issue: dict[str, int] = {}
        self._unsynced: dict[str, list[int]] = {}
        self._synced_frontier: dict[str, float] = {}

    def on_issue(self, stream: str, start: float, end: float) -> int:
        nid = len(self.nodes)
        self.nodes.append(HBNode(nid, "issue", stream, start, end))
        prev = self._last_issue.get(stream)
        if prev is not None:
            self.edges.append((prev, nid))
        self._last_issue[stream] = nid
        self._unsynced.setdefault(stream, []).append(nid)
        return nid

    def on_wait(self, stream: str, until: float) -> int:
        nid = len(self.nodes)
        self.nodes.append(HBNode(nid, "wait", stream, until, until))
        pending = self._unsynced.get(stream, [])
        kept: list[int] = []
        for src in pending:
            if self.nodes[src].end <= until:
                self.edges.append((src, nid))
            else:
                kept.append(src)
        self._unsynced[stream] = kept
        frontier = self._synced_frontier.get(stream, 0.0)
        if until > frontier:
            self._synced_frontier[stream] = until
        return nid

    def covered(self, stream: str, event_end: float) -> bool:
        """Whether the host has a sync edge at or past ``event_end``."""
        return event_end <= self._synced_frontier.get(stream, 0.0)

    def synced_frontier(self, stream: str) -> float:
        return self._synced_frontier.get(stream, 0.0)

    def acyclic(self) -> bool:
        """Edges always point from an older node id to a newer one by
        construction; verify that property actually holds (the invariant
        the hypothesis suite asserts)."""
        return all(src < dst for src, dst in self.edges)

    def stats(self) -> dict:
        return {
            "hb_nodes": len(self.nodes),
            "hb_edges": len(self.edges),
            "hb_streams": len(self._last_issue),
        }


@dataclass
class LiveAllocation:
    """Shadow record of one live pool allocation."""

    alloc_id: int
    size: int
    owner: object
    generation: int


class ShadowLedger:
    """Event-sourced mirror of the RMM pool's live allocations.

    Fed from the allocator's hook sites (allocate / free /
    release_owner / reset); the drift check compares its totals against
    the pool's own counters, so paired bookkeeping bugs that a single
    counter cannot see show up as ledger disagreement.
    """

    def __init__(self) -> None:
        self.live: dict[int, LiveAllocation] = {}
        self.total_allocations = 0
        self.total_frees = 0
        self.resets = 0

    def on_alloc(self, alloc_id: int, size: int, owner: object, generation: int) -> None:
        self.live[alloc_id] = LiveAllocation(alloc_id, size, owner, generation)
        self.total_allocations += 1

    def on_free(self, alloc_id: int) -> bool:
        """Forget a freed allocation; False when it was not live (the
        double-free signal, judged by the caller against pool state)."""
        if self.live.pop(alloc_id, None) is None:
            return False
        self.total_frees += 1
        return True

    def on_release_owner(self, owner: object) -> int:
        """Drop every allocation tagged ``owner``; returns bytes dropped."""
        doomed = [a for a in self.live.values() if a.owner == owner]
        for alloc in doomed:
            del self.live[alloc.alloc_id]
            self.total_frees += 1
        return sum(a.size for a in doomed)

    def on_reset(self) -> None:
        self.live.clear()
        self.resets += 1

    def live_bytes(self) -> int:
        return sum(a.size for a in self.live.values())

    def stats(self) -> dict:
        return {
            "allocations_tracked": self.total_allocations,
            "frees_tracked": self.total_frees,
            "pool_resets": self.resets,
            "live_allocations": len(self.live),
        }
