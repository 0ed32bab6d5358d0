"""Stage-by-stage execution of fragmented plans across the cluster.

For each fragment, every participating node executes the fragment plan
against its local catalog plus any exchange temporary tables it has
received; then the fragment's output moves according to its exchange
spec — shuffles as an all-to-all, broadcasts, merges to the coordinator —
with wire time charged through the NCCL-style communicator and waiting
time aligned across node clocks (nodes run in parallel).

Temporary exchange tables are registered per node and **deregistered once
the consuming fragment finishes** (§3.2.4's runtime registry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..columnar import Table, concat_tables
from ..core.deadline import Deadline
from ..gpu.nccl import LinkDroppedError
from ..obs import NULL_TRACER, QueryProfile
from ..plan import Plan
from .cluster import Cluster
from .fragments import Fragment

__all__ = ["DistributedExecutor", "DistributedResult", "ExchangeRetry", "NodeFailureError"]

COORDINATOR = 0

# Per-query parse/optimize/schedule cost on the coordinator (the paper's
# "other" time for Q1/Q6, which "does not scale with the data size") and
# the per-fragment plan-dispatch cost.
COORDINATOR_OVERHEAD_S = 0.0006
DISPATCH_OVERHEAD_S = 0.0001
# Collective retries on a transient link fault before it counts as
# permanent; the backoff doubles per attempt, charged to every node clock.
MAX_EXCHANGE_RETRIES = 6
RETRY_BACKOFF_S = 0.0002


class _ClusterClock:
    """Clock adapter for cluster-scope spans: ``now`` is the cluster's
    frontier (max over node clocks), the time the coordinator observes."""

    def __init__(self, cluster: Cluster):
        self._cluster = cluster

    @property
    def now(self) -> float:
        return self._cluster.max_clock()


class NodeFailureError(RuntimeError):
    """The coordinator declared one or more compute nodes dead mid-query.

    Raised out of :meth:`DistributedExecutor.run` so the host layer
    (MiniDoris) can evict the nodes, re-partition, and re-execute the lost
    fragments on the survivors.
    """

    def __init__(self, dead_uids: list[int], detected_at: float, fragments_done: int):
        super().__init__(
            f"node(s) {dead_uids} missed heartbeats; "
            f"declared dead at t={detected_at:.6f}s after {fragments_done} fragment(s)"
        )
        self.dead_uids = dead_uids
        self.detected_at = detected_at
        self.fragments_done = fragments_done


@dataclass
class ExchangeRetry:
    """One retried collective (structured record for the event log)."""

    kind: str  # exchange kind being retried
    attempt: int
    backoff_s: float
    sim_time: float


@dataclass
class DistributedResult:
    """Result plus Table-2-style accounting.

    The numeric fields are views of :attr:`profile` — the per-query
    :class:`~repro.obs.QueryProfile` is the source of truth the bench
    harnesses consume; these fields remain for existing callers.
    """

    table: Table
    total_seconds: float
    compute_seconds: float
    exchange_seconds: float
    other_seconds: float
    exchanged_bytes: int
    fragments_run: int
    exchange_retries: int = 0
    retry_events: list = field(default_factory=list)
    profile: QueryProfile | None = None


class DistributedExecutor:
    """Runs fragment lists produced by the DistributedPlanner."""

    def __init__(
        self,
        cluster: Cluster,
        node_executor: Callable[[int, Plan, dict], Table],
        tracer=None,
        overlap_exchange: bool = False,
    ):
        """
        Args:
            cluster: The node group.
            node_executor: ``(node_id, plan, catalog) -> Table`` — executes
                one fragment plan on one node, charging that node's clock
                (a per-node Sirius engine or CPU engine closure).
            tracer: Observability sink; spans are recorded as
                query -> fragment -> exchange -> collective, with retry
                events on the exchange spans.  Null (free) by default.
            overlap_exchange: Overlap shuffle/broadcast sends with fragment
                compute — a *pipelined* fragment (streaming root) starts
                sending finished partitions while it is still computing, so
                part of the wire time hides behind the slowest node's
                compute.  Off by default (seed-identical).
        """
        self.cluster = cluster
        self.node_executor = node_executor
        self.overlap_exchange = overlap_exchange
        self.retry_events: list[ExchangeRetry] = []
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cluster.communicator.tracer = self.tracer
        self._cluster_clock = _ClusterClock(cluster)

    def run(
        self,
        fragments: list[Fragment],
        deadline_s: float | None = None,
        label: str = "",
    ) -> DistributedResult:
        cluster = self.cluster
        comm = cluster.communicator
        tracer = self.tracer
        start = cluster.max_clock()
        exchange_before = [n.clock.bucket("exchange") for n in cluster.nodes]
        bytes_before = comm.bytes_on_wire
        hidden_before = comm.overlap_hidden_s
        comm.overlap_budget_s = 0.0  # no stale budget from an aborted query
        retries_before = len(self.retry_events)
        trace_mark = tracer.mark()
        mem_peak = 0
        deadline = (
            Deadline(deadline_s, cluster.nodes[COORDINATOR].clock)
            if deadline_s is not None
            else None
        )

        with tracer.span(
            label or "distributed-query",
            kind="query",
            clock=self._cluster_clock,
            num_nodes=cluster.num_nodes,
            fragments=len(fragments),
        ) as qspan:
            # Control plane: coordinator checks membership, plans, dispatches.
            self._membership_check(fragments_done=0)
            other = COORDINATOR_OVERHEAD_S + DISPATCH_OVERHEAD_S * len(fragments)
            for node in cluster.nodes:
                node.clock.advance(other, category="other")

            temp_tables: list[dict[str, Table]] = [dict() for _ in cluster.nodes]
            consumers = self._consumer_index(fragments)
            result: Table | None = None

            for index, fragment in enumerate(fragments):
                self._membership_check(fragments_done=index)
                if deadline is not None:
                    deadline.check_at(cluster.max_clock())
                node_ids = (
                    [COORDINATOR]
                    if fragment.runs_on == "coordinator"
                    else range(cluster.num_nodes)
                )
                with tracer.span(
                    f"fragment-{index}",
                    kind="fragment",
                    clock=self._cluster_clock,
                    index=index,
                    runs_on=fragment.runs_on,
                ) as fspan:
                    outputs: dict[int, Table] = {}
                    frag_compute: dict[int, float] = {}
                    rows_out = 0
                    for node_id in node_ids:
                        node = cluster.nodes[node_id]
                        catalog = dict(node.catalog)
                        catalog.update(temp_tables[node_id])
                        plan = Plan(fragment.plan)
                        t0 = node.clock.now
                        outputs[node_id] = self.node_executor(node_id, plan, catalog)
                        frag_compute[node_id] = node.clock.now - t0
                        rows_out += outputs[node_id].num_rows
                        mem_peak = max(mem_peak, node.device.processing_pool.watermark)
                        node.heartbeat()  # progress doubles as liveness
                    fspan.set(rows_out=rows_out)

                    # Deregister consumed temporary tables (the runtime registry).
                    for ex_id in fragment.consumes:
                        consumers[ex_id] -= 1
                        if consumers[ex_id] == 0:
                            for per_node in temp_tables:
                                per_node.pop(f"__ex{ex_id}", None)

                    if fragment.output is None:
                        result = outputs[
                            COORDINATOR if fragment.runs_on == "coordinator" else 0
                        ]
                        continue
                    if (
                        self.overlap_exchange
                        and fragment.output.pipelined
                        and fragment.runs_on == "all"
                        and len(frag_compute) > 1
                    ):
                        # Pipelined fragment: sends started while nodes were
                        # still computing, so the collective may hide behind
                        # the *least* compute any participant had available.
                        comm.overlap_budget_s = min(frag_compute.values())
                    self._exchange(fragment, outputs, temp_tables)

            if result is None:
                raise RuntimeError("fragment list produced no result")

            end = cluster.align_clocks()
            if deadline is not None:
                deadline.check_at(end)
            qspan.set(rows_out=result.num_rows)

        total = end - start
        exchange = max(
            n.clock.bucket("exchange") - b for n, b in zip(cluster.nodes, exchange_before)
        )
        compute = max(total - exchange - other, 0.0)
        query_retries = self.retry_events[retries_before:]
        profile = QueryProfile(
            label=label,
            sim_seconds=total,
            breakdown={"compute": compute, "exchange": exchange, "other": other},
            compute_seconds=compute,
            exchange_seconds=exchange,
            other_seconds=other,
            exchanged_bytes=comm.bytes_on_wire - bytes_before,
            retries=len(query_retries),
            pipelines_run=len(fragments),
            output_rows=result.num_rows,
            device_mem_peak=mem_peak,
            spans=list(tracer.spans_since(trace_mark)),
            overlap_hidden_s=comm.overlap_hidden_s - hidden_before,
        )
        return DistributedResult(
            table=result,
            total_seconds=profile.sim_seconds,
            compute_seconds=profile.compute_seconds,
            exchange_seconds=profile.exchange_seconds,
            other_seconds=profile.other_seconds,
            exchanged_bytes=profile.exchanged_bytes,
            fragments_run=len(fragments),
            exchange_retries=len(query_retries),
            retry_events=query_retries,
            profile=profile,
        )

    # -- failure detection ----------------------------------------------------

    def _membership_check(self, fragments_done: int) -> None:
        """Coordinator-side liveness sweep at a fragment boundary.

        Scheduled crashes fire first (a crashed node stops beating); then
        every live node beats.  A silent node is declared dead only after
        ``heartbeat_timeout_s`` of silence — the coordinator blocks until
        the timeout elapses (that waiting is real detection latency,
        charged to every surviving clock), then raises
        :class:`NodeFailureError` for the host layer to recover from.
        """
        cluster = self.cluster
        cluster.apply_due_crashes()
        cluster.beat_all()
        dead = [n for n in cluster.nodes if not n.alive]
        if not dead:
            return
        detect_at = max(
            cluster.max_clock(),
            max(n.last_heartbeat + cluster.heartbeat_timeout_s for n in dead),
        )
        for node in cluster.nodes:
            if node.alive:
                node.clock.advance_to(detect_at, category="other")
        raise NodeFailureError([n.uid for n in dead], detect_at, fragments_done)

    # -- exchange data plane ------------------------------------------------

    def _exchange(self, fragment: Fragment, outputs: dict[int, Table], temp_tables) -> None:
        spec = fragment.output
        comm = self.cluster.communicator
        bytes_before = comm.bytes_on_wire
        with self.tracer.span(
            f"exchange.{spec.kind}",
            kind="exchange",
            clock=self._cluster_clock,
            table=spec.table_name,
        ) as xspan:
            self._exchange_inner(fragment, outputs, temp_tables)
            xspan.set(bytes=comm.bytes_on_wire - bytes_before)

    def _exchange_inner(
        self, fragment: Fragment, outputs: dict[int, Table], temp_tables
    ) -> None:
        spec = fragment.output
        comm = self.cluster.communicator
        n = self.cluster.num_nodes
        name = spec.table_name

        if spec.kind == "broadcast":
            full = concat_tables([outputs[i] for i in sorted(outputs)])
            self._collective(
                spec.kind,
                lambda: comm.all_to_all(
                    [[0 if i == j else outputs[i].nbytes for j in range(n)] for i in range(n)]
                ),
            )
            for node_id in range(n):
                temp_tables[node_id][name] = full
            return

        if spec.kind == "merge":
            sizes = [outputs[i].nbytes if i in outputs else 0 for i in range(n)]
            self._collective(spec.kind, lambda: comm.gather(COORDINATOR, sizes))
            merged = concat_tables([outputs[i] for i in sorted(outputs)])
            temp_tables[COORDINATOR][name] = merged
            return

        if spec.kind == "shuffle":
            partitions: list[list[Table]] = [[] for _ in range(n)]
            matrix = [[0] * n for _ in range(n)]
            for sender, table in outputs.items():
                for dest, piece in enumerate(table.partition(spec.key_ordinals, n)):
                    partitions[dest].append(piece)
                    matrix[sender][dest] = piece.nbytes
            self._collective(spec.kind, lambda: comm.all_to_all(matrix))
            for dest in range(n):
                temp_tables[dest][name] = concat_tables(partitions[dest])
            return

        raise ValueError(f"unknown exchange kind {spec.kind!r}")

    def _collective(self, kind: str, op: Callable[[], float]) -> float:
        """Run one collective, retrying with exponential backoff on
        transient link faults.

        Each retry's backoff is charged to *every* node's clock (the whole
        group waits on the failed collective), so retry cost shows up in
        the exchange bucket of the Table-2 breakdown.
        """
        attempt = 0
        while True:
            try:
                return op()
            except LinkDroppedError:
                attempt += 1
                if attempt > MAX_EXCHANGE_RETRIES:
                    raise
                backoff = RETRY_BACKOFF_S * (2 ** (attempt - 1))
                for node in self.cluster.nodes:
                    node.clock.advance(backoff, category="exchange")
                self.retry_events.append(
                    ExchangeRetry(kind, attempt, backoff, self.cluster.max_clock())
                )
                self.tracer.event(
                    "exchange-retry",
                    sim_time=self.cluster.max_clock(),
                    kind=kind,
                    attempt=attempt,
                    backoff_s=backoff,
                )

    def _consumer_index(self, fragments: list[Fragment]) -> dict[int, int]:
        counts: dict[int, int] = {}
        for f in fragments:
            for ex_id in f.consumes:
                counts[ex_id] = counts.get(ex_id, 0) + 1
        return counts
