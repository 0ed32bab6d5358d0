"""MiniDoris: the distributed host database (the Apache Doris role).

The coordinator owns the control plane exactly as in §3.2.1/§3.3:
heartbeat-checked membership, SQL planning, plan fragmentation, fragment
dispatch, and global metadata.  Compute nodes execute fragments locally:

* **vanilla mode** — each node runs the Doris-style CPU engine, and data
  exchange uses the host's own (CPU) exchange service;
* **sirius mode** — each node converts its fragment to Substrait and hands
  it to a local :class:`~repro.core.SiriusEngine`; intermediate data moves
  through Sirius' NCCL-based exchange service layer instead.

A ClickHouse-style distributed baseline (broadcast GLOBAL joins) is also
provided for Table 2's third column.
"""

from __future__ import annotations

from ..columnar import Table
from ..core import SiriusEngine
from ..gpu.device import Device
from ..gpu.nccl import ETHERNET_100G, INFINIBAND_NDR
from ..gpu.specs import A100_40G, DeviceSpec, XEON_6526Y
from ..plan import Plan
from ..sql import SqlPlanner
from ..sql.optimizer import estimate_rows, optimize_plan
from .catalog import Catalog
from .clicklite import CLICKLITE_SPEC
from ..distributed.cluster import Cluster
from ..distributed.engine import DistributedExecutor, DistributedResult, NodeFailureError
from ..distributed.fragments import DistributedPlanner, DistributedUnsupportedError
from ..faults import FaultInjector
from .cpu_engine import CpuEngine

__all__ = ["MiniDoris", "DORIS_SPEC", "DistributedUnsupportedError", "NodeFailureError"]

# Doris compute nodes: same Xeon hardware as the paper's cluster, with the
# engine-efficiency profile of a JVM-based pipeline engine — notably lower
# effective bandwidth and per-row throughput than an embedded vectorised
# C++ engine.  (Calibrated against Table 2's Doris-vs-Sirius ratios.)
DORIS_SPEC = DeviceSpec(
    name="Doris node (Xeon Gold 6526Y, JVM engine profile)",
    kind="cpu",
    memory_gb=XEON_6526Y.memory_gb,
    memory_bw_gbps=90.0,
    random_access_efficiency=0.30,
    row_throughput_grows=0.35,
    kernel_launch_us=2.0,
    interconnect_gbps=XEON_6526Y.interconnect_gbps,
    interconnect_latency_us=XEON_6526Y.interconnect_latency_us,
)


class MiniDoris(Catalog):
    """A distributed warehouse with pluggable per-node execution engines.

    Modes:
        ``"doris"``      — vanilla CPU execution (the Table 2 baseline);
        ``"sirius"``     — GPU-native execution via per-node Sirius engines;
        ``"clickhouse"`` — ClickHouse-style distributed baseline
                           (broadcast joins, no correlated subqueries).
    """

    def __init__(
        self,
        num_nodes: int = 4,
        mode: str = "doris",
        gpus_per_node: int = 1,
        predicate_transfer: bool = False,
        heartbeat_timeout_s: float = 0.25,
        max_recoveries: int = 2,
        deadline_s: float | None = None,
        tracer=None,
        overlap: bool = False,
    ):
        if mode not in ("doris", "sirius", "clickhouse"):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__()
        self.mode = mode
        # Copy/compute overlap (sirius mode only): node engines stream cold
        # loads on their copy streams, and pipelined exchanges overlap
        # their sends with fragment compute.  Off by default.
        self.overlap = overlap and mode == "sirius"
        # One tracer spans the whole warehouse: the distributed executor
        # records query/fragment/exchange spans on the cluster clock, and
        # (in sirius mode) each node engine records its pipeline/operator
        # spans on that node's clock.  Null (zero-cost) by default.
        from ..obs import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.predicate_transfer = predicate_transfer
        # Sirius exchanges over InfiniBand via NCCL; the CPU hosts'
        # exchange services run on plain Ethernet-class throughput.
        fabric = INFINIBAND_NDR if mode == "sirius" else ETHERNET_100G

        if mode == "sirius":

            def factory(clock):
                return Device(A100_40G, clock=clock)

        else:
            spec = DORIS_SPEC if mode == "doris" else CLICKLITE_SPEC

            def factory(clock):
                return Device(spec, clock=clock)

        self.cluster = Cluster(
            num_nodes,
            device_factory=factory,
            fabric=fabric,
            gpus_per_node=gpus_per_node,
            heartbeat_timeout_s=heartbeat_timeout_s,
        )

        self._node_engines: list = []
        for node in self.cluster.nodes:
            self._node_engines.append(self._make_engine(node))
        self.executor = DistributedExecutor(
            self.cluster,
            self._run_on_node,
            tracer=self.tracer,
            overlap_exchange=self.overlap,
        )
        self.queries_executed = 0
        self.max_recoveries = max_recoveries
        self.deadline_s = deadline_s
        self.fault_injector: FaultInjector | None = None
        # Structured coordinator log: failure detections, re-executions,
        # per-fragment CPU degradations.
        self.event_log: list[dict] = []

    def _make_engine(self, node):
        if self.mode != "sirius":
            return CpuEngine(node.device, materialize_joins=(self.mode == "clickhouse"))
        engine = SiriusEngine(node.device, tracer=self.tracer, overlap=self.overlap)
        # Standby CPU device on the *same clock* as the node's GPU: the
        # cpu-plan degradation tier re-runs a failed fragment there,
        # so its (slower) execution time lands in the query total.
        standby = CpuEngine(Device(DORIS_SPEC, clock=node.device.clock))
        uid = node.uid

        def run_fragment_on_cpu(plan: Plan, catalog) -> Table:
            self.event_log.append(
                {
                    "event": "pipeline_cpu_fallback",
                    "node": uid,
                    "sim_time": standby.device.clock.now,
                }
            )
            return standby.execute(plan, catalog)

        engine.set_host_executor(run_fragment_on_cpu)
        return engine

    # -- catalog ----------------------------------------------------------

    def create_table(self, name: str, table: Table) -> None:
        """Distribute the table across the cluster; the coordinator keeps
        the global metadata (schemas + statistics)."""
        super().create_table(name, table)
        self.cluster.load_tables({name: table})

    def warm_caches(self) -> None:
        """Pre-load every node's local partitions into GPU memory (hot-run
        measurement methodology; no-op for CPU modes)."""
        if self.mode != "sirius":
            return
        for engine, node in zip(self._node_engines, self.cluster.nodes):
            engine.warm_cache(node.catalog)

    # -- planning ------------------------------------------------------------

    def plan_fragments(self, sql: str):
        planner = SqlPlanner(
            self.stats(),
            reorder_joins=(self.mode != "clickhouse"),
            allow_correlated_subqueries=(self.mode != "clickhouse"),
        )
        plan = planner.plan_sql(sql)
        row_counts = self.row_counts()
        plan = optimize_plan(plan, row_counts)
        fragmenter = DistributedPlanner(
            self.cluster.partitioning_of,
            prefer_broadcast_joins=(self.mode == "clickhouse"),
            predicate_transfer=self.predicate_transfer,
            estimate_rows=lambda rel: estimate_rows(rel, row_counts),
        )
        return fragmenter.plan(plan.root)

    # -- fault injection -------------------------------------------------------

    def install_faults(self, plan_or_injector) -> FaultInjector:
        """Attach a :class:`~repro.faults.FaultPlan` (or a prebuilt
        injector) to every layer of the warehouse: node devices, the
        exchange communicator, and cluster membership."""
        injector = (
            plan_or_injector
            if isinstance(plan_or_injector, FaultInjector)
            else FaultInjector(plan_or_injector)
        )
        self.fault_injector = injector
        injector.attach_cluster(self.cluster)
        return injector

    # -- execution ------------------------------------------------------------

    def execute(self, sql: str, deadline_s: float | None = None) -> DistributedResult:
        """Run a query; on a node failure, recover and re-execute.

        Failure handling follows Doris' coordinator model: a node whose
        heartbeats go silent is declared dead, evicted from membership,
        the lost partitions are re-distributed among the survivors, and
        the query's fragments re-execute from the start.  The failed
        attempt's time (including detection latency) stays on the clocks,
        so recovery cost is visible in the query total.
        """
        if deadline_s is None:
            deadline_s = self.deadline_s
        recoveries = 0
        while True:
            fragments = self.plan_fragments(sql)
            try:
                result = self.executor.run(
                    fragments,
                    deadline_s=deadline_s,
                    label=" ".join(sql.split())[:80],
                )
            except NodeFailureError as failure:
                recoveries += 1
                if recoveries > self.max_recoveries:
                    raise
                self._recover(failure)
                continue
            self.queries_executed += 1
            return result

    def _recover(self, failure: NodeFailureError) -> None:
        self.event_log.append(
            {
                "event": "node_failure_detected",
                "dead_nodes": sorted(failure.dead_uids),
                "sim_time": failure.detected_at,
                "fragments_done": failure.fragments_done,
            }
        )
        doomed = set(failure.dead_uids)
        surviving_engines = [
            engine
            for engine, node in zip(self._node_engines, self.cluster.nodes)
            if node.uid not in doomed
        ]
        self.cluster.remove_nodes(sorted(doomed))  # raises if coordinator died
        self._node_engines = surviving_engines
        if self.mode == "sirius":
            # Surviving GPUs hold partitions laid out for the old
            # membership; evict before re-partitioning (reload is charged
            # lazily on next access).
            for engine in self._node_engines:
                engine.buffer_manager.clear()
        self.cluster.load_tables(self.tables)
        self.event_log.append(
            {
                "event": "fragments_reexecuted",
                "surviving_nodes": [n.uid for n in self.cluster.nodes],
                "sim_time": self.cluster.max_clock(),
            }
        )

    def _run_on_node(self, node_id: int, plan: Plan, catalog: dict) -> Table:
        engine = self._node_engines[node_id]
        if self.mode == "sirius":
            table = engine.execute(plan, catalog)
            # Exchange temporaries are per-fragment: evict them so a later
            # exchange reusing the id never reads stale cached data.
            for name in list(catalog):
                if name.startswith("__ex"):
                    engine.drop_cached(name)
            return table
        return engine.execute(plan, catalog)

    def node_stats(self) -> list[dict]:
        if self.mode == "sirius":
            return [e.stats() for e in self._node_engines]
        return [{"queries_executed": e.queries_executed} for e in self._node_engines]
