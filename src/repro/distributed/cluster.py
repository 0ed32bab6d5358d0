"""The simulated cluster: nodes, per-node clocks/devices, data partitioning.

Reproduces the paper's 4xA100 setup: each node owns one execution device
(a GPU for Sirius mode, a CPU for the Doris baseline) and a horizontal
partition of every large table; small tables are replicated.  Nodes run in
parallel — each has its own :class:`~repro.gpu.clock.SimClock` — and the
exchange layer's collectives are the only synchronisation points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..columnar import Table
from ..gpu.clock import SimClock
from ..gpu.device import Device
from ..gpu.nccl import Communicator, Fabric, INFINIBAND_NDR, NVLINK_P2P
from ..gpu.specs import A100_40G

__all__ = ["ClusterNode", "Cluster", "partition_table", "REPLICATED_TABLES"]

# TPC-H tables small enough that every node keeps a full copy (standard
# distributed-warehouse practice; Doris calls these "replicated" tables).
REPLICATED_TABLES = frozenset({"region", "nation", "supplier", "part", "partsupp", "customer"})

# Hash-partition key per distributed table.  These follow Doris-style
# defaults (distribute facts by their foreign keys): orders by customer,
# lineitem by part.  Joining orders with lineitem on orderkey therefore
# requires shuffling *both* sides — exactly the Q3 exchange pattern the
# paper's Table 2 breakdown observes.
PARTITION_KEYS = {
    "orders": "o_custkey",
    "lineitem": "l_partkey",
    "customer": "c_custkey",
    "part": "p_partkey",
    "partsupp": "ps_partkey",
    "supplier": "s_suppkey",
}


def partition_table(table: Table, key: str, num_partitions: int) -> list[Table]:
    """Hash-partition a host table on ``key`` into ``num_partitions`` parts
    with the shuffle's hash, so co-partitioned tables and shuffled rows
    with equal keys share a node — which is what makes their join local."""
    return table.partition([table.schema.index_of(key)], num_partitions)


@dataclass
class ClusterNode:
    """One execution rank: a device plus its local table partitions.

    With the multi-GPU extension several ranks share a host (``host_id``);
    they exchange over NVLink peer links instead of the network.

    ``node_id`` is the node's current rank (renumbered when membership
    changes); ``uid`` is the stable identity assigned at birth, which is
    what fault plans and the coordinator's event log refer to.
    """

    node_id: int
    device: Device
    catalog: dict[str, Table] = field(default_factory=dict)
    alive: bool = True
    last_heartbeat: float = 0.0
    host_id: int = 0
    uid: int = -1

    def __post_init__(self) -> None:
        if self.uid < 0:
            self.uid = self.node_id

    @property
    def clock(self) -> SimClock:
        return self.device.clock

    def heartbeat(self) -> None:
        """The node refreshes its own liveness timestamp.

        Only the node itself beats — a crashed node stays silent, which is
        what makes it detectable.  (The seed version let the *coordinator*
        call this on every node, resurrecting the dead.)
        """
        if not self.alive:
            return
        self.last_heartbeat = self.clock.now

    def crash(self) -> None:
        """The node halts: it stops heartbeating and never executes
        another fragment.  Its clock freezes at the crash instant."""
        self.alive = False


class Cluster:
    """A fixed group of nodes with a shared fabric."""

    def __init__(
        self,
        num_nodes: int = 4,
        device_factory: Callable[[SimClock], Device] | None = None,
        fabric: Fabric = INFINIBAND_NDR,
        gpus_per_node: int = 1,
        intra_node_fabric: Fabric | None = None,
        heartbeat_timeout_s: float = 0.25,
    ):
        """
        Args:
            num_nodes: Host count (the paper uses 4).
            device_factory: Builds each rank's device around a fresh clock;
                defaults to A100-40G GPUs (the paper's cluster).
            fabric: Inter-host interconnect (default: 4x NDR InfiniBand).
            gpus_per_node: Ranks per host (§3.4's multi-GPU extension);
                total execution ranks = ``num_nodes * gpus_per_node``.
            intra_node_fabric: Link between ranks sharing a host (default:
                NVLink peer-to-peer).
            heartbeat_timeout_s: Simulated seconds of heartbeat silence
                after which the coordinator declares a node dead.
        """
        if num_nodes < 1 or gpus_per_node < 1:
            raise ValueError("cluster needs at least one node and one device per node")
        if heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat timeout must be positive")
        if device_factory is None:

            def device_factory(clock):
                return Device(A100_40G, clock=clock)

        self.gpus_per_node = gpus_per_node
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._intra_node_fabric = (
            intra_node_fabric if intra_node_fabric is not None else NVLINK_P2P
        )
        self.fault_injector = None
        self.nodes = []
        for rank in range(num_nodes * gpus_per_node):
            node = ClusterNode(rank, device_factory(SimClock()), host_id=rank // gpus_per_node)
            self.nodes.append(node)
        self.fabric = fabric
        self._build_communicator()

    def _build_communicator(self) -> None:
        """(Re)build the collective group over the current membership."""

        def fabric_for(i: int, j: int):
            if self.nodes[i].host_id == self.nodes[j].host_id:
                return self._intra_node_fabric
            return None  # default inter-host fabric

        self.communicator = Communicator(
            [n.clock for n in self.nodes],
            self.fabric,
            fabric_for=fabric_for if self.gpus_per_node > 1 else None,
        )
        if self.fault_injector is not None:
            self.fault_injector.attach_communicator(self.communicator)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def load_tables(self, tables: Mapping[str, Table]) -> None:
        """Distribute a database: partition large tables, replicate small."""
        for name, table in tables.items():
            if name in REPLICATED_TABLES or name not in PARTITION_KEYS:
                for node in self.nodes:
                    node.catalog[name] = table
            else:
                parts = partition_table(table, PARTITION_KEYS[name], self.num_nodes)
                for node, part in zip(self.nodes, parts):
                    node.catalog[name] = part

    def partitioning_of(self, table_name: str) -> str | None:
        """The partition column of a distributed table (None = replicated)."""
        if table_name in REPLICATED_TABLES:
            return None
        return PARTITION_KEYS.get(table_name)

    def beat_all(self) -> None:
        """Every live node refreshes its own heartbeat (the data-plane
        side channel: nodes beat whenever they make progress)."""
        for node in self.nodes:
            node.heartbeat()

    def active_nodes(self, now: float | None = None) -> list[ClusterNode]:
        """Heartbeat-checked membership (the coordinator's view).

        A node is live iff its last self-reported heartbeat is within
        ``heartbeat_timeout_s`` of ``now``.  The coordinator deliberately
        does *not* read node-internal state: a crashed node is only
        detectable through heartbeat silence, after the timeout elapses.
        """
        if now is None:
            now = self.max_clock()
        return [
            n for n in self.nodes if now - n.last_heartbeat <= self.heartbeat_timeout_s
        ]

    def apply_due_crashes(self) -> list[int]:
        """Fire any scheduled node crashes whose time has come; returns
        the uids of nodes that just died."""
        if self.fault_injector is None:
            return []
        due = self.fault_injector.due_crashes(self.max_clock())
        crashed = []
        for node in self.nodes:
            if node.uid in due and node.alive:
                node.crash()
                crashed.append(node.uid)
        return crashed

    def remove_nodes(self, uids: list[int]) -> None:
        """Evict dead nodes from membership and renumber the survivors.

        The coordinator (rank 0) is not evictable — losing it is
        unrecoverable, exactly as in Doris.  Surviving nodes keep their
        clocks (recovery time stays visible in query totals); the
        collective group is rebuilt over the survivors.
        """
        doomed = set(uids)
        if self.nodes[0].uid in doomed:
            raise RuntimeError("cannot remove the coordinator node")
        survivors = [n for n in self.nodes if n.uid not in doomed]
        if len(survivors) == len(self.nodes):
            return
        if not survivors:
            raise RuntimeError("cannot remove every node")
        for rank, node in enumerate(survivors):
            node.node_id = rank
        self.nodes = survivors
        self._build_communicator()

    def max_clock(self) -> float:
        return max(n.clock.now for n in self.nodes)

    def align_clocks(self, category: str | None = None) -> float:
        """Barrier: advance every node to the latest local time."""
        latest = self.max_clock()
        for node in self.nodes:
            node.clock.advance_to(latest, category)
        return latest
