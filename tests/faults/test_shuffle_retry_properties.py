"""Property: shuffle retry under link faults never loses or duplicates rows.

Hypothesis drives random per-node data, a random number of injected link
drops, and a random fault-plan seed; the exchange layer must retry each
dropped collective (charging backoff to the sim clock) and deliver the
exact input multiset.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Schema, Table
from repro.distributed import Cluster, DistributedExecutor, ExchangeSpec, Fragment
from repro.faults import FaultInjector, FaultPlan
from repro.gpu.device import Device
from repro.gpu.specs import M7I_CPU
from repro.hosts import CpuEngine
from repro.plan import ReadRel

SCHEMA = Schema([("k", "int64"), ("v", "float64")])


def shuffle_fragments():
    return [
        Fragment(0, ReadRel("t", SCHEMA), ExchangeSpec(0, "shuffle", [0], SCHEMA), "all", []),
        Fragment(1, ReadRel("__ex0", SCHEMA), None, "all", [0]),
    ]


def run_shuffle_with_drops(per_node, drops, seed):
    cluster = Cluster(num_nodes=4, device_factory=lambda c: Device(M7I_CPU, clock=c))
    plan = FaultPlan(seed=seed)
    if drops:
        plan.drop_links(at=0.0, count=drops)
    injector = FaultInjector(plan)
    injector.attach_communicator(cluster.communicator)
    received = []

    def executor_fn(nid, plan, catalog):
        table = CpuEngine(cluster.nodes[nid].device).execute(plan, catalog)
        if plan.root.table_name == "__ex0":
            received.append((nid, table))
        return table

    for node, vals in zip(cluster.nodes, per_node):
        node.catalog["t"] = Table.from_pydict(
            {"k": vals, "v": [float(v) for v in vals]}, SCHEMA
        )
    executor = DistributedExecutor(cluster, executor_fn)
    executor.run(shuffle_fragments())
    return cluster, executor, received


class TestShuffleRetryConservation:
    @settings(max_examples=30, deadline=None)
    @given(
        per_node=st.lists(
            st.lists(st.integers(0, 30), max_size=25), min_size=4, max_size=4
        ),
        drops=st.integers(0, 4),
        seed=st.integers(0, 1000),
    )
    def test_retry_preserves_multiset(self, per_node, drops, seed):
        cluster, executor, received = run_shuffle_with_drops(per_node, drops, seed)
        sent = sorted(v for vals in per_node for v in vals)
        got = sorted(v for _, t in received for v in t["k"].to_pylist())
        assert got == sent
        # Every drop costs exactly one retry (drops < MAX_EXCHANGE_RETRIES,
        # so nothing escalates), and each is visible in both logs.
        assert len(executor.retry_events) == drops
        assert cluster.communicator.dropped_collectives == drops

    def test_backoff_charged_to_sim_clock(self):
        per_node = [[1, 2, 3], [4, 5], [6], [7, 8, 9]]
        clean_cluster, _, _ = run_shuffle_with_drops(per_node, 0, seed=0)
        fault_cluster, executor, _ = run_shuffle_with_drops(per_node, 3, seed=0)
        assert fault_cluster.max_clock() > clean_cluster.max_clock()
        backoffs = [e.backoff_s for e in executor.retry_events]
        # Exponential: each subsequent retry doubles the previous backoff.
        assert backoffs == sorted(backoffs)
        assert backoffs[1] == pytest.approx(2 * backoffs[0])

    def test_exhausted_retries_escalate(self):
        from repro.gpu import LinkDroppedError

        per_node = [[1], [2], [3], [4]]
        with pytest.raises(LinkDroppedError):
            run_shuffle_with_drops(per_node, 50, seed=0)
