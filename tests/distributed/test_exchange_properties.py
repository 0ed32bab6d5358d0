"""Property tests on the exchange data plane: conservation + placement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Schema, Table
from repro.distributed import Cluster, DistributedExecutor, ExchangeSpec, Fragment
from repro.distributed.cluster import partition_table
from repro.distributed.engine import _partition_ids
from repro.gpu.specs import M7I_CPU
from repro.gpu.device import Device
from repro.hosts import CpuEngine
from repro.kernels import factorize_keys, hash_partition_ids
from repro.plan import ReadRel
from tests.kernels.test_properties import partition_case

SCHEMA = Schema([("k", "int64"), ("v", "float64")])


def make_cluster(n=4):
    return Cluster(num_nodes=n, device_factory=lambda c: Device(M7I_CPU, clock=c))


def run_fragments(cluster, fragments, catalogs):
    engines = [CpuEngine(node.device) for node in cluster.nodes]
    for node, catalog in zip(cluster.nodes, catalogs):
        node.catalog.update(catalog)
    executor = DistributedExecutor(cluster, lambda nid, plan, cat: engines[nid].execute(plan, cat))
    return executor.run(fragments)


def node_tables(values_per_node):
    return [
        {"t": Table.from_pydict(
            {"k": vals, "v": [float(v) for v in vals]}, SCHEMA
        )}
        for vals in values_per_node
    ]


class TestShuffleConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 30), max_size=25), min_size=4, max_size=4
        )
    )
    def test_shuffle_preserves_multiset(self, per_node):
        """A shuffle must move every row exactly once: the union of received
        partitions equals the union of inputs."""
        cluster = make_cluster(4)
        read = ReadRel("t", SCHEMA)
        spec = ExchangeSpec(0, "shuffle", [0], SCHEMA)
        fragments = [
            Fragment(0, read, spec, "all", []),
            Fragment(1, ReadRel("__ex0", SCHEMA), None, "all", [0]),
        ]
        # The final "all" fragment returns node 0's share; inspect the temp
        # tables through a probing executor instead.
        received = []

        def executor_fn(nid, plan, catalog):
            table = CpuEngine(cluster.nodes[nid].device).execute(plan, catalog)
            if plan.root.table_name == "__ex0":
                received.append((nid, table))
            return table

        for node, catalog in zip(cluster.nodes, node_tables(per_node)):
            node.catalog.update(catalog)
        DistributedExecutor(cluster, executor_fn).run(fragments)

        sent = sorted(v for vals in per_node for v in vals)
        got = sorted(v for _, t in received for v in t["k"].to_pylist())
        assert got == sent

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=60))
    def test_partition_ids_stable_and_in_range(self, values):
        t = Table.from_pydict({"k": values, "v": [0.0] * len(values)}, SCHEMA)
        ids1 = _partition_ids(t, [0], 4)
        ids2 = _partition_ids(t, [0], 4)
        assert (ids1 == ids2).all()
        assert ids1.min() >= 0 and ids1.max() < 4

    def test_equal_keys_land_together_across_tables(self):
        a = Table.from_pydict({"k": [5, 9], "v": [0.0, 0.0]}, SCHEMA)
        b = Table.from_pydict({"k": [9, 5], "v": [1.0, 1.0]}, SCHEMA)
        ia = _partition_ids(a, [0], 4)
        ib = _partition_ids(b, [0], 4)
        assert ia[0] == ib[1] and ia[1] == ib[0]


# NaN and inf float keys hash through an int64 cast; equal keys still agree.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
class TestShuffleContract:
    """The shuffle router against the three things it must agree with:
    key equality, the kernel library's partition hash, and base-table
    placement."""

    @settings(max_examples=300, deadline=None)
    @given(partition_case(), st.sampled_from([2, 3, 4, 8]))
    def test_equal_keys_reach_one_node_and_match_the_kernel_hash(self, case, nodes):
        _dev, cols, _level, _fanout = case
        host = Table(
            Schema([(f"k{i}", c.dtype) for i, c in enumerate(cols)]),
            [c.to_host(False) for c in cols],  # garbage under NULL slots kept
        )
        ids = _partition_ids(host, range(len(cols)), nodes)
        assert ((ids >= 0) & (ids < nodes)).all()

        key_codes, _, _ = factorize_keys(cols, nulls_match=True)
        placed = set(zip(key_codes.tolist(), ids.tolist()))
        assert len(placed) == len(set(key_codes.tolist())), "one key, two nodes"

        # One integer key goes by modulo, which is the kernel hash only
        # where the key is not negative; everything else is the same mix.
        same = np.ones(len(ids), dtype=np.bool_)
        if len(cols) == 1 and (cols[0].dtype.is_integer or cols[0].dtype.is_temporal):
            same = ~cols[0].valid_mask() | (cols[0].data >= 0)
        kernel_ids = hash_partition_ids(cols, nodes)
        assert (ids[same] == kernel_ids[same]).all()

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
        st.sampled_from([2, 3, 4, 8]),
    )
    def test_single_integer_key_follows_base_table_placement(self, values, nodes):
        t = Table.from_pydict({"k": values, "v": [0.0] * len(values)}, SCHEMA)
        ids = _partition_ids(t, [0], nodes)
        for node, part in enumerate(partition_table(t, "k", nodes)):
            assert part["k"].to_pylist() == t.mask(ids == node)["k"].to_pylist()


class TestMergeAndBroadcast:
    def test_merge_collects_everything_on_coordinator(self):
        cluster = make_cluster(3)
        read = ReadRel("t", SCHEMA)
        spec = ExchangeSpec(0, "merge", [], SCHEMA)
        fragments = [
            Fragment(0, read, spec, "all", []),
            Fragment(1, ReadRel("__ex0", SCHEMA), None, "coordinator", [0]),
        ]
        catalogs = node_tables([[1, 2], [3], [4, 5, 6]])
        result = run_fragments(cluster, fragments, catalogs)
        assert sorted(result.table["k"].to_pylist()) == [1, 2, 3, 4, 5, 6]

    def test_broadcast_replicates_to_all(self):
        cluster = make_cluster(3)
        read = ReadRel("t", SCHEMA)
        spec = ExchangeSpec(0, "broadcast", [], SCHEMA)
        counts = []

        def executor_fn(nid, plan, catalog):
            table = CpuEngine(cluster.nodes[nid].device).execute(plan, catalog)
            if plan.root.table_name == "__ex0":
                counts.append(table.num_rows)
            return table

        fragments = [
            Fragment(0, read, spec, "all", []),
            Fragment(1, ReadRel("__ex0", SCHEMA), None, "all", [0]),
        ]
        for node, catalog in zip(cluster.nodes, node_tables([[1], [2, 3], [4]])):
            node.catalog.update(catalog)
        DistributedExecutor(cluster, executor_fn).run(fragments)
        assert counts == [4, 4, 4]  # every node sees the full table

    def test_exchange_charges_wire_time(self):
        cluster = make_cluster(2)
        read = ReadRel("t", SCHEMA)
        spec = ExchangeSpec(0, "shuffle", [0], SCHEMA)
        fragments = [
            Fragment(0, read, spec, "all", []),
            Fragment(1, ReadRel("__ex0", SCHEMA), None, "all", [0]),
        ]
        catalogs = node_tables([list(range(1000)), list(range(1000, 2000))])
        result = run_fragments(cluster, fragments, catalogs)
        assert result.exchange_seconds > 0
        assert result.exchanged_bytes > 0
