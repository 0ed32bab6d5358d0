"""Property tests on the exchange data plane: conservation + placement.

Base-table placement, the shuffle and the kernel library's radix
partitioner are one hash (``columnar._keys.partition_ids``); these tests
hold the three to equal ids on every input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import INT64, Column, Schema, Table
from repro.distributed import Cluster, DistributedExecutor, ExchangeSpec, Fragment
from repro.distributed.cluster import partition_table
from repro.gpu.specs import M7I_CPU
from repro.gpu.device import Device
from repro.hosts import CpuEngine
from repro.kernels import GTable, factorize_keys, hash_partition_ids
from repro.plan import ReadRel
from tests.columnar.test_keys import assert_same_table, host_tables
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
        ids1 = shuffle_ids(t, [0], 4)
        ids2 = shuffle_ids(t, [0], 4)
        assert (ids1 == ids2).all()
        assert ids1.min() >= 0 and ids1.max() < 4

    def test_equal_keys_land_together_across_tables(self):
        a = Table.from_pydict({"k": [5, 9], "v": [0.0, 0.0]}, SCHEMA)
        b = Table.from_pydict({"k": [9, 5], "v": [1.0, 1.0]}, SCHEMA)
        ia = shuffle_ids(a, [0], 4)
        ib = shuffle_ids(b, [0], 4)
        assert ia[0] == ib[1] and ia[1] == ib[0]


def shuffle_ids(table, key_ordinals, nodes):
    """The node the shuffle sends each row of ``table`` to, read off the
    pieces ``Table.partition`` cuts; each piece keeps source order."""
    numbered = table.with_column("__row", Column(INT64, np.arange(table.num_rows)))
    ids = np.full(table.num_rows, -1)
    for node, piece in enumerate(numbered.partition(key_ordinals, nodes)):
        rows = piece["__row"].data
        assert (np.diff(rows) > 0).all(), "a piece left source order"
        ids[rows] = node
    return ids


# NaN and inf float keys hash through an int64 cast; equal keys still agree.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
class TestShuffleContract:
    """One placement: the shuffle, the kernel library's partition hash and
    base-table placement send every row to the same node, for every key
    dtype, NULL pattern and node count."""

    @settings(max_examples=300, deadline=None)
    @given(partition_case(), st.sampled_from([2, 3, 4, 8]))
    def test_equal_keys_reach_one_node_and_match_the_kernel_hash(self, case, nodes):
        _dev, cols, _level, _fanout = case
        host = Table(
            Schema([(f"k{i}", c.dtype) for i, c in enumerate(cols)]),
            [c.to_host(False) for c in cols],  # garbage under NULL slots kept
        )
        ids = shuffle_ids(host, range(len(cols)), nodes)
        assert ((ids >= 0) & (ids < nodes)).all()

        key_codes, _, _ = factorize_keys(cols, nulls_match=True)
        placed = set(zip(key_codes.tolist(), ids.tolist()))
        assert len(placed) == len(set(key_codes.tolist())), "one key, two nodes"

        assert (ids == hash_partition_ids(cols, nodes)).all()
        if len(cols) == 1:
            placement = partition_table(host, "k0", nodes)
            for node, part in enumerate(placement):
                assert_same_table(part, host.mask(ids == node))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40),
        st.sampled_from([2, 3, 4, 8]),
    )
    def test_single_integer_key_follows_base_table_placement(self, values, nodes):
        t = Table.from_pydict({"k": values, "v": [0.0] * len(values)}, SCHEMA)
        ids = shuffle_ids(t, [0], nodes)
        dev = Device(M7I_CPU)
        assert (ids == hash_partition_ids([GTable.from_host(dev, t).column("k")], nodes)).all()
        for node, part in enumerate(partition_table(t, "k", nodes)):
            assert part["k"].to_pylist() == t.mask(ids == node)["k"].to_pylist()


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
class TestShuffleThenMerge:
    """A shuffle followed by a merge over random per-node tables — every
    dtype, NULLs with garbage under them, a different string dictionary on
    each node, negative and extreme integers — delivers a permutation of
    the input to the coordinator, and equal keys meet on one node."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4, 8]).flatmap(lambda n: host_tables(n)), st.data())
    def test_permutation_of_the_input_with_equal_keys_on_one_node(self, per_node, data):
        nodes = len(per_node)
        schema = per_node[0].schema
        keys = data.draw(
            st.lists(st.sampled_from(range(len(schema))), min_size=1, unique=True), "keys"
        )
        cluster = make_cluster(nodes)
        for node, table in zip(cluster.nodes, per_node):
            node.catalog["t"] = table
        fragments = [
            Fragment(0, ReadRel("t", schema), ExchangeSpec(0, "shuffle", keys, schema), "all", []),
            Fragment(1, ReadRel("__ex0", schema), ExchangeSpec(1, "merge", [], schema), "all", [0]),
            Fragment(2, ReadRel("__ex1", schema), None, "coordinator", [1]),
        ]
        received = {}

        def executor_fn(nid, plan, catalog):
            table = CpuEngine(cluster.nodes[nid].device).execute(plan, catalog)
            if plan.root.table_name == "__ex0":
                received[nid] = table
            return table

        result = DistributedExecutor(cluster, executor_fn).run(fragments)

        assert sorted(rows_of(result.table)) == sorted(r for t in per_node for r in rows_of(t))
        home = {}
        for nid, table in received.items():
            for row in rows_of(table):
                key = tuple(row[k] for k in keys)
                assert home.setdefault(key, nid) == nid, f"key {key} on two nodes"


def rows_of(table):
    """Rows as comparable tuples (``repr`` keeps NaN equal to NaN)."""
    return [tuple(repr(v) for v in row) for row in table.to_rows()]


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
