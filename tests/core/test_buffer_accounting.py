"""Buffer-manager accounting regressions and stats invariants.

Pins the accounting bugs fixed alongside the copy/compute-overlap work:

* dropping (or clearing) a *spilled* entry must release its
  ``pinned_host_bytes`` — previously the counter stayed inflated forever,
  and eviction-driven spill/unspill cycles keep it exact;
* spill traffic streams from/to pinned host memory and is priced as
  such (see ``TestPinnedTransferPricing`` in tests/gpu for the rate).

Plus a hypothesis interleaving of ``get_table``/``drop`` under a live
``active_queries`` set asserting the stats invariants that the fixes
restore: no counter ever goes negative, and ``pinned_host_bytes`` always
equals the bytes of the currently-spilled entries.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Schema, Table
from repro.core import BufferManager
from repro.gpu import Device, GH200

SCHEMA = Schema([("a", "int64"), ("b", "float64")])


def make_table(rows: int) -> Table:
    return Table.from_pydict(
        {"a": list(range(rows)), "b": [float(i) for i in range(rows)]}, SCHEMA
    )


def fitted_device(n_tables_resident: float, rows: int = 1000) -> Device:
    """Device whose caching region holds ~n_tables_resident such tables."""
    table_bytes = make_table(rows).nbytes
    limit_gb = (table_bytes * n_tables_resident * 2) / (1024**3)  # 50% split
    return Device(GH200, memory_limit_gb=limit_gb)


class TestDropAccounting:
    def test_drop_spilled_entry_releases_pinned_bytes(self):
        device = fitted_device(1.2)
        bm = BufferManager(device)
        bm.get_table("a", make_table(1000))
        bm.get_table("b", make_table(1000))  # spills "a"
        assert bm._cache["a"].location == "pinned"
        assert bm.pinned_host_bytes > 0
        bm.drop("a")
        assert bm.pinned_host_bytes == 0
        assert bm.cached_tables() == ["b"]

    def test_clear_with_spilled_entries_zeroes_pinned_bytes(self):
        device = fitted_device(1.2)
        bm = BufferManager(device)
        for name in ("a", "b", "c"):
            bm.get_table(name, make_table(1000))
        spilled = [e for e in bm._cache.values() if e.location == "pinned"]
        assert len(spilled) == 2
        bm.clear()
        assert bm.pinned_host_bytes == 0
        assert bm.cached_tables() == []
        assert device.caching_region.used == 0

    def test_drop_device_entry_leaves_pinned_bytes_alone(self):
        device = fitted_device(1.2)
        bm = BufferManager(device)
        bm.get_table("a", make_table(1000))
        bm.get_table("b", make_table(1000))  # spills "a"
        before = bm.pinned_host_bytes
        bm.drop("b")  # device-resident: frees device bytes only
        assert bm.pinned_host_bytes == before
        bm.drop("a")
        assert bm.pinned_host_bytes == 0

    def test_drop_unknown_name_is_a_noop(self):
        bm = BufferManager(fitted_device(1.2))
        bm.drop("never-loaded")
        assert bm.pinned_host_bytes == 0


class TestSpillCycles:
    def test_natural_thrash_keeps_pinned_bytes_exact(self):
        """Eviction-driven spill/unspill cycles (not direct _spill calls):
        ``pinned_host_bytes`` always equals the spilled entries' bytes."""
        device = fitted_device(1.2)  # one table resident at a time
        bm = BufferManager(device)
        tables = {"a": make_table(1000), "b": make_table(1000)}
        for i in range(8):
            name = "a" if i % 2 == 0 else "b"
            bm.get_table(name, tables[name])
            spilled = sum(
                e.nbytes for e in bm._cache.values() if e.location == "pinned"
            )
            assert bm.pinned_host_bytes == spilled
        assert bm.spills >= 3 and bm.unspills >= 3
        assert bm.pinned_host_bytes == tables["a"].nbytes


NAMES = ("a", "b", "c", "d")
TABLES = {name: make_table(1000) for name in NAMES}

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["get", "drop"]),
        st.sampled_from(NAMES),
        st.sampled_from(["q1", "q2"]),
    ),
    min_size=1,
    max_size=40,
)


class TestStatsInvariants:
    @given(ops=ops_strategy)
    @settings(max_examples=50, deadline=None)
    def test_interleaved_ops_keep_accounting_consistent(self, ops):
        """Any interleaving of loads, hits, drops, and the spills they
        force (region fits ~2 of 4 tables) keeps the counters coherent."""
        device = fitted_device(2.2)
        bm = BufferManager(device)
        bm.active_queries = {"q1"}
        for op, name, user in ops:
            device.query_owner = user
            if op == "get":
                bm.get_table(name, TABLES[name])
            else:
                bm.drop(name)
        stats = bm.stats()
        assert all(v >= 0 for v in stats.values()), stats
        live_pinned = sum(
            e.nbytes for e in bm._cache.values() if e.location == "pinned"
        )
        assert bm.pinned_host_bytes == live_pinned
        assert all(
            e.gtable is not None
            for e in bm._cache.values()
            if e.location == "device"
        )
        bm.clear()
        assert bm.pinned_host_bytes == 0
        assert device.caching_region.used == 0

    @given(ops=ops_strategy)
    @settings(max_examples=25, deadline=None)
    def test_interleaved_ops_with_overlap_on(self, ops):
        """The same invariants hold in overlap mode, where loads leave
        in-flight copy-stream events behind."""
        device = fitted_device(2.2)
        bm = BufferManager(device, overlap=True)
        for op, name, user in ops:
            device.query_owner = user
            if op == "get":
                bm.get_table(name, TABLES[name])
            else:
                bm.drop(name)
        bm.complete_loads()
        stats = bm.stats()
        assert all(v >= 0 for v in stats.values()), stats
        live_pinned = sum(
            e.nbytes for e in bm._cache.values() if e.location == "pinned"
        )
        assert bm.pinned_host_bytes == live_pinned
        bm.clear()
        assert bm.pinned_host_bytes == 0
        assert device.caching_region.used == 0
        assert not bm._in_flight and not bm._must_sync
