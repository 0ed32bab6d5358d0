"""Hypothesis interleavings over the spill-fragment tier.

Partition fragments (``put_fragment`` / ``spill_fragment`` /
``get_fragment`` / ``drop_fragment``) walk device -> pinned host ->
simulated disk.  Random interleavings of those operations must preserve
the accounting invariants the profile's spill section and the admission
controller's footprint cap both rely on:

* every counter is non-negative, cumulative ones never decrease;
* ``pinned_fragment_bytes`` / ``disk_fragment_bytes`` equal the byte
  totals of the fragments actually sitting in those tiers;
* ``live_fragments`` equals the number of registered fragments;
* a fragment's contents survive any number of spill/unspill hops.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import Schema, Table
from repro.core import BufferManager
from repro.gpu import Device, GH200
from repro.kernels import GTable

SCHEMA = Schema([("a", "int64"), ("b", "float64")])
NAMES = ["f0", "f1", "f2", "f3"]


def make_table(rows: int, offset: int = 0) -> Table:
    return Table.from_pydict(
        {
            "a": list(range(offset, offset + rows)),
            "b": [float(i) * 0.5 for i in range(rows)],
        },
        SCHEMA,
    )


def fresh_manager(pinned_budget: int | None = None) -> BufferManager:
    device = Device(GH200, memory_limit_gb=0.01)
    bm = BufferManager(device)
    bm.pinned_fragment_budget = pinned_budget
    return bm


def tier_bytes(bm: BufferManager, location: str) -> int:
    return sum(
        frag.nbytes
        for frag in bm._fragments.values()
        if frag.location == location
    )


def check_invariants(bm: BufferManager) -> None:
    stats = bm.spill_stats()
    for key, value in stats.items():
        assert value >= 0, f"{key} went negative: {value}"
    assert stats["pinned_fragment_bytes"] == tier_bytes(bm, "pinned")
    assert stats["disk_fragment_bytes"] == tier_bytes(bm, "disk")
    assert stats["live_fragments"] == len(bm._fragments)
    # Cumulative traffic counters cover at least the current tier totals.
    assert stats["spilled_bytes"] >= stats["disk_fragment_bytes"]


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "spill", "get", "drop"]),
        st.sampled_from(NAMES),
    ),
    min_size=1,
    max_size=40,
)


class TestFragmentInterleavings:
    @given(ops=ops_strategy)
    @settings(max_examples=50, deadline=None)
    def test_accounting_invariants_hold(self, ops):
        bm = fresh_manager()
        contents = {}
        last_spilled = 0
        last_unspilled = 0
        for i, (op, name) in enumerate(ops):
            if op == "put":
                host = make_table(50, offset=i)
                bm.put_fragment(name, GTable.from_host(bm.device, host))
                contents[name] = host.to_rows()
            elif op == "spill":
                if name in bm._fragments:
                    bm.spill_fragment(name)
            elif op == "get":
                if name in bm._fragments:
                    got = bm.get_fragment(name)
                    assert bm.fragment_location(name) == "device"
                    assert got.to_host().to_rows() == contents[name]
            elif op == "drop":
                bm.drop_fragment(name)
                contents.pop(name, None)
            check_invariants(bm)
            stats = bm.spill_stats()
            assert stats["spilled_bytes"] >= last_spilled
            assert stats["unspilled_bytes"] >= last_unspilled
            last_spilled = stats["spilled_bytes"]
            last_unspilled = stats["unspilled_bytes"]
        bm.clear_fragments()
        stats = bm.spill_stats()
        assert stats["live_fragments"] == 0
        assert stats["pinned_fragment_bytes"] == 0
        assert stats["disk_fragment_bytes"] == 0

    @given(ops=ops_strategy)
    # Two live fragments spilled in turn: the second spill overflows the
    # budget, f0 goes to disk and is read back from there.
    @example(ops=[("put", "f0"), ("put", "f1"), ("spill", "f0"), ("spill", "f1"), ("get", "f0")])
    @settings(max_examples=25, deadline=None)
    def test_tiny_pinned_budget_demotes_to_disk(self, ops):
        """With a one-fragment pinned budget, spilling a second fragment
        demotes the LRU pinned one to disk — and every fragment still
        promotes back to the device intact."""
        bm = fresh_manager(pinned_budget=make_table(50).nbytes)
        contents = {}
        demotions = 0
        for i, (op, name) in enumerate(ops):
            if op == "put":
                host = make_table(50, offset=i)
                bm.put_fragment(name, GTable.from_host(bm.device, host))
                contents[name] = host.to_rows()
            elif op in ("spill", "drop") and name in bm._fragments:
                if op == "spill":
                    # All fragments are one size and the budget holds one.
                    if bm.fragment_location(name) == "device" and tier_bytes(bm, "pinned"):
                        demotions += 1
                    bm.spill_fragment(name)
                    assert bm.disk_spills == demotions
                else:
                    bm.drop_fragment(name)
                    contents.pop(name, None)
            elif op == "get" and name in bm._fragments:
                assert bm.get_fragment(name).to_host().to_rows() == contents[name]
            check_invariants(bm)
            assert bm.fragment_pinned_bytes <= bm.pinned_fragment_budget
        for name in list(bm._fragments):
            assert bm.get_fragment(name).to_host().to_rows() == contents[name]
        assert bm.device.disk_read_bytes <= bm.device.disk_write_bytes == bm.disk_spilled_bytes
