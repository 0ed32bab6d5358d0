"""Unit tests for Sirius' buffer manager: caching, spilling, conversions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Schema, Table
from repro.core import BufferManager
from repro.gpu import Device, GH200, OutOfDeviceMemory

INT32_MAX = 2**31 - 1


def make_table(rows: int, name_prefix="v") -> Table:
    schema = Schema([("a", "int64"), ("b", "float64")])
    return Table.from_pydict(
        {"a": list(range(rows)), "b": [float(i) for i in range(rows)]}, schema
    )


@pytest.fixture
def device():
    return Device(GH200, memory_limit_gb=0.001)  # 1 MB: 500 KB caching


@pytest.fixture
def bm(device):
    return BufferManager(device)


class TestCaching:
    def test_cold_then_hot(self, bm):
        t = make_table(100)
        g1 = bm.get_table("t", t)
        g2 = bm.get_table("t", t)
        assert g1 is g2
        assert bm.cold_loads == 1 and bm.hot_hits == 1

    def test_cold_load_charges_transfer(self, bm, device):
        before = device.htod_bytes
        bm.get_table("t", make_table(100))
        assert device.htod_bytes > before
        hot_before = device.htod_bytes
        bm.get_table("t", make_table(100))
        assert device.htod_bytes == hot_before  # hot runs move nothing

    def test_drop_releases_device_memory(self, bm, device):
        bm.get_table("t", make_table(1000))
        used = device.caching_region.used
        assert used > 0
        bm.drop("t")
        assert device.caching_region.used == 0

    def test_clear(self, bm):
        bm.get_table("a", make_table(10))
        bm.get_table("b", make_table(10))
        bm.clear()
        assert bm.cached_tables() == []


class TestSpilling:
    def test_lru_spill_under_pressure(self, bm):
        # Each table is ~16 KB x ... fill past 500 KB to force spills.
        for i in range(40):
            bm.get_table(f"t{i}", make_table(2000))
        assert bm.spills > 0
        assert bm.pinned_host_bytes > 0

    def test_spilled_table_comes_back(self, bm):
        big = make_table(12000)  # ~192 KB each
        bm.get_table("a", big)
        bm.get_table("b", big)
        bm.get_table("c", big)  # evicts "a"
        assert bm.spills >= 1
        again = bm.get_table("a", big)  # unspill
        assert bm.unspills >= 1
        assert len(again.columns[0]) == 12000

    def test_table_larger_than_region_raises_even_with_spill(self, bm):
        with pytest.raises(OutOfDeviceMemory):
            bm.get_table("huge", make_table(200_000))  # ~3.2 MB > 500 KB

    def test_failed_load_leaks_nothing(self, bm, device):
        with pytest.raises(OutOfDeviceMemory):
            bm.get_table("huge", make_table(200_000))
        assert device.caching_region.used == 0


class TestIndexConversion:
    """The paper's one non-zero-copy conversion: uint64 <-> int32 row ids."""

    def test_round_trip(self, bm):
        engine_ids = np.array([0, 5, 17], dtype=np.uint64)
        kernel_ids = bm.engine_indices_to_kernel(engine_ids)
        assert kernel_ids.dtype == np.int32
        back = bm.kernel_indices_to_engine(kernel_ids)
        assert back.dtype == np.uint64
        assert back.tolist() == engine_ids.tolist()

    def test_null_sentinel_round_trip(self, bm):
        kernel_ids = np.array([3, -1, 7], dtype=np.int32)
        engine_ids = bm.kernel_indices_to_engine(kernel_ids)
        assert engine_ids[1] == np.uint64(2**64 - 1)
        assert bm.engine_indices_to_kernel(engine_ids).tolist() == [3, -1, 7]

    def test_wrong_dtype_rejected(self, bm):
        with pytest.raises(TypeError):
            bm.engine_indices_to_kernel(np.array([1, 2], dtype=np.int64))

    def test_overflowing_index_rejected(self, bm):
        too_big = np.array([2**40], dtype=np.uint64)
        with pytest.raises(OverflowError):
            bm.engine_indices_to_kernel(too_big)

    def test_conversion_is_charged(self, bm, device):
        before = device.kernel_count
        bm.engine_indices_to_kernel(np.arange(10, dtype=np.uint64))
        assert device.kernel_count == before + 1

    def test_round_trip_at_the_int32_edge(self, bm, device):
        kernel_ids = np.array([0, INT32_MAX, -1, INT32_MAX - 1, -1], dtype=np.int32)
        before = device.kernel_count
        engine_ids = bm.kernel_indices_to_engine(kernel_ids)
        assert engine_ids.tolist() == [0, INT32_MAX, 2**64 - 1, INT32_MAX - 1, 2**64 - 1]
        back = bm.engine_indices_to_kernel(engine_ids)
        assert back.dtype == np.int32 and back.tolist() == kernel_ids.tolist()
        assert device.kernel_count == before + 2

    def test_empty_maps(self, bm):
        engine_ids = bm.kernel_indices_to_engine(np.array([], dtype=np.int32))
        assert engine_ids.dtype == np.uint64 and len(engine_ids) == 0
        assert bm.engine_indices_to_kernel(engine_ids).dtype == np.int32

    @pytest.mark.parametrize(
        "too_big", [INT32_MAX + 1, 2**32, 2**63 - 1, 2**63, 2**64 - 2], ids=str
    )
    def test_overflow_just_above_int32_and_beyond(self, bm, device, too_big):
        ids = np.array([0, too_big, 2**64 - 1], dtype=np.uint64)
        before = (device.kernel_count, repr(device.clock.now))
        with pytest.raises(OverflowError):
            bm.engine_indices_to_kernel(ids)
        assert (device.kernel_count, repr(device.clock.now)) == before  # nothing charged

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-1, INT32_MAX), max_size=20))
    def test_round_trip_property(self, values):
        bm = BufferManager(Device(GH200, memory_limit_gb=0.001))
        kernel_ids = np.array(values, dtype=np.int32)
        engine_ids = bm.kernel_indices_to_engine(kernel_ids)
        # The first formulation: -1 -> UINT64_MAX, everything else as is.
        want = np.where(kernel_ids < 0, np.uint64(2**64 - 1), kernel_ids.astype(np.uint64))
        assert engine_ids.dtype == np.uint64
        assert engine_ids.tobytes() == want.astype(np.uint64).tobytes()
        back = bm.engine_indices_to_kernel(engine_ids)
        assert back.dtype == np.int32 and back.tobytes() == kernel_ids.tobytes()
        assert bm.device.kernel_count == 2

    def test_stats_keys(self, bm):
        stats = bm.stats()
        assert {"cold_loads", "hot_hits", "spills", "caching_capacity"} <= set(stats)


class TestEvictionAvoidsInFlightPrefetch:
    """Regression: ``_evict_one`` must prefer quiescent residents over
    entries whose prefetched chunks are still landing on the copy stream
    — evicting those forces a host-blocking stream join and throws away
    the copy just issued."""

    def fitted(self, n_tables: float, rows: int = 1000):
        table_bytes = make_table(rows).nbytes
        limit_gb = (table_bytes * n_tables * 2) / (1024**3)  # 50% split
        device = Device(GH200, memory_limit_gb=limit_gb)
        return device, BufferManager(device, overlap=True)

    def test_quiescent_entry_spilled_instead_of_prefetch(self):
        device, bm = self.fitted(2.2)
        tables = {name: make_table(1000) for name in ("a", "b", "c")}
        assert bm.prefetch("b", tables["b"])  # in flight, and LRU
        bm.get_table("a", tables["a"])
        bm.complete_loads()  # pipeline-end join: "a" is now quiescent
        bm.get_table("c", tables["c"])  # needs an eviction
        # "b" was LRU but still in flight: the quiescent "a" went instead.
        assert bm._cache["a"].location == "pinned"
        assert bm._cache["b"].location == "device"
        assert "b" in bm._in_flight  # never force-synced
        assert bm._cache["c"].location == "device"

    def test_in_flight_entry_is_last_resort_and_synced(self):
        device, bm = self.fitted(1.2)
        tables = {"a": make_table(1000), "b": make_table(1000)}
        assert bm.prefetch("a", tables["a"])
        bm.get_table("b", tables["b"])  # only candidate is in flight
        assert bm._cache["a"].location == "pinned"
        assert "a" not in bm._in_flight  # synced before the spill
        assert bm.spills == 1
