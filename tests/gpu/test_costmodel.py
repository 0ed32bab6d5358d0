"""Unit tests pinning the analytical kernel cost model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import GH200, KernelClass, KernelCostModel, M7I_CPU

GB = 1_000_000_000


@pytest.fixture
def gpu_model():
    return KernelCostModel(GH200)


@pytest.fixture
def cpu_model():
    return KernelCostModel(M7I_CPU)


class TestStreamingKernels:
    def test_bandwidth_bound_time(self, gpu_model):
        # 3 GB in + 3 GB out over 3000 GB/s = 2 ms of memory traffic.
        cost = gpu_model.kernel_cost(KernelClass.STREAM, 3 * GB, 3 * GB, 1000)
        assert cost.streaming == pytest.approx(0.002)
        assert cost.random == 0.0

    def test_launch_overhead_dominates_tiny_kernels(self, gpu_model):
        cost = gpu_model.kernel_cost(KernelClass.STREAM, 64, 64, 8)
        assert cost.launch > cost.streaming + cost.compute

    def test_gpu_beats_cpu_on_big_streams(self, gpu_model, cpu_model):
        args = (KernelClass.STREAM, 10 * GB, 10 * GB, 100_000_000)
        assert gpu_model.kernel_cost(*args).total < cpu_model.kernel_cost(*args).total

    def test_bandwidth_ratio_shapes_speedup(self, gpu_model, cpu_model):
        # For huge purely-streaming kernels, the speedup approaches the
        # bandwidth ratio (3000/300 = 10x here).
        args = (KernelClass.STREAM, 100 * GB, 0, 1)
        ratio = cpu_model.kernel_cost(*args).total / gpu_model.kernel_cost(*args).total
        assert 9.0 < ratio < 11.0


class TestRandomAccessKernels:
    def test_hash_probe_pays_random_discount(self, gpu_model):
        stream = gpu_model.kernel_cost(KernelClass.STREAM, GB, 0, 10)
        probe = gpu_model.kernel_cost(KernelClass.HASH_PROBE, GB, 0, 10)
        assert probe.random > stream.streaming

    def test_random_efficiency_factor(self, gpu_model):
        cost = gpu_model.kernel_cost(KernelClass.GATHER, GB, 0, 1)
        expected = GB / (3000 * GB * 0.25)
        assert cost.random == pytest.approx(expected)


_FUSIBLE = st.sampled_from(
    [KernelClass.STREAM, KernelClass.STRING, KernelClass.GATHER, KernelClass.HASH_PROBE]
)
_PART = st.tuples(
    _FUSIBLE,
    st.integers(0, 10**9),
    st.integers(0, 10**9),
    st.integers(0, 10**7),
    st.none(),
)


class TestFusedCost:
    @settings(max_examples=200, deadline=None)
    @given(
        parts=st.lists(_PART, min_size=1, max_size=6).filter(
            lambda ps: any(p[0] == KernelClass.GATHER for p in ps)
        ),
        bytes_in=st.integers(0, 10**10),
        bytes_out=st.integers(0, 10**10),
    )
    def test_never_more_than_the_parts(self, parts, bytes_in, bytes_out):
        """Whatever external traffic a region declares, one fused launch
        costs no more than its parts launched standalone — gathers
        included, whose input is priced as random traffic, not streamed."""
        gpu_model = KernelCostModel(GH200)
        fused = gpu_model.fused_cost(parts, bytes_in, bytes_out)
        standalone = sum(gpu_model.kernel_cost(*p).total for p in parts)
        assert fused.total <= standalone * (1 + 1e-12)

    def test_filter_project_region_streams_its_external_traffic(self, gpu_model):
        parts = [
            (KernelClass.STREAM, 4000, 2000, 500, None),
            (KernelClass.STREAM, 2000, 1000, 250, None),
        ]
        cost = gpu_model.fused_cost(parts, 4000, 1000)
        assert cost.streaming == pytest.approx(5000 / (3000 * GB))
        assert cost.launch == gpu_model.kernel_cost(*parts[0]).launch


class TestSortKernels:
    def test_sort_pays_log_passes(self, gpu_model):
        small = gpu_model.kernel_cost(KernelClass.SORT, GB, 0, 2**10)
        big = gpu_model.kernel_cost(KernelClass.SORT, GB, 0, 2**30)
        assert big.streaming > small.streaming


class TestContentionPenalty:
    def test_few_groups_penalised_on_gpu(self, gpu_model):
        few = gpu_model.kernel_cost(KernelClass.GROUPBY_HASH, GB, 0, 10**7, num_groups=4)
        many = gpu_model.kernel_cost(KernelClass.GROUPBY_HASH, GB, 0, 10**7, num_groups=10**6)
        assert few.penalty > 0.0
        assert many.penalty == 0.0
        assert few.total > many.total

    def test_cpu_has_no_contention_penalty(self, cpu_model):
        cost = cpu_model.kernel_cost(KernelClass.GROUPBY_HASH, GB, 0, 10**7, num_groups=4)
        assert cost.penalty == 0.0

    def test_penalty_monotone_in_group_count(self, gpu_model):
        penalties = [
            gpu_model.kernel_cost(
                KernelClass.GROUPBY_HASH, GB, 0, 10**7, num_groups=g
            ).penalty
            for g in (2, 32, 512, 4096)
        ]
        assert penalties == sorted(penalties, reverse=True)


class TestTransfers:
    def test_transfer_time_is_latency_plus_bytes(self, gpu_model):
        t = gpu_model.transfer_cost(45 * GB)
        # 45 GB over 450 GB/s NVLink-C2C = 100 ms, plus 2 us latency.
        assert t == pytest.approx(0.1 + 2e-6)

    def test_unknown_kernel_class_rejected(self, gpu_model):
        with pytest.raises(ValueError):
            gpu_model.kernel_cost("warp_drive", 1, 1, 1)


class TestPinnedTransferPricing:
    """§3.4 spills to *pinned* host memory; ``pinned_bw_fraction`` prices
    the pageable-vs-pinned bandwidth gap (1.0 by default: no gap)."""

    def test_default_fraction_prices_identically(self, gpu_model):
        # Float-identical, not approx: the default spec must be a no-op.
        assert gpu_model.transfer_cost(GB, pinned=True) == gpu_model.transfer_cost(GB)

    def test_pinned_streams_faster_when_pageable_is_derated(self):
        from dataclasses import replace

        spec = replace(GH200, pinned_bw_fraction=0.5)
        model = KernelCostModel(spec)
        pageable = model.transfer_cost(45 * GB)
        pinned = model.transfer_cost(45 * GB, pinned=True)
        assert pinned < pageable
        # Latency is link-level and unchanged; only the bandwidth term
        # scales: pinned streams at the full rate, pageable at half.
        assert pinned == pytest.approx(0.05 + 2e-6)
        assert pageable == pytest.approx(0.1 + 2e-6)
