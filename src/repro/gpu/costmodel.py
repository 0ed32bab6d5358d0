"""Analytical kernel cost model for simulated devices.

GPU analytical operators are predominantly memory-bound (the premise of the
paper's Table 1: a GH200 has ~7.5x the memory bandwidth of a comparable CPU
box at the same rental cost).  The model therefore charges every kernel

    time = launch_overhead
         + streamed_bytes / streaming_bandwidth
         + random_bytes   / (streaming_bandwidth * random_access_efficiency)
         + rows / row_throughput * class_row_factor
         (* contention_penalty for low-cardinality hash aggregation)

Kernel classes and their quirks mirror the behaviours the paper discusses:

* ``HASH_PROBE`` / ``HASH_BUILD`` / ``GATHER`` pay the random-access
  efficiency discount — joins dominate TPC-H time (Figure 5).
* ``GROUPBY_HASH`` with few distinct groups pays a *contention* penalty on
  GPUs (atomics hammering few addresses) — the paper calls this out for Q1.
* ``GROUPBY_SORT`` is the sort-based path libcudf takes for string keys —
  the paper calls this out for Q10/Q18 — and costs ``log2(n)`` passes.
* ``SORT`` is an ``O(n log n)`` radix/merge hybrid: ``log2`` bandwidth passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specs import DeviceSpec

__all__ = ["KernelClass", "KernelCostModel", "CostBreakdown"]

GB = 1_000_000_000


class KernelClass:
    """String constants naming the kernel families the model distinguishes."""

    STREAM = "stream"  # elementwise: filters, projections, reductions
    HASH_BUILD = "hash_build"
    HASH_PROBE = "hash_probe"
    GATHER = "gather"
    SCATTER = "scatter"
    SORT = "sort"
    GROUPBY_HASH = "groupby_hash"
    GROUPBY_SORT = "groupby_sort"
    STRING = "string"  # string matching / LIKE evaluation

    ALL = (
        STREAM, HASH_BUILD, HASH_PROBE, GATHER, SCATTER,
        SORT, GROUPBY_HASH, GROUPBY_SORT, STRING,
    )


# Per-class multiplier on the per-row compute term.  Streaming kernels are
# nearly free per row; hashing and string matching cost more ALU work.
_ROW_FACTOR = {
    KernelClass.STREAM: 1.0,
    KernelClass.HASH_BUILD: 3.0,
    KernelClass.HASH_PROBE: 2.5,
    KernelClass.GATHER: 1.0,
    KernelClass.SCATTER: 1.2,
    KernelClass.SORT: 4.0,
    KernelClass.GROUPBY_HASH: 3.0,
    # Sort-based group-by (libcudf's string-key path) pays variable-length
    # comparisons per sort step — far more per-row work than hashing.
    KernelClass.GROUPBY_SORT: 6.0,
    KernelClass.STRING: 6.0,
}

# Which classes treat their input traffic as random-access rather than
# streaming.
_RANDOM_CLASSES = frozenset(
    {
        KernelClass.HASH_BUILD,
        KernelClass.HASH_PROBE,
        KernelClass.GATHER,
        KernelClass.SCATTER,
        KernelClass.GROUPBY_HASH,
        # String sorting permutes variable-length payloads: its traffic is
        # data-dependent, not streaming.
        KernelClass.GROUPBY_SORT,
    }
)


@dataclass(frozen=True)
class CostBreakdown:
    """The components of one kernel-launch charge, for tests and tracing."""

    launch: float
    streaming: float
    random: float
    compute: float
    penalty: float

    @property
    def total(self) -> float:
        return self.launch + self.streaming + self.random + self.compute + self.penalty


class KernelCostModel:
    """Computes simulated durations for kernel launches on one device."""

    # GPUs suffer atomic contention when a hash aggregation has very few
    # distinct groups; CPUs do not (per-core partial aggregates).
    _CONTENTION_THRESHOLD_GROUPS = 4096
    _CONTENTION_MAX_PENALTY = 3.0

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self._bw = spec.memory_bw_gbps * GB
        self._rand_bw = self._bw * spec.random_access_efficiency
        self._row_tput = spec.row_throughput_grows * 1e9
        self._launch = spec.kernel_launch_us * 1e-6

    def kernel_cost(
        self,
        kclass: str,
        bytes_in: int,
        bytes_out: int,
        rows: int,
        num_groups: int | None = None,
    ) -> CostBreakdown:
        """Cost one kernel launch.

        Args:
            kclass: One of :class:`KernelClass`.
            bytes_in: Bytes read by the kernel.
            bytes_out: Bytes written by the kernel.
            rows: Rows processed (drives the per-row compute term).
            num_groups: For ``GROUPBY_HASH``, the number of distinct groups
                (drives the contention penalty).

        Returns:
            A :class:`CostBreakdown`; callers usually charge ``.total``.
        """
        if kclass not in _ROW_FACTOR:
            raise ValueError(f"unknown kernel class {kclass!r}")
        passes = 1.0
        if kclass in (KernelClass.SORT, KernelClass.GROUPBY_SORT):
            passes = max(1.0, math.log2(max(rows, 2)) / 8.0)  # 8 bits/radix pass

        streamed = 0.0
        random = 0.0
        if kclass in _RANDOM_CLASSES:
            # Output of random-access kernels streams; input is random (and
            # re-touched once per radix/merge pass for sort-based kernels).
            random = bytes_in * passes / self._rand_bw
            streamed = bytes_out / self._bw
        else:
            streamed = (bytes_in * passes + bytes_out) / self._bw

        compute = rows * _ROW_FACTOR[kclass] / self._row_tput * passes

        penalty = 0.0
        if (
            kclass == KernelClass.GROUPBY_HASH
            and self.spec.kind == "gpu"
            and num_groups is not None
            and 0 < num_groups < self._CONTENTION_THRESHOLD_GROUPS
        ):
            # Fewer groups -> more atomics per address -> bigger penalty,
            # saturating at _CONTENTION_MAX_PENALTY x the compute term.
            severity = 1.0 - math.log2(max(num_groups, 1) + 1) / math.log2(
                self._CONTENTION_THRESHOLD_GROUPS
            )
            penalty = compute * self._CONTENTION_MAX_PENALTY * max(severity, 0.0)

        return CostBreakdown(self._launch, streamed, random, compute, penalty)

    def fused_cost(
        self,
        parts: "list[tuple[str, int, int, int, int | None]]",
        bytes_in: int,
        bytes_out: int,
    ) -> CostBreakdown:
        """Cost a fused run of kernels charged as a single launch.

        ``parts`` lists the constituent kernels as
        ``(kclass, bytes_in, bytes_out, rows, num_groups)`` tuples;
        ``bytes_in``/``bytes_out`` is the *external* traffic — the chunk
        read once at the head of the fused region and the result written
        once at its tail.  Interior materialisations stay in registers /
        shared memory, so their streaming traffic is priced at zero; the
        per-part compute, random-access, and contention terms are
        preserved (fusion removes memory round-trips, not ALU work), and
        only one launch overhead is paid.  The streaming term is capped
        at the bytes the parts stream standalone — input and output of a
        streaming kernel, only the output of a random-access one, whose
        input is already priced as random traffic: a fused region whose
        constituent kernels stream *fewer* bytes than the external chunk
        (pass-through columns are never copied, gathers read at random)
        keeps the cheaper charge, so by construction the fused cost is
        never more than the sum of the parts' standalone costs.
        """
        standalone = sum(
            p_out if kclass in _RANDOM_CLASSES else p_in + p_out
            for kclass, p_in, p_out, _rows, _groups in parts
        )
        streamed = min(bytes_in + bytes_out, standalone) / self._bw
        random = 0.0
        compute = 0.0
        penalty = 0.0
        for kclass, p_in, p_out, rows, num_groups in parts:
            part = self.kernel_cost(kclass, p_in, p_out, rows, num_groups)
            random += part.random
            compute += part.compute
            penalty += part.penalty
        return CostBreakdown(self._launch, streamed, random, compute, penalty)

    def transfer_cost(self, nbytes: int, pinned: bool = False) -> float:
        """Seconds to move ``nbytes`` over the device's host interconnect.

        ``pinned`` prices a transfer from/to page-locked host memory, which
        streams at the link's full peak rate; pageable traffic achieves
        only ``spec.pinned_bw_fraction`` of it (§3.4 spills to pinned host
        memory).  At the default fraction of 1.0 both rates are identical.
        """
        link_bw = self.spec.interconnect_gbps * GB
        if pinned:
            link_bw /= self.spec.pinned_bw_fraction
        return self.spec.interconnect_latency_us * 1e-6 + nbytes / link_bw

    def disk_transfer_cost(self, nbytes: int) -> float:
        """Seconds to move ``nbytes`` between pinned host memory and the
        simulated local-disk spill tier (out-of-core partition demotion)."""
        return self.spec.disk_latency_us * 1e-6 + nbytes / (
            self.spec.disk_bw_gbps * GB
        )
