"""Per-query profiles: the aggregation layer over spans and clock buckets.

A :class:`QueryProfile` is the one structure every harness consumes:

* the single-node executor fills the Figure-5 attribution (per-category
  clock buckets plus per-operator timings);
* the distributed executor fills the Table-2 decomposition (compute vs
  exchange vs other/coordinator time, exchanged bytes, retry counts);
* when a real :class:`~repro.obs.Tracer` is installed, the profile also
  carries the query's span tree and the device-memory high-water mark.

``to_dict()`` is what the ``--trace`` export serialises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["OperatorTiming", "QueryProfile"]


@dataclass
class OperatorTiming:
    """Simulated time spent in one operator of one pipeline."""

    pipeline: int
    operator: str
    category: str
    seconds: float
    rows_out: int

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "operator": self.operator,
            "category": self.category,
            "seconds": self.seconds,
            "rows_out": self.rows_out,
        }


@dataclass
class QueryProfile:
    """Timing and counters for one query execution."""

    sim_seconds: float = 0.0
    breakdown: dict = field(default_factory=dict)  # category -> seconds
    kernel_count: int = 0
    pipelines_run: int = 0
    chunks_processed: int = 0
    output_rows: int = 0
    operator_timings: list = field(default_factory=list)
    # Observability extensions (defaults keep pre-tracing constructors valid).
    label: str = ""
    compute_seconds: float | None = None  # Table-2 split; derived if unset
    exchange_seconds: float | None = None
    other_seconds: float | None = None
    exchanged_bytes: int = 0
    retries: int = 0
    fallback_tier: str | None = None
    device_mem_peak: int = 0
    spans: list = field(default_factory=list)  # Span objects; empty w/ null tracer
    # Copy/compute overlap (async streams): per-stream busy seconds during
    # this query, and how much of that stream time ran hidden behind host
    # compute.  Both zero/empty when overlap mode is off.
    stream_busy: dict = field(default_factory=dict)  # stream name -> seconds
    overlap_hidden_s: float = 0.0
    # Out-of-core spill activity during this query (deltas of the buffer
    # manager's fragment counters); empty unless partitions actually moved.
    spill: dict = field(default_factory=dict)
    # Fused billing (``SiriusEngine(fusion=True)``): how many fused
    # regions launched and how many intermediate-materialisation bytes the
    # cost model stopped charging for.  Both zero under per-part billing,
    # where every region's parts are charged as separate launches.
    fused_kernels: int = 0
    fusion_saved_bytes: int = 0

    # -- Table-2 decomposition ----------------------------------------------

    def table2_split(self) -> dict[str, float]:
        """Compute / exchange / other seconds, exactly as Table 2 reports.

        Distributed runs fill the three fields explicitly (the coordinator
        overhead is "other"); for a single-node profile the split is
        derived: exchange from its clock bucket (zero when the exchange
        layer is bypassed), everything else is compute.
        """
        if self.compute_seconds is not None:
            return {
                "compute": self.compute_seconds,
                "exchange": self.exchange_seconds or 0.0,
                "other": self.other_seconds or 0.0,
            }
        exchange = self.breakdown.get("exchange", 0.0)
        return {
            "compute": max(self.sim_seconds - exchange, 0.0),
            "exchange": exchange,
            "other": 0.0,
        }

    def overlap_efficiency(self) -> float:
        """Fraction of issued stream time hidden behind host compute
        (1.0 = fully overlapped copies, 0.0 = fully exposed or no streams)."""
        total = sum(self.stream_busy.values())
        if total <= 0.0:
            return 0.0
        return self.overlap_hidden_s / total

    def table2_fractions(self) -> dict[str, float]:
        split = self.table2_split()
        total = sum(split.values())
        if total == 0:
            return {k: 0.0 for k in split}
        return {k: v / total for k, v in split.items()}

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict:
        out = self._base_dict()
        # Fusion counters appear only when fusion actually fired, keeping
        # fusion-off trace exports byte-identical to the pre-fusion format.
        if self.fused_kernels or self.fusion_saved_bytes:
            out["fused_kernels"] = self.fused_kernels
            out["fusion_saved_bytes"] = self.fusion_saved_bytes
        return out

    def _base_dict(self) -> dict:
        return {
            "label": self.label,
            "sim_seconds": self.sim_seconds,
            "breakdown": dict(self.breakdown),
            "table2_split": self.table2_split(),
            "table2_fractions": self.table2_fractions(),
            "kernel_count": self.kernel_count,
            "pipelines_run": self.pipelines_run,
            "chunks_processed": self.chunks_processed,
            "output_rows": self.output_rows,
            "exchanged_bytes": self.exchanged_bytes,
            "retries": self.retries,
            "fallback_tier": self.fallback_tier,
            "device_mem_peak": self.device_mem_peak,
            "stream_busy": dict(self.stream_busy),
            "overlap_hidden_s": self.overlap_hidden_s,
            "overlap_efficiency": self.overlap_efficiency(),
            "spill": dict(self.spill),
            "operator_timings": [t.to_dict() for t in self.operator_timings],
            "spans": [s.to_dict() for s in self.spans],
        }

    def explain_analyze(self) -> str:
        """EXPLAIN ANALYZE-style report: per-operator simulated time."""
        lines = [
            f"total {self.sim_seconds * 1000:.3f} ms, "
            f"{self.kernel_count} kernels, {self.pipelines_run} pipelines, "
            f"{self.output_rows} rows out"
        ]
        current = None
        for t in self.operator_timings:
            if t.pipeline != current:
                lines.append(f"Pipeline {t.pipeline}:")
                current = t.pipeline
            lines.append(
                f"  {t.operator:<50s} {t.seconds * 1e6:10.1f} us"
                f"  [{t.category}]  rows={t.rows_out}"
            )
        return "\n".join(lines)
