"""Distributed TPC-H harness: regenerates Table 2.

Runs the distributed subset (Q1, Q3, Q6 — the queries the paper's
distributed Sirius supports) on a 4-node cluster in three modes:

* vanilla MiniDoris (CPU),
* ClickHouse-style distributed baseline,
* MiniDoris accelerated by per-node Sirius engines (A100 GPUs, NCCL
  exchange),

and reports, for Sirius, the compute / exchange / other breakdown of the
paper's Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hosts import MiniDoris
from ..tpch import generate_tpch, tpch_query
from .report import ascii_table, format_ms

__all__ = ["Table2Result", "DistributedHarness", "TABLE2_QUERIES"]

TABLE2_QUERIES = (1, 3, 6)


@dataclass
class Table2Row:
    query: int
    doris_s: float
    clickhouse_s: float
    sirius_s: float
    sirius_compute_s: float
    sirius_exchange_s: float
    sirius_other_s: float
    exchanged_bytes: int
    # Source of truth for the sirius_* fields above; carries the span tree
    # when the harness was built with a real tracer.
    sirius_profile: object = None

    @property
    def speedup_vs_doris(self) -> float:
        return self.doris_s / self.sirius_s


@dataclass
class Table2Result:
    scale_factor: float
    num_nodes: int
    rows: list[Table2Row] = field(default_factory=list)

    def table(self) -> str:
        body = []
        for r in self.rows:
            body.append(
                (
                    f"Q{r.query}",
                    format_ms(r.doris_s),
                    format_ms(r.clickhouse_s),
                    format_ms(r.sirius_s),
                    format_ms(r.sirius_compute_s),
                    format_ms(r.sirius_exchange_s),
                    format_ms(r.sirius_other_s),
                    f"{r.speedup_vs_doris:.1f}x",
                )
            )
        return ascii_table(
            [
                "query", "Doris ms", "ClickHouse ms", "Sirius ms",
                "compute", "exchange", "other", "vs Doris",
            ],
            body,
        )

    def row(self, query: int) -> Table2Row:
        return next(r for r in self.rows if r.query == query)


class DistributedHarness:
    """Owns the three 4-node clusters over one generated dataset."""

    def __init__(
        self, sf: float = 0.1, num_nodes: int = 4, seed: int = 19920101, tracer=None
    ):
        """``tracer`` instruments the Sirius cluster (the baselines stay
        untraced); each :class:`Table2Row` then carries a full profile."""
        self.sf = sf
        self.num_nodes = num_nodes
        self.data = generate_tpch(sf=sf, seed=seed)
        self.doris = MiniDoris(num_nodes=num_nodes, mode="doris")
        self.clickhouse = MiniDoris(num_nodes=num_nodes, mode="clickhouse")
        self.sirius = MiniDoris(num_nodes=num_nodes, mode="sirius", tracer=tracer)
        for db in (self.doris, self.clickhouse, self.sirius):
            db.load_tables(self.data)
        self.sirius.warm_caches()

    def run_query(self, query: int) -> Table2Row:
        doris_res = self.doris.execute(tpch_query(query))
        ch_res = self.clickhouse.execute(tpch_query(query, for_clickhouse=True))
        sirius_res = self.sirius.execute(tpch_query(query))
        # The row is a view of the query profile — the one aggregation
        # structure the observability layer produces (Table 2's split).
        profile = sirius_res.profile
        if not profile.label:
            profile.label = f"Q{query}"
        split = profile.table2_split()
        return Table2Row(
            query=query,
            doris_s=doris_res.total_seconds,
            clickhouse_s=ch_res.total_seconds,
            sirius_s=profile.sim_seconds,
            sirius_compute_s=split["compute"],
            sirius_exchange_s=split["exchange"],
            sirius_other_s=split["other"],
            exchanged_bytes=profile.exchanged_bytes,
            sirius_profile=profile,
        )

    def run(self, queries=TABLE2_QUERIES) -> Table2Result:
        result = Table2Result(self.sf, self.num_nodes)
        for q in queries:
            result.rows.append(self.run_query(q))
        return result
