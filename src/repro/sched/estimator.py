"""Pre-execution cost estimation for admission control and SJF.

Walks a logical plan bottom-up with textbook cardinality guesses
(selectivity constants, FK-join output = probe side) and prices the
operators with the device's own :class:`~repro.gpu.costmodel
.KernelCostModel`.  The product is a :class:`PlanEstimate`:

* ``working_set_bytes`` — how much of the processing pool the query is
  expected to hold at once (hash tables, sort buffers, the largest
  intermediate).  The admission controller gates on this.
* ``service_s`` — expected simulated device seconds.  The
  shortest-cost-first policy orders jobs by this.

Estimates only need to *rank* queries correctly and land within an order
of magnitude for admission; they are never charged to the clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..columnar import Table
from ..gpu.costmodel import KernelClass, KernelCostModel
from ..gpu.device import Device
from ..plan import Plan, walk_relations
from ..plan.relations import (
    AggregateRel,
    FetchRel,
    FilterRel,
    JoinRel,
    ProjectRel,
    ReadRel,
    Relation,
    SortRel,
)

__all__ = ["PlanEstimate", "base_tables", "estimate_plan"]


def base_tables(plan: Plan) -> list[str]:
    """Names of the base tables a plan scans, in plan order without
    duplicates.  Shared by placement-aware fleet routing (score replicas
    by which of these are hot) and cache dependency tracking (a result
    is stale when any of these tables' versions move).
    """
    # walk_relations is pre-order (parents first, inputs left to right);
    # a dict keeps first-seen order.
    return list(
        dict.fromkeys(
            rel.table_name
            for rel in walk_relations(plan.root)
            if isinstance(rel, ReadRel)
        )
    )


# Classic System-R style default selectivities.
FILTER_SELECTIVITY = 0.3
SEMI_JOIN_SELECTIVITY = 0.5
# A hash table costs roughly 2x the build side (slots + payload).
HASH_TABLE_FACTOR = 2.0
# Sort needs input + output resident simultaneously.
SORT_BUFFER_FACTOR = 2.0
DEFAULT_GROUPS = 10_000


@dataclass(frozen=True)
class PlanEstimate:
    """Pre-execution estimate used by admission control and SJF."""

    working_set_bytes: int
    service_s: float
    rows: int
    # Where the working set comes from: (site, kind, bytes) per pipeline
    # breaker in post-order, then the materialised result.  An explanation
    # of ``working_set_bytes`` (they sum to it), not part of the estimate's
    # identity: left out of equality and hash.
    working_sets: tuple[tuple[str, str, int], ...] = field(
        default=(), compare=False, repr=False
    )


def estimate_plan(
    plan: Plan,
    catalog: Mapping[str, Table],
    device: Device,
    out_of_core: bool = False,
    fusion: bool = False,
) -> PlanEstimate:
    """Estimate a plan's processing-pool working set and service time.

    Args:
        fusion: Price streaming runs the way fused billing charges
            them — a maximal chain of adjacent filters/projects becomes a
            single launch whose streaming term covers only the chain's
            external input and output; the interior intermediate
            materialisations are free.  Mirrors
            :meth:`KernelCostModel.fused_cost`.
        out_of_core: Price spill waves: whatever part of the working set
            exceeds the processing pool must round-trip to pinned host
            memory (spilled once under pressure, unspilled once when its
            partition is processed), so that excess is charged twice at
            the pinned-copy rate.  This is what makes SJF and admission
            rank an over-pool query as *slower*, not *impossible*.
    """
    est = _Estimator(catalog, device.cost_model, fusion)
    rows, nbytes = est.visit(plan.root, "root")
    # The final result is materialised in the pool, then copied out.
    est.hold("root", "result", nbytes)
    working_set = sum(held for _site, _kind, held in est.working_sets)
    service = est.seconds + device.cost_model.transfer_cost(int(nbytes))
    if out_of_core:
        excess = working_set - device.processing_pool.capacity
        if excess > 0:
            service += 2.0 * device.cost_model.transfer_cost(int(excess), pinned=True)
    return PlanEstimate(
        int(working_set), float(service), int(rows), tuple(est.working_sets)
    )


class _Estimator:
    def __init__(
        self, catalog: Mapping[str, Table], model: KernelCostModel, fusion: bool = False
    ):
        self.catalog = catalog
        self.model = model
        self.fusion = fusion
        # Concurrent pool bytes (hash/sort state): (site, kind, bytes).
        self.working_sets: list[tuple[str, str, int]] = []
        self.seconds = 0.0

    def hold(self, site: str, kind: str, nbytes: float) -> None:
        self.working_sets.append((site, kind, int(nbytes)))

    def _charge(self, kclass: str, bytes_in: float, bytes_out: float, rows: float, groups=None):
        self.seconds += self.model.kernel_cost(
            kclass, int(bytes_in), int(bytes_out), int(max(rows, 1)), groups
        ).total

    def visit(self, rel: Relation, path: str) -> tuple[float, float]:
        """Return (estimated rows, estimated bytes) of the relation at
        ``path`` (``root.input.left`` ...: the site its pool bytes are
        recorded under)."""
        if isinstance(rel, (ReadRel, FilterRel, ProjectRel)):
            rows, nbytes, _run = self._chain(rel, path)
            return rows, nbytes
        if isinstance(rel, JoinRel):
            return self._join(rel, path)
        if isinstance(rel, AggregateRel):
            return self._aggregate(rel, path)
        if isinstance(rel, SortRel):
            rows, nbytes = self.visit(rel.inputs[0], f"{path}.input")
            self.hold(path, "sort-buffer", SORT_BUFFER_FACTOR * nbytes)
            self._charge(KernelClass.SORT, nbytes, nbytes, rows)
            return rows, nbytes
        if isinstance(rel, FetchRel):
            rows, nbytes = self.visit(rel.inputs[0], f"{path}.input")
            if rel.count is not None and rows > 0:
                keep = min(float(rel.count), rows) / rows
                return rows * keep, nbytes * keep
            return rows, nbytes
        raise TypeError(f"cannot estimate {type(rel).__name__}")

    def _chain(self, rel: Relation, path: str, feeds_probe: bool = False):
        """Price a maximal adjacent Filter/Project chain, down to and
        including its scan, as the compiler emits it: a scan's pushed
        filter is the first hop (when the table is in the catalog), and
        the selectivity cascade is applied hop by hop.  Fused billing
        prices the hops as one launch — each keeps its non-streaming
        terms, but the memory-bandwidth term covers only the chain's
        external input and final output (:meth:`KernelCostModel
        .fused_cost`); per-part billing prices one launch per hop.

        Returns the chain's rows and bytes, and ``None`` — or, under fused
        billing for a chain that opens a pipeline and ``feeds_probe``, its
        unpriced hops and external input: that run is the probe's input,
        one region with its ``HASH_PROBE`` (:meth:`_join`)."""
        chain: list[Relation] = []
        node = rel
        while isinstance(node, (FilterRel, ProjectRel)):
            chain.append(node)
            node = node.inputs[0]
        filters = [isinstance(hop, FilterRel) for hop in reversed(chain)]
        if isinstance(node, ReadRel):
            rows, nbytes = self._scan(node)
            if node.filter_expr is not None and node.table_name in self.catalog:
                filters.insert(0, True)
        else:
            rows, nbytes = self.visit(node, path + ".input" * len(chain))
        ext_in = nbytes
        parts = []
        for is_filter in filters:
            parts.append((KernelClass.STREAM, int(nbytes), int(nbytes), int(max(rows, 1)), None))
            if is_filter:
                rows *= FILTER_SELECTIVITY
                nbytes *= FILTER_SELECTIVITY
        if self.fusion and feeds_probe and parts and not isinstance(node, JoinRel):
            return rows, nbytes, (parts, ext_in)
        if self.fusion and parts:
            self.seconds += self.model.fused_cost(parts, int(ext_in), int(nbytes)).total
        else:
            for part in parts:
                self._charge(*part)
        return rows, nbytes, None

    def _scan(self, rel: ReadRel) -> tuple[float, float]:
        """Rows and bytes a scan reads (its projected columns); scans read
        from the caching region and launch nothing themselves."""
        table = self.catalog.get(rel.table_name)
        if table is None:
            return 0.0, 0.0
        rows = float(table.num_rows)
        if rel.projection is not None:
            wanted = set(rel.projection)
            nbytes = float(
                sum(
                    col.nbytes
                    for f, col in zip(table.schema, table.columns)
                    if f.name in wanted
                )
            )
        else:
            nbytes = float(table.nbytes)
        return rows, nbytes

    def _join(self, rel: JoinRel, path: str) -> tuple[float, float]:
        probe_rel, run = rel.inputs[0], None
        if isinstance(probe_rel, (ReadRel, FilterRel, ProjectRel)):
            probe_rows, probe_bytes, run = self._chain(probe_rel, f"{path}.left", True)
        else:
            probe_rows, probe_bytes = self.visit(probe_rel, f"{path}.left")
        build_rows, build_bytes = self.visit(rel.inputs[1], f"{path}.right")
        self.hold(path, "hash-build", HASH_TABLE_FACTOR * build_bytes)
        self._charge(KernelClass.HASH_BUILD, build_bytes, build_bytes, build_rows)
        matched = probe_bytes + build_bytes
        if run is None:
            self._charge(KernelClass.HASH_PROBE, probe_bytes, matched, probe_rows)
        else:
            parts, ext_in = run
            rows = int(max(probe_rows, 1))
            parts = parts + [(KernelClass.HASH_PROBE, int(probe_bytes), int(matched), rows, None)]
            # Out: the probe side the gathers read, and the matches.
            ext_out = int(probe_bytes + matched)
            self.seconds += self.model.fused_cost(parts, int(ext_in), ext_out).total
        if rel.join_type in ("semi", "anti"):
            return probe_rows * SEMI_JOIN_SELECTIVITY, probe_bytes * SEMI_JOIN_SELECTIVITY
        # FK-join assumption: output cardinality ~ probe side, output rows
        # carry columns from both sides.
        out_rows = probe_rows
        per_row = (probe_bytes / probe_rows if probe_rows else 0.0) + (
            build_bytes / build_rows if build_rows else 0.0
        )
        return out_rows, out_rows * per_row

    def _aggregate(self, rel: AggregateRel, path: str) -> tuple[float, float]:
        rows, nbytes = self.visit(rel.inputs[0], f"{path}.input")
        groups = float(min(rows, DEFAULT_GROUPS)) if rel.group_indices else 1.0
        per_row = nbytes / rows if rows else 0.0
        out_bytes = groups * max(per_row, 8.0 * (len(rel.group_indices) + len(rel.measures)))
        self.hold(path, "aggregate-state", out_bytes)
        self._charge(KernelClass.GROUPBY_HASH, nbytes, out_bytes, rows, int(groups))
        return groups, out_bytes
