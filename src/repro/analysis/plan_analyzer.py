"""Front 1: static dataflow analysis over the plan IR.

Where :meth:`repro.plan.Plan.validate` raises on the *first* structural
problem, the analyzer performs a full bottom-up pass that keeps going:
schemas are propagated defensively through every relation, every
expression is type-checked, exchange placement is verified, GPU
supportability is decided statically, and the plan's processing-pool
working set is estimated per pipeline breaker — all collected into one
:class:`~repro.analysis.report.AnalysisReport`.

Admission control consumes the report *before* the query touches the
device (the Theseus-style front-loaded feasibility check): an ``error``
finding means the plan cannot execute and should be rejected; a
``gpu-unsupported`` warning means the query will need the ``cpu-plan``
fallback tier; a working set beyond the pool predicts the
``gpu-retry-spill`` tier.

Rule catalog (each rule has passing and failing fixtures in
``tests/analysis``):

======  =========  ===========================================================
rule    severity   meaning
======  =========  ===========================================================
PA01    error      read references a table absent from the catalog
PA02    error      ordinal out of range (field ref, group, sort, join,
                   exchange key)
PA03    error      expression fails type inference
PA04    error      filter / pushed filter / join post-filter is not boolean
PA05    error      aggregate misuse: non-aggregate measure, aggregate call in
                   a scalar position, nested aggregates, duplicate output
                   names
PA06    error      join keys incompatible, or key-less non-inner join
PA07    warning    exchange misplacement: ignored partition keys, redundant
                   adjacent exchanges (error: shuffle without keys)
PA08    warning    construct unsupported on the GPU (non-literal LIKE
                   pattern / IN list / substring bounds, ...): query will
                   need the cpu-plan fallback tier
PA09    warning    static working set exceeds the device processing pool:
                   query will need the gpu-retry-spill tier
PA10    error      fetch offset / count negative
======  =========  ===========================================================
"""

from __future__ import annotations

from typing import Mapping

from ..columnar import BOOL, Schema, Table
from ..plan import Plan
from ..plan.expressions import (
    AggregateCall,
    Expression,
    FieldRef,
    Literal,
    ScalarCall,
    aggregate_result_type,
    infer_type,
)
from ..plan.relations import (
    AggregateRel,
    ExchangeRel,
    FetchRel,
    FilterRel,
    JoinRel,
    ProjectRel,
    ReadRel,
    Relation,
    SortRel,
)
from .report import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    TIER_CPU_PLAN,
    TIER_GPU,
    TIER_GPU_SPILL,
    TIER_REJECT,
    TIER_SPILL,
    AnalysisReport,
    Finding,
)

__all__ = ["analyze_plan", "PLAN_RULES"]

# rule id -> short description, for ``python -m repro.analysis rules``.
PLAN_RULES = {
    "PA01": "read references a table absent from the catalog",
    "PA02": "ordinal out of range (field/group/sort/join/exchange key)",
    "PA03": "expression fails type inference",
    "PA04": "predicate position holds a non-boolean expression",
    "PA05": "aggregate misuse (measure shape, scalar position, duplicates)",
    "PA06": "join key type mismatch or key-less non-inner join",
    "PA07": "exchange misplacement (keys ignored / missing / redundant)",
    "PA08": "construct unsupported on the GPU (needs cpu-plan fallback)",
    "PA09": "static working set exceeds the processing pool (needs spill)",
    "PA10": "fetch offset/count negative",
}

# Scalar-call argument positions the device evaluator requires to be
# literals (mirrors repro.core.expr_compile's _literal_value sites).
_LITERAL_ONLY_ARGS = {
    "like": [(1, "LIKE pattern")],
    "not_like": [(1, "LIKE pattern")],
    "contains": [(1, "contains needle")],
    "starts_with": [(1, "starts_with prefix")],
}


def analyze_plan(
    plan: Plan,
    catalog: Mapping[str, Table] | None = None,
    device=None,
    out_of_core: bool = False,
) -> AnalysisReport:
    """Statically analyze ``plan``; never raises on plan defects.

    Args:
        plan: The logical plan to analyze.
        catalog: Host tables by name; enables unknown-table checks and the
            working-set / cardinality estimate.  Exchange temp tables
            (``__ex*``) are treated as known-but-unsized.
        device: A :class:`~repro.gpu.device.Device`; enables the service
            estimate and the pool-capacity (spill-tier) check.
        out_of_core: The engine that will run the plan supports partitioned
            out-of-core execution: an over-pool working set is then a
            priced ``gpu-spill`` verdict (the query completes on the GPU
            through the tiered spill store) instead of a prediction of the
            batched ``gpu-retry-spill`` tier.
    """
    from ..core.fallback import plan_fingerprint  # lazy: core imports us back

    report = AnalysisReport(plan_fingerprint=plan_fingerprint(plan))
    analyzer = _PlanAnalyzer(report, catalog)
    schema = analyzer.visit(plan.root, "root")
    if schema is not None:
        report.output_schema = [(f.name, f.dtype.name) for f in schema]

    if report.ok and catalog is not None and device is not None:
        _estimate(plan, catalog, device, report, out_of_core=out_of_core)

    report.gpu_supported = not any(f.rule == "PA08" for f in report.findings)
    if not report.ok:
        report.suggested_tier = TIER_REJECT
    elif not report.gpu_supported:
        report.suggested_tier = TIER_CPU_PLAN
    elif (
        report.working_set_bytes is not None
        and device is not None
        and report.working_set_bytes > device.processing_pool.capacity
    ):
        report.findings.append(
            Finding(
                "PA09",
                SEVERITY_WARNING,
                f"static working set {report.working_set_bytes} B exceeds the "
                f"processing pool ({device.processing_pool.capacity} B); the "
                "query is predicted to need out-of-core execution",
                "root",
            )
        )
        report.suggested_tier = TIER_GPU_SPILL if out_of_core else TIER_SPILL
    else:
        report.suggested_tier = TIER_GPU
    return report


class _PlanAnalyzer:
    """Bottom-up schema propagation with accumulated findings."""

    def __init__(self, report: AnalysisReport, catalog: Mapping[str, Table] | None):
        self.report = report
        self.catalog = catalog

    def flag(self, rule: str, severity: str, message: str, site: str) -> None:
        self.report.findings.append(Finding(rule, severity, message, site))

    # -- relation dispatch ---------------------------------------------------

    def visit(self, rel: Relation, path: str) -> Schema | None:
        """Return the relation's output schema, or ``None`` when it cannot
        be derived (the blocking defect has already been flagged)."""
        site = f"{path} ({type(rel).__name__})"
        if isinstance(rel, ReadRel):
            return self._read(rel, site)
        if isinstance(rel, FilterRel):
            schema = self.visit(rel.input_rel, f"{path}.input")
            if schema is not None:
                self._check_predicate(rel.condition, schema, site, "filter condition")
            return schema
        if isinstance(rel, ProjectRel):
            return self._project(rel, path, site)
        if isinstance(rel, JoinRel):
            return self._join(rel, path, site)
        if isinstance(rel, AggregateRel):
            return self._aggregate(rel, path, site)
        if isinstance(rel, SortRel):
            schema = self.visit(rel.input_rel, f"{path}.input")
            if schema is not None:
                for idx, _asc in rel.sort_keys:
                    if idx >= len(schema):
                        self.flag(
                            "PA02",
                            SEVERITY_ERROR,
                            f"sort key ordinal ${idx} out of range "
                            f"(input arity {len(schema)})",
                            site,
                        )
            return schema
        if isinstance(rel, FetchRel):
            schema = self.visit(rel.input_rel, f"{path}.input")
            if rel.offset < 0 or (rel.count is not None and rel.count < 0):
                self.flag(
                    "PA10",
                    SEVERITY_ERROR,
                    f"fetch offset/count must be non-negative "
                    f"(offset={rel.offset}, count={rel.count})",
                    site,
                )
            return schema
        if isinstance(rel, ExchangeRel):
            return self._exchange(rel, path, site)
        # Unknown relation subclass: pass through the first input's schema.
        if rel.inputs:
            return self.visit(rel.inputs[0], f"{path}.input")
        return None

    # -- per-relation checks -------------------------------------------------

    def _read(self, rel: ReadRel, site: str) -> Schema | None:
        if (
            self.catalog is not None
            and rel.table_name not in self.catalog
            and not rel.table_name.startswith("__ex")
        ):
            self.flag(
                "PA01",
                SEVERITY_ERROR,
                f"table {rel.table_name!r} is not in the catalog",
                site,
            )
        try:
            schema = rel.output_schema()
        except (KeyError, ValueError) as exc:
            self.flag("PA02", SEVERITY_ERROR, f"bad projection: {exc}", site)
            return None
        if rel.filter_expr is not None:
            self._check_predicate(rel.filter_expr, schema, site, "pushed filter")
        return schema

    def _project(self, rel: ProjectRel, path: str, site: str) -> Schema | None:
        in_schema = self.visit(rel.input_rel, f"{path}.input")
        broken = False
        if len(set(rel.names)) != len(rel.names):
            self.flag(
                "PA05",
                SEVERITY_ERROR,
                f"project emits duplicate names: {rel.names}",
                site,
            )
            broken = True
        if in_schema is None:
            return None
        fields = []
        for name, expr in zip(rel.names, rel.expressions):
            dtype = self._check_scalar(expr, in_schema, site, f"projection {name!r}")
            if dtype is None:
                broken = True
            else:
                fields.append((name, dtype))
        if broken:
            return None
        return Schema(fields)

    def _join(self, rel: JoinRel, path: str, site: str) -> Schema | None:
        left = self.visit(rel.left, f"{path}.left")
        right = self.visit(rel.right, f"{path}.right")
        if not rel.left_keys and rel.join_type != "inner":
            self.flag(
                "PA06",
                SEVERITY_ERROR,
                f"key-less (cross) joins must be inner joins, got {rel.join_type!r}",
                site,
            )
        if left is None or right is None:
            return None
        for lk, rk in zip(rel.left_keys, rel.right_keys):
            if lk >= len(left) or rk >= len(right):
                self.flag(
                    "PA02",
                    SEVERITY_ERROR,
                    f"join key ordinal out of range: ${lk}=${rk} "
                    f"(arities {len(left)}/{len(right)})",
                    site,
                )
                continue
            lt = left.fields[lk].dtype
            rt = right.fields[rk].dtype
            if not (lt is rt or (lt.is_numeric and rt.is_numeric)):
                self.flag(
                    "PA06",
                    SEVERITY_ERROR,
                    f"join key type mismatch: {lt} vs {rt}",
                    site,
                )
        try:
            out_schema = rel.output_schema()
        except Exception:  # key defects above already explain this
            return None
        if rel.post_filter is not None:
            from ..plan.relations import join_output_schema

            combined = join_output_schema(left, right)
            self._check_predicate(rel.post_filter, combined, site, "join post-filter")
        return out_schema

    def _aggregate(self, rel: AggregateRel, path: str, site: str) -> Schema | None:
        in_schema = self.visit(rel.input_rel, f"{path}.input")
        if in_schema is None:
            return None
        fields: list[tuple[str, object]] = []
        broken = False
        for g in rel.group_indices:
            if g >= len(in_schema):
                self.flag(
                    "PA02",
                    SEVERITY_ERROR,
                    f"group ordinal ${g} out of range (input arity {len(in_schema)})",
                    site,
                )
                broken = True
            else:
                f = in_schema.fields[g]
                fields.append((f.name, f.dtype))
        for agg, name in rel.measures:
            if not isinstance(agg, AggregateCall):
                self.flag(
                    "PA05",
                    SEVERITY_ERROR,
                    f"measure {name!r} is not an aggregate call: {agg!r}",
                    site,
                )
                broken = True
                continue
            if agg.arg is not None:
                if any(
                    isinstance(node, AggregateCall)
                    for node in _walk_expr(agg.arg)
                ):
                    self.flag(
                        "PA05",
                        SEVERITY_ERROR,
                        f"measure {name!r} nests an aggregate inside an aggregate",
                        site,
                    )
                    broken = True
                    continue
                if self._check_scalar(
                    agg.arg, in_schema, site, f"measure {name!r} argument"
                ) is None:
                    broken = True
                    continue
            try:
                fields.append((name, aggregate_result_type(agg, in_schema)))
            except (TypeError, KeyError, IndexError) as exc:
                self.flag(
                    "PA03", SEVERITY_ERROR, f"measure {name!r}: {exc}", site
                )
                broken = True
        names = [n for n, _ in fields]
        if len(set(names)) != len(names):
            self.flag(
                "PA05",
                SEVERITY_ERROR,
                f"aggregate emits duplicate names: {names}",
                site,
            )
            broken = True
        if broken:
            return None
        return Schema(fields)

    def _exchange(self, rel: ExchangeRel, path: str, site: str) -> Schema | None:
        schema = self.visit(rel.input_rel, f"{path}.input")
        if rel.kind == "shuffle" and not rel.keys:
            self.flag(
                "PA07", SEVERITY_ERROR, "shuffle exchange has no partition keys", site
            )
        if rel.kind != "shuffle" and rel.keys:
            self.flag(
                "PA07",
                SEVERITY_WARNING,
                f"{rel.kind} exchange ignores its partition keys {rel.keys}",
                site,
            )
        if isinstance(rel.input_rel, ExchangeRel):
            self.flag(
                "PA07",
                SEVERITY_WARNING,
                f"redundant adjacent exchanges "
                f"({rel.input_rel.kind} feeding {rel.kind})",
                site,
            )
        if schema is not None:
            for idx in rel.keys:
                if idx >= len(schema):
                    self.flag(
                        "PA02",
                        SEVERITY_ERROR,
                        f"exchange key ordinal ${idx} out of range "
                        f"(input arity {len(schema)})",
                        site,
                    )
        return schema

    # -- expression checks ---------------------------------------------------

    def _check_scalar(self, expr: Expression, schema: Schema, site: str, what: str):
        """Type-check a scalar-position expression; returns its dtype or
        ``None`` after flagging the blocking defect."""
        ok = True
        for node in _walk_expr(expr):
            if isinstance(node, FieldRef) and node.index >= len(schema):
                self.flag(
                    "PA02",
                    SEVERITY_ERROR,
                    f"{what}: field ${node.index} out of range "
                    f"(input arity {len(schema)})",
                    site,
                )
                ok = False
            if isinstance(node, AggregateCall) and node is not expr:
                # Direct measure checks pass the AggregateCall itself;
                # anywhere deeper an aggregate is a scalar-position misuse.
                self.flag(
                    "PA05",
                    SEVERITY_ERROR,
                    f"{what}: aggregate call {node!r} in a scalar position",
                    site,
                )
                ok = False
            if isinstance(node, ScalarCall):
                self._check_gpu_support(node, site, what)
        if isinstance(expr, AggregateCall):
            self.flag(
                "PA05",
                SEVERITY_ERROR,
                f"{what}: aggregate call {expr!r} in a scalar position",
                site,
            )
            ok = False
        if not ok:
            return None
        try:
            return infer_type(expr, schema)
        except (TypeError, KeyError, IndexError) as exc:
            self.flag("PA03", SEVERITY_ERROR, f"{what}: {exc}", site)
            return None

    def _check_predicate(
        self, expr: Expression, schema: Schema, site: str, what: str
    ) -> None:
        dtype = self._check_scalar(expr, schema, site, what)
        if dtype is not None and dtype is not BOOL:
            self.flag(
                "PA04",
                SEVERITY_ERROR,
                f"{what} is not boolean (inferred {dtype})",
                site,
            )

    def _check_gpu_support(self, call: ScalarCall, site: str, what: str) -> None:
        """Flag constructs the device evaluator rejects at runtime."""
        for pos, label in _LITERAL_ONLY_ARGS.get(call.func, ()):
            if pos < len(call.args) and not isinstance(call.args[pos], Literal):
                self.flag(
                    "PA08",
                    SEVERITY_WARNING,
                    f"{what}: {label} must be a literal for GPU execution, "
                    f"got {call.args[pos]!r}",
                    site,
                )
        if call.func in ("in", "not_in"):
            for arg in call.args[1:]:
                if not isinstance(arg, Literal):
                    self.flag(
                        "PA08",
                        SEVERITY_WARNING,
                        f"{what}: IN list element must be a literal for GPU "
                        f"execution, got {arg!r}",
                        site,
                    )
        if call.func == "substring" and not (
            "start" in call.options and "length" in call.options
        ):
            for pos, label in ((1, "substring start"), (2, "substring length")):
                if pos < len(call.args) and not isinstance(call.args[pos], Literal):
                    self.flag(
                        "PA08",
                        SEVERITY_WARNING,
                        f"{what}: {label} must be a literal for GPU execution, "
                        f"got {call.args[pos]!r}",
                        site,
                    )


def _walk_expr(expr: Expression):
    yield expr
    for child in expr.children():
        yield from _walk_expr(child)


# -- working-set estimation ---------------------------------------------------


def _estimate(
    plan: Plan, catalog, device, report: AnalysisReport, out_of_core: bool = False
) -> None:
    """Fill the report's estimate fields.

    Totals come from :func:`repro.sched.estimator.estimate_plan` (the same
    numbers admission control gates on); the per-pipeline-breaker
    breakdown is the analyzer's own pass over the same cardinality model.
    The test suite cross-checks that the breakdown sums to the
    estimator's total.
    """
    from ..sched.estimator import estimate_plan

    est = estimate_plan(plan, catalog, device, out_of_core=out_of_core)
    report.working_set_bytes = est.working_set_bytes
    report.estimated_rows = est.rows
    report.estimated_service_s = est.service_s
    sites: list[dict] = []
    rows, nbytes = _visit_bytes(plan.root, "root", catalog, sites)
    sites.append({"site": "root", "kind": "result", "bytes": int(nbytes)})
    report.pipeline_working_sets = sites


def _visit_bytes(rel: Relation, path: str, catalog, sites: list[dict]):
    """Mirror of the estimator's cardinality pass, tracking contribution
    sites (one per pipeline breaker)."""
    from ..sched.estimator import (
        DEFAULT_GROUPS,
        FILTER_SELECTIVITY,
        HASH_TABLE_FACTOR,
        SEMI_JOIN_SELECTIVITY,
        SORT_BUFFER_FACTOR,
    )

    if isinstance(rel, ReadRel):
        table = catalog.get(rel.table_name)
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
        if rel.filter_expr is not None:
            return rows * FILTER_SELECTIVITY, nbytes * FILTER_SELECTIVITY
        return rows, nbytes
    if isinstance(rel, FilterRel):
        rows, nbytes = _visit_bytes(rel.inputs[0], f"{path}.input", catalog, sites)
        return rows * FILTER_SELECTIVITY, nbytes * FILTER_SELECTIVITY
    if isinstance(rel, JoinRel):
        probe_rows, probe_bytes = _visit_bytes(
            rel.inputs[0], f"{path}.left", catalog, sites
        )
        build_rows, build_bytes = _visit_bytes(
            rel.inputs[1], f"{path}.right", catalog, sites
        )
        sites.append(
            {
                "site": path,
                "kind": "hash-build",
                "bytes": int(HASH_TABLE_FACTOR * build_bytes),
            }
        )
        if rel.join_type in ("semi", "anti"):
            return (
                probe_rows * SEMI_JOIN_SELECTIVITY,
                probe_bytes * SEMI_JOIN_SELECTIVITY,
            )
        out_rows = probe_rows
        per_row = (probe_bytes / probe_rows if probe_rows else 0.0) + (
            build_bytes / build_rows if build_rows else 0.0
        )
        return out_rows, out_rows * per_row
    if isinstance(rel, AggregateRel):
        rows, nbytes = _visit_bytes(rel.inputs[0], f"{path}.input", catalog, sites)
        groups = float(min(rows, DEFAULT_GROUPS)) if rel.group_indices else 1.0
        per_row = nbytes / rows if rows else 0.0
        out_bytes = groups * max(
            per_row, 8.0 * (len(rel.group_indices) + len(rel.measures))
        )
        sites.append(
            {"site": path, "kind": "aggregate-state", "bytes": int(out_bytes)}
        )
        return groups, out_bytes
    if isinstance(rel, SortRel):
        rows, nbytes = _visit_bytes(rel.inputs[0], f"{path}.input", catalog, sites)
        sites.append(
            {"site": path, "kind": "sort-buffer", "bytes": int(SORT_BUFFER_FACTOR * nbytes)}
        )
        return rows, nbytes
    if isinstance(rel, FetchRel):
        rows, nbytes = _visit_bytes(rel.inputs[0], f"{path}.input", catalog, sites)
        if rel.count is not None and rows > 0:
            keep = min(float(rel.count), rows) / rows
            return rows * keep, nbytes * keep
        return rows, nbytes
    if rel.inputs:  # ProjectRel, ExchangeRel, unknown unary: pass through
        return _visit_bytes(rel.inputs[0], f"{path}.input", catalog, sites)
    return 0.0, 0.0
