"""The one structural pass over a plan tree.

A full bottom-up walk: each relation's output schema is derived from the
schemas its inputs returned (never re-derived with ``output_schema()`` at
every level), every expression is type-checked and ordinals are bounded.
Every defect goes through one ``flag(rule, severity, message, site)``
callable, and the caller decides what a defect means:

* :meth:`repro.plan.Plan.validate` raises on the first ``error``;
* :func:`repro.analysis.analyze_plan` collects them all into a report,
  and also asks the expression compiler whether the device can lower
  each type-correct expression (:meth:`PlanChecker.check_lowering`).

The rule ids (``PA01`` .. ``PA10``) are catalogued in
:mod:`repro.analysis.plan_analyzer`.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..columnar import BOOL, Schema, Table
from .expressions import (
    AggregateCall,
    Expression,
    FieldRef,
    aggregate_result_type,
    infer_type,
    walk_expressions,
)
from .relations import (
    AggregateRel,
    FetchRel,
    FilterRel,
    JoinRel,
    ProjectRel,
    ReadRel,
    Relation,
    SortRel,
    join_output_schema,
)

__all__ = ["PlanChecker", "SEVERITY_ERROR", "SEVERITY_WARNING"]

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

def _is_ordinal(index, arity: int) -> bool:
    """Ordinals arrive in payloads from outside the program: only an
    ``int`` counting from the front addresses a column — never a bool, a
    float, a string, or an index from the end."""
    return isinstance(index, int) and not isinstance(index, bool) and 0 <= index < arity


class PlanChecker:
    """Bottom-up schema propagation; defects are reported through ``flag``.

    ``catalog`` (host tables by name) enables the unknown-table check.
    """

    def __init__(
        self,
        flag: Callable[[str, str, str, str], None],
        catalog: Mapping[str, Table] | None = None,
    ):
        self.flag = flag
        self.catalog = catalog

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
                    if not _is_ordinal(idx, len(schema)):
                        self.flag(
                            "PA02",
                            SEVERITY_ERROR,
                            f"sort key ordinal ${idx!r} out of range "
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
            if not (_is_ordinal(lk, len(left)) and _is_ordinal(rk, len(right))):
                self.flag(
                    "PA02",
                    SEVERITY_ERROR,
                    f"join key ordinal out of range: ${lk!r}=${rk!r} "
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
        semi = rel.join_type in ("semi", "anti")
        if semi and rel.post_filter is None:
            return left
        combined = join_output_schema(left, right)
        if rel.post_filter is not None:
            # Post-filters see the combined schema even for semi/anti joins
            # (residual correlated predicates reference both sides).
            self._check_predicate(rel.post_filter, combined, site, "join post-filter")
        return left if semi else combined

    def _aggregate(self, rel: AggregateRel, path: str, site: str) -> Schema | None:
        in_schema = self.visit(rel.input_rel, f"{path}.input")
        if in_schema is None:
            return None
        fields: list[tuple[str, object]] = []
        broken = False
        for g in rel.group_indices:
            if not _is_ordinal(g, len(in_schema)):
                self.flag(
                    "PA02",
                    SEVERITY_ERROR,
                    f"group ordinal ${g!r} out of range (input arity {len(in_schema)})",
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
                    for node in walk_expressions(agg.arg)
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

    # -- expression checks ---------------------------------------------------

    def _check_scalar(self, expr: Expression, schema: Schema, site: str, what: str):
        """Type-check a scalar-position expression; returns its dtype or
        ``None`` after flagging the blocking defect."""
        ok = True
        for node in walk_expressions(expr):
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
            dtype = infer_type(expr, schema)
        except (TypeError, KeyError, IndexError) as exc:
            self.flag("PA03", SEVERITY_ERROR, f"{what}: {exc}", site)
            return None
        self.check_lowering(expr, site, what)
        return dtype

    def check_lowering(self, expr: Expression, site: str, what: str) -> None:
        """Called with every type-correct scalar-position expression.
        Whether the device can run it is the expression compiler's
        decision, which the plan layer does not know; the analyzer
        overrides this to ask."""

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
