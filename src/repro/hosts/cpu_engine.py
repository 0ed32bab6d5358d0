"""The host databases' own CPU execution engine.

This is the *vanilla DuckDB engine* role from the paper's Figure 4: a
vectorized, pull-based (Volcano-over-whole-columns) interpreter of the
same plan IR, executing directly on host tables with NumPy and charging a
CPU-calibrated device clock.  It is implemented independently of the GPU
kernel library — null handling, expression evaluation, join assembly and
aggregation are all separate code — which makes it both the paper's
cost-normalised baseline and a differential-testing oracle for Sirius.
"""

from __future__ import annotations

import datetime
import re
from typing import Mapping

import numpy as np

from ..columnar import BOOL, Column, DATE32, FLOAT64, INT64, STRING, Table
from ..columnar.dtypes import date_to_days, dtype_from_name
from ..core.deadline import Deadline
from ..gpu.costmodel import KernelClass
from ..gpu.device import Device
from ..gpu.specs import M7I_CPU, DeviceSpec
from ..plan import (
    AggregateRel,
    FetchRel,
    FieldRef,
    FilterRel,
    JoinRel,
    Literal,
    Plan,
    ProjectRel,
    ReadRel,
    Relation,
    ScalarCall,
    SortRel,
)
from ..plan.relations import join_output_schema

__all__ = ["CpuEngine", "CpuEvalError"]


class CpuEvalError(NotImplementedError):
    """The CPU engine met a plan construct it cannot execute."""


def _literal_value(arg, what: str):
    """An argument the CPU engine reads as a constant; a plan from outside
    may carry any expression there."""
    if not isinstance(arg, Literal):
        raise CpuEvalError(f"{what} must be a literal, got {arg!r}")
    return arg.value


class _Vec:
    """A host vector during evaluation: values + validity (None = scalar)."""

    __slots__ = ("values", "valid", "dtype", "dtype_dictionary")

    def __init__(self, values: np.ndarray, valid: np.ndarray, dtype):
        self.values = values
        self.valid = valid
        self.dtype = dtype
        self.dtype_dictionary = None


class CpuEngine:
    """Executes plans on host tables with a CPU-device simulated clock."""

    def __init__(
        self,
        device: Device | None = None,
        spec: DeviceSpec = M7I_CPU,
        max_intermediate_rows: int | None = 50_000_000,
        materialize_joins: bool = False,
    ):
        """
        Args:
            device: Shared CPU device (a fresh one is made from ``spec``).
            spec: Hardware parameters when no device is given.
            max_intermediate_rows: Memory ceiling of the per-query
                :class:`~repro.core.deadline.Deadline` envelope — abort
                (``DidNotFinishError``) when a join would materialise more
                rows than this; ``None`` disables.
            materialize_joins: Charge a full write+read of every join
                output (no late materialization between operators) — the
                ClickHouse-style execution behaviour that makes join-heavy
                queries degrade in the paper's Figure 4.
        """
        self.device = device if device is not None else Device(spec)
        self.max_intermediate_rows = max_intermediate_rows
        self.materialize_joins = materialize_joins
        self.queries_executed = 0
        self.last_sim_seconds = 0.0
        self._deadline: Deadline | None = None

    def execute(
        self, plan: Plan, catalog: Mapping[str, Table], deadline_s: float | None = None
    ) -> Table:
        """Execute ``plan``; ``deadline_s`` bounds simulated execution time.

        The engine's ``max_intermediate_rows`` ceiling and ``deadline_s``
        combine into one :class:`~repro.core.deadline.Deadline` envelope.
        Time is checked after every charged kernel and *projected* before
        join assembly, so a plan whose written-order joins explode
        (ClickHouse on Q9) raises
        :class:`~repro.core.deadline.DidNotFinishError` without the
        simulation materialising the pathological intermediate.
        """
        plan.validate()
        start = self.device.clock.now
        self._deadline = (
            Deadline(
                deadline_s,
                self.device.clock,
                max_intermediate_rows=self.max_intermediate_rows,
            )
            if deadline_s is not None or self.max_intermediate_rows is not None
            else None
        )
        try:
            result = self._run(plan.root, catalog)
        finally:
            self._deadline = None
            self.last_sim_seconds = self.device.clock.now - start
        self.queries_executed += 1
        return result

    # -- relations ---------------------------------------------------------

    def _run(self, rel: Relation, catalog) -> Table:
        if isinstance(rel, ReadRel):
            table = catalog.get(rel.table_name)
            if table is None:
                raise CpuEvalError(f"table {rel.table_name!r} not found")
            if rel.projection is not None:
                table = table.select(rel.projection)  # column pruning is free
            self._charge(KernelClass.STREAM, table.nbytes, 0, table.num_rows)
            if rel.filter_expr is not None:
                table = self._filter(table, rel.filter_expr)
            return table
        if isinstance(rel, FilterRel):
            return self._filter(self._run(rel.input_rel, catalog), rel.condition)
        if isinstance(rel, ProjectRel):
            return self._project(self._run(rel.input_rel, catalog), rel)
        if isinstance(rel, JoinRel):
            return self._join(rel, catalog)
        if isinstance(rel, AggregateRel):
            return self._aggregate(self._run(rel.input_rel, catalog), rel)
        if isinstance(rel, SortRel):
            return self._sort(self._run(rel.input_rel, catalog), rel)
        if isinstance(rel, FetchRel):
            table = self._run(rel.input_rel, catalog)
            count = table.num_rows if rel.count is None else rel.count
            return table.slice(rel.offset, count)
        raise CpuEvalError(f"unsupported relation {type(rel).__name__}")

    def _charge(self, kclass, bytes_in, bytes_out, rows, num_groups=None):
        self.device.launch(kclass, int(bytes_in), int(bytes_out), int(rows), num_groups)
        if self._deadline is not None:
            self._deadline.check(self.device.clock)

    def _filter(self, table: Table, condition) -> Table:
        vec = self._eval(condition, table)
        keep = vec.values.astype(bool) & vec.valid
        self._charge(KernelClass.STREAM, table.nbytes, 0, table.num_rows)
        return table.mask(keep)

    def _project(self, table: Table, rel: ProjectRel) -> Table:
        out_schema = rel.output_schema()
        columns = []
        computed_bytes = 0
        for expr, field in zip(rel.expressions, out_schema):
            if isinstance(expr, FieldRef):
                # Bare column references are zero-copy in a columnar engine.
                columns.append(table.columns[expr.index])
                continue
            vec = self._eval(expr, table)
            col = self._to_column(vec, field.dtype, table.num_rows)
            computed_bytes += col.nbytes
            columns.append(col)
        if computed_bytes:
            self._charge(KernelClass.STREAM, computed_bytes, computed_bytes, table.num_rows)
        return Table(out_schema, columns)

    # -- join ------------------------------------------------------------------

    def _join(self, rel: JoinRel, catalog) -> Table:
        left = self._run(rel.left, catalog)
        right = self._run(rel.right, catalog)
        if not rel.left_keys:
            return self._cross_join(rel, left, right)

        lkeys = [left.columns[i] for i in rel.left_keys]
        rkeys = [right.columns[i] for i in rel.right_keys]
        lcodes, lvalid = self._key_codes(lkeys, rkeys)
        # Hash-table construction writes ~2.5x the key+payload bytes (load
        # factor + row ids) — mirrors the kernel library's charging so the
        # build-side choice matters identically on CPU and GPU.
        build_key_bytes = sum(self._col_traffic(k) for k in rkeys)
        table_bytes = int(2.5 * (build_key_bytes + 8 * right.num_rows))
        self._charge(KernelClass.HASH_BUILD, build_key_bytes, table_bytes, right.num_rows)
        self._charge(
            KernelClass.HASH_PROBE,
            sum(self._col_traffic(k) for k in lkeys) + 32 * left.num_rows,
            left.num_rows * 8,
            left.num_rows,
        )
        lc, rc = lcodes
        lv, rv = lvalid

        order = np.argsort(rc, kind="stable")
        rc_sorted = rc[order]
        lo = np.searchsorted(rc_sorted, lc, side="left")
        hi = np.searchsorted(rc_sorted, lc, side="right")
        hi = np.where(lv, hi, lo)  # null probe keys match nothing
        invalid_build = int((~rv).sum())
        if invalid_build:
            # Invalid build keys were coded as -1 and sort first.
            lo = np.maximum(lo, invalid_build)
            hi = np.maximum(hi, lo)
        counts = hi - lo

        if rel.join_type in ("semi", "anti") and rel.post_filter is None:
            keep = counts > 0 if rel.join_type == "semi" else counts == 0
            self._charge(KernelClass.STREAM, left.nbytes, 0, left.num_rows)
            return left.mask(keep)

        total = int(counts.sum())
        self._check_budget(total)
        self._projected_assembly_check(left, right, total)
        probe_idx = np.repeat(np.arange(left.num_rows), counts)
        starts = np.repeat(lo, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        build_idx = order[starts + offsets] if total else np.empty(0, dtype=np.int64)

        if rel.join_type in ("semi", "anti"):
            combined = self._assemble_join(left, right, probe_idx, build_idx, rel)
            vec = self._eval(rel.post_filter, combined)
            ok = vec.values.astype(bool) & vec.valid
            matched = np.unique(probe_idx[ok])
            if rel.join_type == "semi":
                return left.take(matched)
            keep = np.setdiff1d(np.arange(left.num_rows), matched)
            return left.take(keep)

        if rel.join_type == "left":
            unmatched = np.flatnonzero(counts == 0)
            probe_idx = np.concatenate([probe_idx, unmatched])
            build_idx = np.concatenate([build_idx, np.full(len(unmatched), -1)])

        out = self._assemble_join(left, right, probe_idx, build_idx, rel)
        if rel.post_filter is not None and rel.join_type in ("inner", "left"):
            out = self._filter(out, rel.post_filter)
        return out

    def _assemble_join(self, left, right, probe_idx, build_idx, rel) -> Table:
        schema = join_output_schema(left.schema, right.schema)
        null_build = build_idx < 0
        safe_build = np.where(null_build, 0, build_idx)
        columns = []
        for col in left.columns:
            columns.append(col.take(probe_idx))
        for col in right.columns:
            if len(col):
                taken = col.take(safe_build)
            else:
                taken = Column(
                    col.dtype,
                    np.zeros(len(build_idx), dtype=col.dtype.numpy_dtype),
                    np.zeros(len(build_idx), dtype=np.bool_),
                    col.dictionary,
                )
            if null_build.any() and len(taken):
                validity = taken.is_valid_mask() & ~null_build
                taken = Column(taken.dtype, taken.data, validity, taken.dictionary)
            columns.append(taken)
        out_bytes = sum(c.nbytes for c in columns)
        self._charge(
            KernelClass.GATHER,
            left.nbytes + right.nbytes,
            out_bytes,
            len(probe_idx),
        )
        if self.materialize_joins:
            # No late materialization: the joined block is written out and
            # read back by the next operator.
            self._charge(KernelClass.STREAM, out_bytes, out_bytes, len(probe_idx))
        return Table(schema, columns)

    def _check_budget(self, rows: int) -> None:
        if self._deadline is not None:
            self._deadline.check_rows(rows)

    def _projected_assembly_check(self, left: Table, right: Table, rows: int) -> None:
        """Abort *before* materialising a join whose assembly alone would
        blow the deadline — NumPy would otherwise really build the
        pathological intermediate the timeout is meant to prevent."""
        if self._deadline is None or rows == 0:
            return
        left_row_bytes = left.nbytes / max(left.num_rows, 1)
        right_row_bytes = right.nbytes / max(right.num_rows, 1)
        out_bytes = int((left_row_bytes + right_row_bytes) * rows)
        projected = self.device.cost_model.kernel_cost(
            KernelClass.GATHER, left.nbytes + right.nbytes, out_bytes, rows
        ).total
        if self.materialize_joins:
            projected += self.device.cost_model.kernel_cost(
                KernelClass.STREAM, out_bytes, out_bytes, rows
            ).total
        self._deadline.check_projected(self.device.clock, projected)

    def _cross_join(self, rel, left, right) -> Table:
        n, m = left.num_rows, right.num_rows
        self._check_budget(n * m)
        if self._deadline is not None:
            expand = self.device.cost_model.kernel_cost(
                KernelClass.STREAM, left.nbytes + right.nbytes, n * m * 8, n * m
            ).total
            self._deadline.check_projected(self.device.clock, expand)
        self._projected_assembly_check(left, right, n * m)
        probe_idx = np.repeat(np.arange(n), m)
        build_idx = np.tile(np.arange(m), n)
        self._charge(KernelClass.STREAM, left.nbytes + right.nbytes, n * m * 8, n * m)
        out = self._assemble_join(left, right, probe_idx, build_idx, rel)
        if rel.post_filter is not None:
            out = self._filter(out, rel.post_filter)
        return out

    def _key_codes(self, lkeys, rkeys):
        """Dense comparable codes across both sides; invalid keys -> -1."""
        n_l = len(lkeys[0]) if lkeys else 0
        n_r = len(rkeys[0]) if rkeys else 0
        combined_l = np.zeros(n_l, dtype=np.int64)
        combined_r = np.zeros(n_r, dtype=np.int64)
        lvalid = np.ones(n_l, dtype=bool)
        rvalid = np.ones(n_r, dtype=bool)
        for lcol, rcol in zip(lkeys, rkeys):
            lvals = self._comparable(lcol)
            rvals = self._comparable(rcol)
            both = np.concatenate([lvals, rvals])
            _, inv = np.unique(both, return_inverse=True)
            card = int(inv.max()) + 1 if len(inv) else 1
            combined_l = combined_l * card + inv[:n_l]
            combined_r = combined_r * card + inv[n_l:]
            lvalid &= lcol.is_valid_mask()
            rvalid &= rcol.is_valid_mask()
            if lcol.dtype.is_string:
                lvalid &= lcol.data >= 0
            if rcol.dtype.is_string:
                rvalid &= rcol.data >= 0
        _, dense = np.unique(np.concatenate([combined_l, combined_r]), return_inverse=True)
        lc = dense[:n_l].astype(np.int64)
        rc = dense[n_l:].astype(np.int64)
        lc[~lvalid] = -1
        rc[~rvalid] = -1
        return (lc, rc), (lvalid, rvalid)

    def _comparable(self, col: Column) -> np.ndarray:
        if col.dtype.is_string:
            return col.decoded()
        return col.data

    def _col_traffic(self, col: Column) -> int:
        if col.dtype.is_string and col.dictionary is not None and len(col):
            avg = (
                sum(len(str(s)) for s in col.dictionary) / len(col.dictionary)
                if len(col.dictionary)
                else 0
            )
            return int(len(col) * avg) + col.nbytes
        return col.nbytes

    # -- aggregation ----------------------------------------------------------

    def _aggregate(self, table: Table, rel: AggregateRel) -> Table:
        out_schema = rel.output_schema()
        if not rel.group_indices:
            return self._global_aggregate(table, rel, out_schema)

        key_cols = [table.columns[i] for i in rel.group_indices]
        combined = np.zeros(table.num_rows, dtype=np.int64)
        for col in key_cols:
            vals = self._comparable(col)
            mask = col.is_valid_mask()
            if col.dtype.is_string:
                mask = mask & (col.data >= 0)
            # Rank the valid values only; NULL is one more key value, ranked
            # after them (a marker of another type would not compare).
            distinct, ranks = np.unique(vals[mask], return_inverse=True)
            inv = np.full(len(vals), len(distinct), dtype=np.int64)
            inv[mask] = ranks
            combined = combined * (int(inv.max()) + 1 if len(inv) else 1) + inv
        uniq, first_idx, gids = np.unique(combined, return_index=True, return_inverse=True)
        num_groups = len(uniq)
        self._charge(
            KernelClass.GROUPBY_HASH,
            table.nbytes,
            num_groups * 8 * len(out_schema),
            table.num_rows,
            num_groups=num_groups,
        )

        columns = [col.take(first_idx) for col in key_cols]
        for (agg, _name), field in zip(rel.measures, out_schema.fields[len(key_cols):]):
            columns.append(self._grouped_measure(table, agg, gids, num_groups, field.dtype))
        return Table(out_schema, columns)

    def _grouped_measure(self, table, agg, gids, num_groups, dtype) -> Column:
        # Each aggregate is its own accumulation pass over its input column
        # (CPU engines evaluate measures one by one); Q1's eight measures
        # cost eight passes, which is what makes it expensive on the CPU
        # baselines.  The hash/grouping itself was charged once above.
        self._charge(
            KernelClass.GROUPBY_HASH,
            table.num_rows * 8,
            num_groups * 8,
            table.num_rows // 2,
            num_groups=num_groups,
        )
        if agg.op == "count_star":
            counts = np.bincount(gids, minlength=num_groups).astype(np.int64)
            return Column(INT64, counts)
        vec = self._eval(agg.arg, table)
        values = vec.values
        valid = vec.valid
        op = agg.op
        if op == "count" and agg.distinct:
            op = "count_distinct"
        if op == "count":
            counts = np.bincount(gids[valid], minlength=num_groups).astype(np.int64)
            return Column(INT64, counts)
        if op == "count_distinct":
            sub = gids[valid]
            vals = values[valid]
            if len(vals) == 0:
                return Column(INT64, np.zeros(num_groups, dtype=np.int64))
            _, vcodes = np.unique(vals, return_inverse=True)
            pairs = np.unique(sub * (int(vcodes.max()) + 1) + vcodes)
            out = np.bincount(
                (pairs // (int(vcodes.max()) + 1)).astype(np.int64), minlength=num_groups
            )
            return Column(INT64, out.astype(np.int64))
        has_value = np.zeros(num_groups, dtype=bool)
        np.logical_or.at(has_value, gids[valid], True)
        if op in ("sum", "avg"):
            sums = np.bincount(
                gids[valid], weights=values[valid].astype(float), minlength=num_groups
            ).astype(np.float64)  # bincount returns int64 when weights are empty
            if op == "avg":
                counts = np.bincount(gids[valid], minlength=num_groups)
                out = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
                return Column(FLOAT64, out, has_value)
            if dtype.is_integer:
                return Column(INT64, np.round(sums).astype(np.int64), has_value)
            return Column(FLOAT64, sums, has_value)
        if op in ("min", "max"):
            sub = gids[valid]
            vals = values[valid]
            out = np.zeros(num_groups, dtype=vals.dtype if len(vals) else np.float64)
            if len(vals):
                order = np.argsort(sub, kind="stable")
                sorted_gids = sub[order]
                sorted_vals = vals[order]
                bounds = np.concatenate([[0], np.flatnonzero(np.diff(sorted_gids)) + 1])
                reducer = np.minimum if op == "min" else np.maximum
                reduced = reducer.reduceat(sorted_vals, bounds)
                out = np.zeros(num_groups, dtype=sorted_vals.dtype)
                out[sorted_gids[bounds]] = reduced
            return self._vec_to_typed_column(out, has_value, dtype, vec)
        raise CpuEvalError(f"aggregate {agg.op} unsupported")

    def _vec_to_typed_column(self, data, valid, dtype, src_vec) -> Column:
        if dtype.is_string:
            return Column(STRING, data.astype(np.int32), valid, src_vec.dtype_dictionary)
        return Column(dtype, data.astype(dtype.numpy_dtype), valid)

    def _global_aggregate(self, table, rel, out_schema) -> Table:
        columns = []
        self._charge(KernelClass.STREAM, table.nbytes, 64, table.num_rows)
        for (agg, _name), field in zip(rel.measures, out_schema):
            value = self._scalar_measure(table, agg)
            columns.append(self._scalar_column(value, field.dtype))
        return Table(out_schema, columns)

    def _scalar_measure(self, table, agg):
        self._charge(KernelClass.STREAM, table.num_rows * 8, 8, table.num_rows)
        if agg.op == "count_star":
            return table.num_rows
        vec = self._eval(agg.arg, table)
        values = vec.values[vec.valid]
        op = agg.op
        if op == "count_distinct" or (op == "count" and agg.distinct):
            # For strings the values are dictionary codes: distinct codes
            # are distinct values, so uniqueness over codes is exact.
            return len(np.unique(values))
        if op == "count":
            return len(values)
        if len(values) == 0:
            return None
        if op == "sum":
            return float(values.astype(float).sum())
        if op == "avg":
            return float(values.astype(float).mean())
        if op in ("min", "max"):
            raw = values.min() if op == "min" else values.max()
            if vec.dtype.is_string:
                # Values are dictionary codes; decode (dictionary is sorted,
                # so code order is value order).
                return str(vec.dtype_dictionary[int(raw)])
            return raw
        raise CpuEvalError(f"aggregate {op} unsupported")

    def _scalar_column(self, value, dtype) -> Column:
        if value is None:
            return Column(
                dtype,
                np.zeros(1, dtype=dtype.numpy_dtype),
                np.zeros(1, dtype=bool),
                np.array([], dtype=object) if dtype.is_string else None,
            )
        if dtype.is_string:
            return Column.from_strings([str(value)])
        if dtype.is_integer:
            value = int(round(float(value)))
        return Column(dtype, np.array([value], dtype=dtype.numpy_dtype))

    # -- sort --------------------------------------------------------------------

    def _sort(self, table: Table, rel: SortRel) -> Table:
        keys = []
        for idx, ascending in reversed(rel.sort_keys):
            col = table.columns[idx]
            data = col.data.astype(np.float64)
            valid = col.is_valid_mask()
            if col.dtype.is_string:
                valid = valid & (col.data >= 0)
            if not ascending:
                data = -data
            data = np.where(valid, data, np.inf)
            keys.append(data)
        order = np.lexsort(keys)
        self._charge(KernelClass.SORT, table.nbytes, table.num_rows * 8, table.num_rows)
        return table.take(order)

    # -- expressions --------------------------------------------------------------

    def _eval(self, expr, table: Table) -> _Vec:
        n = table.num_rows
        if isinstance(expr, FieldRef):
            col = table.columns[expr.index]
            vec = _Vec(col.data, col.is_valid_mask(), col.dtype)
            vec.dtype_dictionary = col.dictionary
            if col.dtype.is_string:
                vec.valid = vec.valid & (col.data >= 0)
            return vec
        if isinstance(expr, Literal):
            return self._literal_vec(expr, n)
        if isinstance(expr, ScalarCall):
            return self._eval_call(expr, table)
        raise CpuEvalError(f"cannot evaluate {expr!r}")

    def _literal_vec(self, lit: Literal, n: int) -> _Vec:
        value = lit.value
        if value is None:
            vec = _Vec(np.zeros(n), np.zeros(n, dtype=bool), lit.dtype)
            vec.dtype_dictionary = None
            return vec
        if isinstance(value, datetime.date):
            vec = _Vec(np.full(n, date_to_days(value), dtype=np.int32), np.ones(n, dtype=bool), DATE32)
            vec.dtype_dictionary = None
            return vec
        if isinstance(value, str):
            vec = _Vec(np.zeros(n, dtype=np.int32), np.ones(n, dtype=bool), STRING)
            vec.dtype_dictionary = np.array([value], dtype=object)
            return vec
        dtype = BOOL if isinstance(value, bool) else (INT64 if isinstance(value, int) else FLOAT64)
        vec = _Vec(np.full(n, value, dtype=dtype.numpy_dtype), np.ones(n, dtype=bool), dtype)
        vec.dtype_dictionary = None
        return vec

    def _decode(self, vec: _Vec) -> np.ndarray:
        out = np.empty(len(vec.values), dtype=object)
        dictionary = getattr(vec, "dtype_dictionary", None)
        if dictionary is None:
            dictionary = np.array([], dtype=object)
        ok = vec.valid & (vec.values >= 0)
        out[ok] = dictionary[vec.values[ok]]
        out[~ok] = None
        return out

    def _eval_call(self, call: ScalarCall, table: Table) -> _Vec:
        f = call.func
        n = table.num_rows
        self._charge(KernelClass.STREAM, n * 8, n * 8, n)

        if f in ("add", "subtract", "multiply", "divide", "modulo"):
            a = self._eval(call.args[0], table)
            b = self._eval(call.args[1], table)
            valid = a.valid & b.valid
            av = a.values.astype(np.float64)
            bv = b.values.astype(np.float64)
            op = {"add": np.add, "subtract": np.subtract, "multiply": np.multiply,
                  "divide": np.divide, "modulo": np.fmod}[f]  # fmod: the dividend's sign
            with np.errstate(divide="ignore", invalid="ignore"):
                out = op(av, bv)
            if f in ("divide", "modulo"):  # a zero divisor is NULL
                valid = valid & (bv != 0)
                out = np.where(valid, out, 0.0)
                if f == "divide":
                    return self._num_vec(out, valid, FLOAT64)
            if a.dtype is DATE32 and b.dtype.is_integer and f in ("add", "subtract"):
                return self._num_vec(out.astype(np.int32), valid, DATE32)
            if a.dtype is DATE32 and b.dtype is DATE32 and f == "subtract":
                return self._num_vec(out.astype(np.int64), valid, INT64)
            if a.dtype.is_integer and b.dtype.is_integer and f != "divide":
                return self._num_vec(np.round(out).astype(np.int64), valid, INT64)
            return self._num_vec(out, valid, FLOAT64)

        if f in ("eq", "ne", "lt", "le", "gt", "ge"):
            a = self._eval(call.args[0], table)
            b = self._eval(call.args[1], table)
            valid = a.valid & b.valid
            if a.dtype.is_string or b.dtype.is_string:
                av, bv = self._decode(a), self._decode(b)
                py = {"eq": "__eq__", "ne": "__ne__", "lt": "__lt__", "le": "__le__",
                      "gt": "__gt__", "ge": "__ge__"}[f]
                out = np.zeros(len(av), dtype=bool)
                idx = np.flatnonzero(valid)
                out[idx] = [getattr(av[i], py)(bv[i]) for i in idx]
            else:
                op = {"eq": np.equal, "ne": np.not_equal, "lt": np.less, "le": np.less_equal,
                      "gt": np.greater, "ge": np.greater_equal}[f]
                out = op(a.values, b.values)
            return self._num_vec(out, valid, BOOL)

        if f == "and":
            a = self._eval(call.args[0], table)
            b = self._eval(call.args[1], table)
            av = a.values.astype(bool)
            bv = b.values.astype(bool)
            out = av & bv
            valid = (a.valid & b.valid) | (a.valid & ~av) | (b.valid & ~bv)
            return self._num_vec(out & valid, valid, BOOL)
        if f == "or":
            a = self._eval(call.args[0], table)
            b = self._eval(call.args[1], table)
            av = a.values.astype(bool) & a.valid
            bv = b.values.astype(bool) & b.valid
            out = av | bv
            valid = (a.valid & b.valid) | av | bv
            return self._num_vec(out, valid, BOOL)
        if f == "not":
            a = self._eval(call.args[0], table)
            return self._num_vec(~a.values.astype(bool) & a.valid, a.valid, BOOL)

        if f in ("is_null", "is_not_null"):
            a = self._eval(call.args[0], table)
            out = a.valid if f == "is_not_null" else ~a.valid
            return self._num_vec(out, np.ones(n, dtype=bool), BOOL)

        if f in ("like", "not_like", "contains", "starts_with"):
            a = self._eval(call.args[0], table)
            pattern = _literal_value(call.args[1], f"{f} pattern")
            if f == "contains":
                pattern = f"%{pattern}%"
            elif f == "starts_with":
                pattern = f"{pattern}%"
            regex = _like_regex(pattern, call.options.get("escape"))
            decoded = self._decode(a)
            out = np.array(
                [bool(regex.match(s)) if s is not None else False for s in decoded], dtype=bool
            )
            if f == "not_like":
                out = ~out
            return self._num_vec(out & a.valid, a.valid, BOOL)

        if f in ("in", "not_in"):
            a = self._eval(call.args[0], table)
            values = [_literal_value(arg, "IN list element") for arg in call.args[1:]]
            literals = [v for v in values if v is not None]
            if a.dtype.is_string:
                targets = {str(v) for v in literals}
                decoded = self._decode(a)
                out = np.array([s in targets for s in decoded], dtype=bool)
            else:
                raw = [date_to_days(v) if isinstance(v, datetime.date) else v for v in literals]
                out = np.isin(a.values, np.array(raw))
            out &= a.valid
            # A NULL in the list makes every row it does not match NULL.
            valid = a.valid & out if len(literals) < len(values) else a.valid
            if f == "not_in":
                out = ~out
            return self._num_vec(out & valid, valid, BOOL)

        if f == "between":
            a = self._eval(call.args[0], table)
            lo = self._eval(call.args[1], table)
            hi = self._eval(call.args[2], table)
            # Kleene AND of the two comparisons: a FALSE one decides the row.
            lo_ok, hi_ok = a.valid & lo.valid, a.valid & hi.valid
            above, below = lo_ok & (a.values >= lo.values), hi_ok & (a.values <= hi.values)
            valid = (lo_ok & hi_ok) | (lo_ok & ~above) | (hi_ok & ~below)
            return self._num_vec(above & below, valid, BOOL)

        if f == "case":
            pairs = call.args[:-1]
            default = self._eval(call.args[-1], table)
            conds = [self._eval(pairs[i], table) for i in range(0, len(pairs), 2)]
            results = [self._eval(pairs[i + 1], table) for i in range(0, len(pairs), 2)]
            if default.dtype.is_string or any(r.dtype.is_string for r in results):
                out = self._branch_strings(default, n)
                decided = np.zeros(n, dtype=bool)
                for cond, result in zip(conds, results):
                    fire = cond.values.astype(bool) & cond.valid & ~decided
                    out[fire] = self._branch_strings(result, n)[fire]
                    decided |= fire
                return self._string_vec(list(out))
            # Promote across all branches: int default with float results
            # must not truncate.
            common = np.result_type(default.values, *(r.values for r in results))
            out_vals = default.values.astype(common).copy()
            out_valid = default.valid.copy()
            out_dtype = FLOAT64 if np.issubdtype(common, np.floating) else default.dtype
            decided = np.zeros(n, dtype=bool)
            for cond, result in zip(conds, results):
                fire = cond.values.astype(bool) & cond.valid & ~decided
                out_vals = np.where(fire, result.values.astype(common), out_vals)
                out_valid = np.where(fire, result.valid, out_valid)
                decided |= fire
            return self._num_vec(out_vals, out_valid, out_dtype)

        if f == "coalesce":
            vecs = [self._eval(a, table) for a in call.args]
            if any(v.dtype.is_string for v in vecs):
                out = np.full(n, None, dtype=object)
                for vec in vecs:
                    decoded = self._branch_strings(vec, n)
                    fill = np.array([x is None for x in out]) & np.array(
                        [d is not None for d in decoded]
                    )
                    out[fill] = decoded[fill]
                return self._string_vec(list(out))
            typed = next((v for v in vecs if v.valid.any()), vecs[0])
            out_vals = vecs[0].values.astype(typed.values.dtype).copy()
            out_valid = vecs[0].valid.copy()
            for vec in vecs[1:]:
                fill = ~out_valid & vec.valid
                out_vals = np.where(fill, vec.values.astype(out_vals.dtype), out_vals)
                out_valid |= vec.valid
            return self._num_vec(out_vals, out_valid, typed.dtype)

        if f == "cast":
            a = self._eval(call.args[0], table)
            target = dtype_from_name(call.options["to"])
            if a.dtype.is_string or target.is_string:
                raise CpuEvalError("string casts unsupported on CPU path")
            return self._num_vec(a.values.astype(target.numpy_dtype), a.valid, target)

        if f in ("extract_year", "extract_month", "extract_day"):
            a = self._eval(call.args[0], table)
            days = a.values.astype("datetime64[D]")
            if f == "extract_year":
                out = days.astype("datetime64[Y]").astype(np.int64) + 1970
            elif f == "extract_month":
                out = days.astype("datetime64[M]").astype(np.int64) % 12 + 1
            else:
                months = days.astype("datetime64[M]")
                out = (days - months.astype("datetime64[D]")).astype(np.int64) + 1
            return self._num_vec(out, a.valid, INT64)

        if f == "substring":
            a = self._eval(call.args[0], table)
            start = int(_literal_value(call.args[1], "substring start"))
            length = int(_literal_value(call.args[2], "substring length"))
            decoded = self._decode(a)
            values = [
                None if s is None else str(s)[start - 1 : start - 1 + length] for s in decoded
            ]
            col = Column.from_strings(values)
            vec = _Vec(col.data, col.is_valid_mask(), STRING)
            vec.dtype_dictionary = col.dictionary
            return vec

        if f == "negate":
            a = self._eval(call.args[0], table)
            return self._num_vec(-a.values, a.valid, a.dtype)

        if f in ("upper", "lower"):
            a = self._eval(call.args[0], table)
            decoded = self._decode(a)
            convert = str.upper if f == "upper" else str.lower
            return self._string_vec([None if s is None else convert(str(s)) for s in decoded])

        if f == "length":
            a = self._eval(call.args[0], table)
            decoded = self._decode(a)
            out = np.array([0 if s is None else len(str(s)) for s in decoded], dtype=np.int64)
            return self._num_vec(out, a.valid, INT64)

        if f == "concat":
            parts = [self._branch_strings(self._eval(arg, table), n) for arg in call.args]
            values = []
            for i in range(n):
                row = [p[i] for p in parts]
                values.append(None if any(x is None for x in row) else "".join(row))
            return self._string_vec(values)

        if f == "abs":
            a = self._eval(call.args[0], table)
            return self._num_vec(np.abs(a.values), a.valid, a.dtype)

        if f == "round":
            a = self._eval(call.args[0], table)
            digits = int(_literal_value(call.args[1], "round digits")) if len(call.args) > 1 else 0
            out = np.round(a.values.astype(np.float64), digits)
            return self._num_vec(out, a.valid, FLOAT64)

        raise CpuEvalError(f"function {f!r} unsupported by the CPU engine")

    def _num_vec(self, values, valid, dtype) -> _Vec:
        vec = _Vec(np.asarray(values), np.asarray(valid, dtype=bool), dtype)
        vec.dtype_dictionary = None
        return vec

    def _string_vec(self, values: list) -> _Vec:
        col = Column.from_strings(values)
        vec = _Vec(col.data, col.is_valid_mask(), STRING)
        vec.dtype_dictionary = col.dictionary
        return vec

    def _branch_strings(self, vec: _Vec, n: int) -> np.ndarray:
        """Decode a vector feeding a string result; typed NULLs pass through."""
        if vec.dtype.is_string:
            return self._decode(vec)
        if not vec.valid.any():
            return np.full(n, None, dtype=object)
        raise CpuEvalError(f"expected string operand, got {vec.dtype.name}")

    def _to_column(self, vec: _Vec, dtype, n: int) -> Column:
        dictionary = getattr(vec, "dtype_dictionary", None)
        if dtype.is_string:
            if dictionary is None:
                raise CpuEvalError("string column without dictionary")
            codes = vec.values.astype(np.int32).copy()
            codes[~vec.valid] = -1
            return Column(STRING, codes, vec.valid, dictionary)
        data = vec.values.astype(dtype.numpy_dtype)
        return Column(dtype, data, vec.valid)


def _like_regex(pattern: str, escape: str | None = None) -> re.Pattern:
    parts = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape and i + 1 < len(pattern):
            # ESCAPE'd character matches literally, including % and _.
            parts.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
        i += 1
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)
