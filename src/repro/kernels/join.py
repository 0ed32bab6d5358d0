"""Join kernels: hash joins returning libcudf-style int32 gather maps.

Like libcudf, joins here return *row indices* rather than materialised
tables; Sirius' operators gather the payload columns afterwards.  Also like
libcudf, the indices are **int32** — the host engine uses uint64 row ids,
and the buffer manager pays a conversion copy at the boundary (§3.2.3 of
the paper calls this out as the one non-zero-copy conversion): one
launch per gather map, after which the probe's output region converts
back to int32 — inside its one launch under fused billing, a second
launch per map under per-part billing.

The simulated hash join charges:

* a ``HASH_BUILD`` kernel over the build side's key bytes, and
* a ``HASH_PROBE`` kernel over the probe side's key bytes plus the output
  index bytes,

which is the traffic pattern of a real GPU hash join.  The join functions
charge both on every call, the build as a launch of its own even inside
an open region: a hash table is complete before any probe reads it.  A
table that outlives one call is charged apart: :func:`build_hash_table`
charges its build once (a part of the caller's region), and each
:func:`probe_hash_table` call charges only ``HASH_PROBE``.  Both charge
around the join functions' own matching, so the pairs and their order
do not depend on how the build is charged.

The matching in NumPy is direct-addressed either way, and both ways emit
the same pairs in the same order.  One integer-kind key column (ints,
dates, bools) whose build side spans no more than ``_dense_rank``'s
table budget is *looked up*: a span-sized table holds each build key's
row, and a probe key is one subtract, range check and gather away from
it — for inner and left joins when a side's keys are unique, for semi
and anti joins always.  Otherwise
``factorize_keys`` gives both sides dense codes, a ``bincount`` + ``cumsum``
over the build codes gives every probe row its run of matches, and only
inner and left joins order the build side, to lay those runs out.
Simulated time comes from the cost model, not from NumPy's runtime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..gpu.costmodel import KernelClass
from .gtable import GColumn, GTable, NULL_INDEX
from .keys import NULL_CODE, TABLE_SLOTS_FLOOR, TABLE_SLOTS_PER_ROW, factorize_keys

__all__ = [
    "inner_join",
    "left_join",
    "semi_join",
    "anti_join",
    "build_hash_table",
    "probe_hash_table",
    "JoinResult",
]


class JoinResult:
    """Gather maps produced by a join: ``left_indices[i]`` pairs with
    ``right_indices[i]``; ``-1`` marks a non-match (outer joins)."""

    __slots__ = ("left_indices", "right_indices")

    def __init__(self, left_indices: np.ndarray, right_indices: np.ndarray):
        self.left_indices = left_indices.astype(np.int32)
        self.right_indices = right_indices.astype(np.int32)

    def __len__(self) -> int:
        return len(self.left_indices)


def _match_ranges(build_codes: np.ndarray, probe_codes: np.ndarray, num_codes: int):
    """For each probe code, locate its run of equal build codes.

    Returns ``(lo, hi)``: ``[lo[i], hi[i])`` is the matching slice of the
    stably sorted build codes (empty for nulls and misses).  ``num_codes``
    is ``factorize_keys``' third return — every code of either side is
    below it — so the ranges come from a count per code (slot 0 holds
    ``NULL_CODE``) and nothing is sorted or searched here.
    """
    counts = np.bincount(build_codes - NULL_CODE, minlength=num_codes + 1)
    ends = np.cumsum(counts)
    starts = ends - counts
    # Null build keys sort first and null probe keys never match: a null
    # probe gets the empty range just past the null build rows.
    starts[0] = ends[0]
    return starts[probe_codes - NULL_CODE], ends[probe_codes - NULL_CODE]


def _expand(build_codes: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Expand per-probe match ranges into (probe_idx, build_idx) pairs.

    Only here is the build side ordered (a stable sort of its codes, which
    is what the ranges index), so semi and anti joins never pay for it.
    """
    counts = hi - lo
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(lo), dtype=np.int64), counts)
    if total == 0:
        return probe_idx, np.empty(0, dtype=np.int64), counts
    starts = np.repeat(lo, counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    build_pos = starts + offsets
    return probe_idx, np.argsort(build_codes, kind="stable")[build_pos], counts


# Hash tables carry slack (load factor) plus an 8-byte row payload per
# entry; constructing one writes substantially more than the raw key bytes.
# This is why engines build on the smaller side — and why the ClickHouse
# baseline, which never swaps sides, degrades on join-heavy queries.
HASH_TABLE_EXPANSION = 2.5


def _charge(build_keys, probe_keys, out_rows: int) -> None:
    """One call's build and probe.  The build is never a part of the
    caller's region: the probe in that region reads the finished table."""
    _charge_build(build_keys, build_keys[0].device.launch_unfused)
    _charge_probe(probe_keys, out_rows)


def _charge_build(build_keys, launch) -> int:
    build_bytes = sum(k.traffic_bytes for k in build_keys)
    build_rows = len(build_keys[0])
    table_bytes = int(HASH_TABLE_EXPANSION * (build_bytes + 8 * build_rows))
    launch(KernelClass.HASH_BUILD, build_bytes, table_bytes, build_rows)
    return table_bytes


def _charge_probe(probe_keys, out_rows: int) -> None:
    probe_bytes = sum(k.traffic_bytes for k in probe_keys)
    probe_rows = len(probe_keys[0])
    # Each probe reads its keys plus one hash-table bucket (~32 B).
    probe_keys[0].device.launch(
        KernelClass.HASH_PROBE, probe_bytes + 32 * probe_rows, out_rows * 8, probe_rows
    )


def build_hash_table(build_keys: Sequence[GColumn]) -> int:
    """Charge building a hash table over ``build_keys`` that later probes
    read through :func:`probe_hash_table`; a part of the caller's open
    region, if any.  Returns the bytes the table occupies."""
    return _charge_build(build_keys, build_keys[0].device.launch)


def probe_hash_table(join_type: str, probe_keys, build_keys):
    """A ``join_type`` join of ``probe_keys`` against the table that
    :func:`build_hash_table` built over ``build_keys``: the result of the
    matching join function, charging ``HASH_PROBE`` only."""
    result = _MATCH[join_type](probe_keys, build_keys)
    _charge_probe(probe_keys, len(result))
    return result


def _lookup(build_keys, probe_keys, unique: bool) -> np.ndarray | None:
    """Each probe row's build row (``-1``: NULL or no match), or ``None``
    unless the key is one integer-kind column whose valid build rows span
    at most ``_dense_rank``'s budget and, with ``unique``, repeat no key."""
    if len(build_keys) != 1:
        return None
    build, probe = build_keys[0], probe_keys[0]
    for key in (build, probe):
        if key.dtype.is_string or key.data.dtype.kind not in "ib":  # string codes are int32
            return None
    if build.validity is None:
        rows = np.arange(len(build))
        values = build.data
    else:
        rows = np.flatnonzero(build.validity.array)
        values = build.data[rows]
    lo = int(values.min()) if len(rows) else 0
    span = int(values.max()) - lo + 1 if len(rows) else 0  # Python ints: cannot overflow
    if span > TABLE_SLOTS_PER_ROW * len(rows) + TABLE_SLOTS_FLOOR:
        return None
    # One slot per key in [lo, lo + span), plus a last one no key reaches.
    table = np.full(span + 1, -1, dtype=np.intp)
    table[np.subtract(values, lo, dtype=np.intp)] = rows
    if unique and np.count_nonzero(table >= 0) != len(rows):
        return None
    # Viewed unsigned, a key below ``lo`` wraps past ``span`` (as one above
    # the range is past it already): ``minimum`` sends both to the last slot.
    slots = np.subtract(probe.data, lo, dtype=np.intp)
    np.minimum(slots.view(np.uint64), span, out=slots.view(np.uint64))
    if probe.validity is not None:
        slots[~probe.validity.array] = span
    return table[slots]


def inner_join(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> JoinResult:
    """Inner equi-join; returns all matching (left, right) index pairs.

    The smaller side plays the hash-table build role for cost purposes,
    matching the planner behaviour of real engines.
    """
    result = _inner(left_keys, right_keys)
    if _builds_on_right(left_keys, right_keys):
        _charge(right_keys, left_keys, len(result))
    else:
        _charge(left_keys, right_keys, len(result))
    return result


def _builds_on_right(left_keys, right_keys) -> bool:
    return len(right_keys[0]) <= len(left_keys[0])


def _inner(left_keys, right_keys) -> JoinResult:
    build_on_right = _builds_on_right(left_keys, right_keys)
    build_keys, probe_keys = (right_keys, left_keys) if build_on_right else (left_keys, right_keys)
    if (match := _lookup(build_keys, probe_keys, unique=True)) is not None:
        probe_idx = np.flatnonzero(match >= 0)
        build_idx = match[probe_idx]
    elif (match := _lookup(probe_keys, build_keys, unique=True)) is not None:
        # Only the probe side is unique: order the pairs by probe row, as
        # the build side's runs would have laid them out.
        build_idx = np.flatnonzero(match >= 0)
        probe_idx = match[build_idx]
        order = np.argsort(probe_idx, kind="stable")
        probe_idx, build_idx = probe_idx[order], build_idx[order]
    else:
        lcodes, rcodes, num_codes = factorize_keys(left_keys, right_keys, nulls_match=False)
        bcodes, pcodes = (rcodes, lcodes) if build_on_right else (lcodes, rcodes)
        probe_idx, build_idx, _ = _expand(bcodes, *_match_ranges(bcodes, pcodes, num_codes))
    if build_on_right:
        return JoinResult(probe_idx, build_idx)
    return JoinResult(build_idx, probe_idx)


def left_join(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> JoinResult:
    """Left outer equi-join: unmatched left rows appear once with right
    index ``-1`` (to be gathered as NULLs)."""
    result = _left(left_keys, right_keys)
    _charge(right_keys, left_keys, len(result))
    return result


def _left(left_keys, right_keys) -> JoinResult:
    if (match := _lookup(right_keys, left_keys, unique=True)) is not None:
        matched = match >= 0
        left_idx = np.concatenate([np.flatnonzero(matched), np.flatnonzero(~matched)])
        right_idx = match[left_idx]
    else:
        lcodes, rcodes, num_codes = factorize_keys(left_keys, right_keys, nulls_match=False)
        lo, hi = _match_ranges(rcodes, lcodes, num_codes)
        probe_idx, build_idx, counts = _expand(rcodes, lo, hi)
        unmatched = np.flatnonzero(counts == 0)
        left_idx = np.concatenate([probe_idx, unmatched])
        right_idx = np.concatenate(
            [build_idx, np.full(len(unmatched), NULL_INDEX, dtype=np.int64)]
        )
    return JoinResult(left_idx, right_idx)


def _has_match(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> np.ndarray:
    """Whether each left row has at least one right match."""
    if (match := _lookup(right_keys, left_keys, unique=False)) is not None:
        return match >= 0
    lcodes, rcodes, num_codes = factorize_keys(left_keys, right_keys, nulls_match=False)
    lo, hi = _match_ranges(rcodes, lcodes, num_codes)
    return hi > lo


def semi_join(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> np.ndarray:
    """Left semi-join: int32 indices of left rows with >= 1 right match."""
    matched = _semi(left_keys, right_keys)
    _charge(right_keys, left_keys, len(matched))
    return matched


def anti_join(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> np.ndarray:
    """Left anti-join: int32 indices of left rows with no right match.

    NULL probe keys have no match and therefore *are* returned, matching
    the NOT EXISTS (not the NOT IN) semantics Sirius' planner emits.
    """
    unmatched = _anti(left_keys, right_keys)
    _charge(right_keys, left_keys, len(unmatched))
    return unmatched


def _semi(left_keys, right_keys) -> np.ndarray:
    return np.flatnonzero(_has_match(left_keys, right_keys)).astype(np.int32)


def _anti(left_keys, right_keys) -> np.ndarray:
    return np.flatnonzero(~_has_match(left_keys, right_keys)).astype(np.int32)


# Each join type's matching, shared by the join functions and the probe of
# a kept table.
_MATCH = {
    "inner": _inner,
    "left": _left,
    "semi": _semi,
    "anti": _anti,
}
