"""Join kernels: hash joins returning libcudf-style int32 gather maps.

Like libcudf, joins here return *row indices* rather than materialised
tables; Sirius' operators gather the payload columns afterwards.  Also like
libcudf, the indices are **int32** — the host engine uses uint64 row ids,
and the buffer manager pays a conversion copy at the boundary (§3.2.3 of
the paper calls this out as the one non-zero-copy conversion).

The simulated hash join charges:

* a ``HASH_BUILD`` kernel over the build side's key bytes, and
* a ``HASH_PROBE`` kernel over the probe side's key bytes plus the output
  index bytes,

which is the traffic pattern of a real GPU hash join.  The matching in
NumPy is direct-addressed too: ``factorize_keys`` gives both sides dense
codes, a ``bincount`` + ``cumsum`` over the build codes gives every probe
row its run of matches, and only the joins that emit build rows (inner,
left) order the build side, to lay those runs out.  Simulated time comes
from the cost model, not from NumPy's runtime.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..gpu.costmodel import KernelClass
from .gtable import GColumn, GTable, NULL_INDEX
from .keys import NULL_CODE, factorize_keys

__all__ = [
    "inner_join",
    "left_join",
    "semi_join",
    "anti_join",
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
    device = build_keys[0].device
    build_bytes = sum(k.traffic_bytes for k in build_keys)
    probe_bytes = sum(k.traffic_bytes for k in probe_keys)
    build_rows = len(build_keys[0])
    probe_rows = len(probe_keys[0])
    table_bytes = int(HASH_TABLE_EXPANSION * (build_bytes + 8 * build_rows))
    device.launch(KernelClass.HASH_BUILD, build_bytes, table_bytes, build_rows)
    # Each probe reads its keys plus one hash-table bucket (~32 B).
    device.launch(KernelClass.HASH_PROBE, probe_bytes + 32 * probe_rows, out_rows * 8, probe_rows)


def inner_join(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> JoinResult:
    """Inner equi-join; returns all matching (left, right) index pairs.

    The smaller side plays the hash-table build role for cost purposes,
    matching the planner behaviour of real engines.
    """
    lcodes, rcodes, num_codes = factorize_keys(left_keys, right_keys, nulls_match=False)
    build_on_right = len(rcodes) <= len(lcodes)
    if build_on_right:
        lo, hi = _match_ranges(rcodes, lcodes, num_codes)
        probe_idx, build_idx, _ = _expand(rcodes, lo, hi)
        left_idx, right_idx = probe_idx, build_idx
        _charge(right_keys, left_keys, len(probe_idx))
    else:
        lo, hi = _match_ranges(lcodes, rcodes, num_codes)
        probe_idx, build_idx, _ = _expand(lcodes, lo, hi)
        left_idx, right_idx = build_idx, probe_idx
        _charge(left_keys, right_keys, len(probe_idx))
    return JoinResult(left_idx, right_idx)


def left_join(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> JoinResult:
    """Left outer equi-join: unmatched left rows appear once with right
    index ``-1`` (to be gathered as NULLs)."""
    lcodes, rcodes, num_codes = factorize_keys(left_keys, right_keys, nulls_match=False)
    lo, hi = _match_ranges(rcodes, lcodes, num_codes)
    probe_idx, build_idx, counts = _expand(rcodes, lo, hi)
    unmatched = np.flatnonzero(counts == 0)
    left_idx = np.concatenate([probe_idx, unmatched])
    right_idx = np.concatenate(
        [build_idx, np.full(len(unmatched), NULL_INDEX, dtype=np.int64)]
    )
    _charge(right_keys, left_keys, len(left_idx))
    return JoinResult(left_idx, right_idx)


def semi_join(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> np.ndarray:
    """Left semi-join: int32 indices of left rows with >= 1 right match."""
    lcodes, rcodes, num_codes = factorize_keys(left_keys, right_keys, nulls_match=False)
    lo, hi = _match_ranges(rcodes, lcodes, num_codes)
    matched = np.flatnonzero(hi > lo).astype(np.int32)
    _charge(right_keys, left_keys, len(matched))
    return matched


def anti_join(left_keys: Sequence[GColumn], right_keys: Sequence[GColumn]) -> np.ndarray:
    """Left anti-join: int32 indices of left rows with no right match.

    NULL probe keys have no match and therefore *are* returned, matching
    the NOT EXISTS (not the NOT IN) semantics Sirius' planner emits.
    """
    lcodes, rcodes, num_codes = factorize_keys(left_keys, right_keys, nulls_match=False)
    lo, hi = _match_ranges(rcodes, lcodes, num_codes)
    unmatched = np.flatnonzero(hi == lo).astype(np.int32)
    _charge(right_keys, left_keys, len(unmatched))
    return unmatched
