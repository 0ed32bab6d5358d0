"""Sort kernels: stable multi-key ordering.

Returns an int32 permutation like libcudf's ``sorted_order``.  String keys
compare by dictionary code — valid because the kernel library maintains
lexicographically sorted dictionaries.  NULLs order last under both ASC
and DESC.  Integer-kind keys (ints, dates, bools, string codes) are
compared as int64, so values above 2^53 order exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..gpu.costmodel import KernelClass
from .gtable import GColumn

__all__ = ["sorted_order", "top_n_order"]


def _stable_order(keys: Sequence[GColumn], ascending: Sequence[bool]) -> np.ndarray:
    """int32 permutation ordering rows by ``keys``, ties in input order."""
    # np.lexsort's *last* key is primary, so build from the least
    # significant end: for each key its values, then (more significant)
    # its NULL flag.
    lex_keys: list[np.ndarray] = []
    for col, asc in reversed(list(zip(keys, ascending))):
        # An absent mask stays absent: no NULL handling is built for a
        # column that has none.
        valid = None if col.validity is None else col.validity.array
        if col.dtype.is_string:
            coded = col.data >= 0
            if not coded.all():
                valid = coded if valid is None else valid & coded
        if col.data.dtype.kind == "f":
            # NULLS LAST for the requested direction: +inf sorts after
            # everything.
            data = col.data if asc else -col.data
            lex_keys.append(data if valid is None else np.where(valid, data, np.inf))
            continue
        # Integer kinds (ints, dates, bools, string codes) stay exact as
        # int64; ``~x`` reverses the order without the overflow ``-x`` has
        # at the int64 minimum.
        data = col.data.astype(np.int64, copy=False)
        if not asc:
            data = ~data
        if valid is None:
            lex_keys.append(data)
            continue
        lex_keys.append(np.where(valid, data, 0))
        if not bool(valid.all()):
            lex_keys.append(~valid)
    return np.lexsort(lex_keys).astype(np.int32)


def sorted_order(keys: Sequence[GColumn], ascending: Sequence[bool]) -> np.ndarray:
    """Stable permutation ordering rows by ``keys`` (first key primary)."""
    if len(keys) != len(ascending):
        raise ValueError("need one direction flag per key")
    if not keys:
        raise ValueError("sorted_order requires at least one key")
    device = keys[0].device
    rows = len(keys[0])
    order = _stable_order(keys, ascending)
    device.launch(
        KernelClass.SORT,
        sum(k.traffic_bytes for k in keys),
        rows * 4,
        rows,
    )
    return order


def top_n_order(keys: Sequence[GColumn], ascending: Sequence[bool], n: int) -> np.ndarray:
    """Permutation of the first ``n`` rows in sort order (ORDER BY + LIMIT).

    A real engine uses a heap-based top-k; we charge the cheaper cost of a
    selection pass plus a small sort, and slice the full stable order.
    """
    if not keys:
        raise ValueError("top_n_order requires at least one key")
    device = keys[0].device
    rows = len(keys[0])
    order = _stable_order(keys, ascending)
    device.launch(
        KernelClass.STREAM,
        sum(k.traffic_bytes for k in keys),
        min(n, rows) * 4,
        rows,
    )
    if n < rows:
        device.launch(KernelClass.SORT, min(n, rows) * 8 * len(keys), min(n, rows) * 4, min(n, rows))
    return order[:n]
