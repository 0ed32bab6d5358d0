"""Key factorization shared by the join and group-by kernels.

Hash joins and hash aggregations both reduce (possibly multi-column,
possibly string) keys to dense integer codes.  This module performs that
reduction consistently across *two* tables at once so the codes are
directly comparable — which is what a shared hash function gives libcudf.

Like a hash operator it does not sort rows when the key domain can be
addressed directly.  Two primitives do the work, and both return exactly
the ranks ``np.unique(..., return_inverse=True)`` would:

* :func:`_dense_rank` ranks an integer-kind array (ints, dates, bools,
  combined codes) through a presence table + ``cumsum`` when the span
  ``max - min + 1`` is at most ``TABLE_SLOTS_PER_ROW * rows +
  TABLE_SLOTS_FLOOR``; sparse integer domains and floats (whose NaN /
  ``-0.0`` handling ``np.unique`` defines) take the row sort inside the
  same function.  The choice reads only dtype, span and row count.
* ``columnar._keys.merge_dictionaries`` (the merge host and device
  concatenation share) keeps strings dictionary-encoded: it sorts only
  the dictionary *entries* the valid rows reference and remaps the codes
  through a per-dictionary lookup table — no row is ever decoded.

A key column with no validity buffer is all-valid and is ranked as it
stands, with no mask built; a single key column's codes already are the
ranks of its values, so they are not ranked a second time.

Null semantics differ by consumer and are explicit:

* joins: ``nulls_match=False`` — a NULL key never equals anything,
  including another NULL (SQL join semantics); such rows get code ``-1``;
* group-by: ``nulls_match=True`` — NULLs form one ordinary group
  (SQL ``GROUP BY`` semantics).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..columnar._keys import concat_validity, merge_dictionaries
from .gtable import GColumn

__all__ = ["factorize_keys", "NULL_CODE"]

NULL_CODE = np.int64(-1)

# Largest direct-address table ``_dense_rank`` builds (9 bytes a slot):
# a few slots per row, with a floor so small inputs always use the table.
TABLE_SLOTS_PER_ROW = 4
TABLE_SLOTS_FLOOR = 65_536


def _dense_rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank of every element among the distinct values, and their count.

    Equal to ``np.unique(values, return_inverse=True)``'s inverse (as a
    fresh int64 array) and ``len(unique)``.
    """
    if values.dtype.kind in "ib" and len(values):
        lo = int(values.min())
        span = int(values.max()) - lo + 1  # Python ints: cannot overflow
        if span <= TABLE_SLOTS_PER_ROW * len(values) + TABLE_SLOTS_FLOOR:
            slots = np.subtract(values, lo, dtype=np.int64)
            present = np.zeros(span, dtype=np.bool_)
            present[slots] = True
            rank_of_slot = np.cumsum(present)
            rank_of_slot -= 1
            return rank_of_slot[slots], int(rank_of_slot[-1]) + 1
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64), len(uniques)


def factorize_keys(
    left: Sequence[GColumn],
    right: Sequence[GColumn] = (),
    nulls_match: bool = False,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reduce key columns to dense int64 codes, consistently across sides.

    Args:
        left: Key columns of the first table.
        right: Key columns of the second table (same count and comparable
            types); empty for single-table use (group-by).
        nulls_match: Whether NULL keys receive their own ordinary code
            (group-by) or the never-matching ``-1`` (join).

    Returns:
        ``(left_codes, right_codes, num_distinct)`` — fresh int64 code
        arrays for each side (``right_codes`` empty if no right columns)
        and the exact number of distinct key tuples over both sides, a
        NULL counting as one more value of its column.  Codes are the
        tuples' ranks, so every non-negative code is below
        ``num_distinct``; with ``nulls_match=True`` the codes are exactly
        ``0 .. num_distinct - 1`` (group ids and the group count).
    """
    if not left:
        raise ValueError("factorize_keys needs at least one key column")
    if right and len(left) != len(right):
        raise ValueError("both sides must have the same number of key columns")
    n_left = len(left[0])

    combined = None
    any_null = None  # rows with a NULL in some key column; None: no such row
    running_card = 1

    for idx, lcol in enumerate(left):
        cols = [lcol, right[idx]] if right else [lcol]
        if lcol.dtype.is_string:
            # Compare by dictionary *values*: two tables have different dicts.
            dictionary, codes = merge_dictionaries([c.arrays for c in cols])
            null = codes < 0
            card = len(dictionary)
        else:
            values = np.concatenate([c.data for c in cols])
            valid = concat_validity([c.arrays for c in cols])
            if valid is None:
                codes, card = _dense_rank(values)
                null = None
            else:
                codes = np.empty(len(values), dtype=np.int64)
                codes[valid], card = _dense_rank(values[valid])
                null = ~valid
        has_null = null is not None and bool(null.any())
        if has_null:
            # NULLs take a dedicated fresh code so they form their own
            # group (group-by) and never collide with a real value.
            codes[null] = card
            any_null = null if any_null is None else any_null | null
        col_card = max(card + has_null, 1)
        combined = codes if combined is None else combined * np.int64(col_card) + codes
        running_card *= col_card
        if running_card > 2**40:
            # Re-densify mid-way so many / high-cardinality key columns
            # cannot overflow the int64 combination.
            combined, running_card = _dense_rank(combined)

    if len(left) == 1:
        # One column's codes already are the dense ranks of its values,
        # NULL ranked last: re-ranking them would be the identity.
        dense, num_distinct = combined, card + has_null
    else:
        # Re-densify the combined codes across both sides.
        dense, num_distinct = _dense_rank(combined)
    if not nulls_match and any_null is not None:
        dense[any_null] = NULL_CODE
    return dense[:n_left].copy(), dense[n_left:].copy(), num_distinct
