"""The host-side column: a typed value buffer plus optional validity mask.

The layout follows Apache Arrow's spirit (and therefore both Sirius' and
libcudf's internal formats in the paper):

* fixed-width types store one flat NumPy buffer;
* strings are dictionary-encoded — an ``int32`` code buffer plus a sorted
  ``str`` dictionary — which is also what makes string group-by take the
  *sort-based* path in the kernel library, mirroring libcudf's behaviour
  that the paper's Figure 5 discussion calls out;
* NULLs live in a separate boolean validity mask (``True`` = valid); a
  column with no mask is entirely valid.

Columns are immutable by convention: kernels always produce new columns.
"""

from __future__ import annotations

import datetime
from typing import Any, Iterable, Sequence

import numpy as np

from .dtypes import BOOL, DATE32, STRING, DType, date_to_days, days_to_date

__all__ = ["Column", "column_from_pylist"]

_NULL_CODE = -1  # dictionary code reserved for NULL slots in string columns


class Column:
    """A typed, optionally-nullable column of values.

    Attributes:
        dtype: Logical type of the column.
        data: Value buffer (codes for strings).  Always a 1-D NumPy array of
            ``dtype.numpy_dtype``.
        validity: Optional boolean mask, ``True`` where the row is valid.
        dictionary: For string columns, a NumPy object array of unique
            strings indexed by the codes in ``data``; ``None`` otherwise.
    """

    __slots__ = ("dtype", "data", "validity", "dictionary")

    def __init__(
        self,
        dtype: DType,
        data: np.ndarray,
        validity: np.ndarray | None = None,
        dictionary: np.ndarray | None = None,
    ):
        data = np.ascontiguousarray(data, dtype=dtype.numpy_dtype)
        if data.ndim != 1:
            raise ValueError("column data must be one-dimensional")
        if validity is not None:
            validity = np.ascontiguousarray(validity, dtype=np.bool_)
            if validity.shape != data.shape:
                raise ValueError("validity mask shape must match data shape")
            if bool(validity.all()):
                validity = None  # normalise: all-valid == no mask
        if dtype.is_string:
            if dictionary is None:
                raise ValueError("string columns require a dictionary")
            dictionary = np.asarray(dictionary, dtype=object)
        elif dictionary is not None:
            raise ValueError(f"{dtype} columns must not carry a dictionary")
        self.dtype = dtype
        self.data = data
        self.validity = validity
        self.dictionary = dictionary

    # -- construction -----------------------------------------------------

    @classmethod
    def from_strings(cls, values: Sequence[str | None]) -> "Column":
        """Dictionary-encode a sequence of Python strings (None = NULL)."""
        mask = np.array([v is not None for v in values], dtype=np.bool_)
        present = [v for v in values if v is not None]
        uniques, inverse = np.unique(np.asarray(present, dtype=object), return_inverse=True)
        codes = np.full(len(values), _NULL_CODE, dtype=np.int32)
        codes[mask] = inverse.astype(np.int32)
        validity = None if bool(mask.all()) else mask
        return cls(STRING, codes, validity, uniques)

    # -- basic properties --------------------------------------------------

    def __len__(self) -> int:
        return int(self.data.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes of the value buffer plus the validity mask (if any).

        The dictionary is excluded: it is shared, small relative to the code
        buffer, and the GPU cost model charges traffic for buffers actually
        streamed through kernels.
        """
        total = self.data.nbytes
        if self.validity is not None:
            total += self.validity.nbytes
        return int(total)

    @property
    def null_count(self) -> int:
        if self.validity is None:
            return 0
        return int((~self.validity).sum())

    def is_valid_mask(self) -> np.ndarray:
        """Return a boolean mask of valid rows (a fresh all-True array if
        the column has no NULLs)."""
        if self.validity is None:
            return np.ones(len(self), dtype=np.bool_)
        return self.validity.copy()

    # -- element access (testing / result rendering; not a kernel path) ----

    def __getitem__(self, i: int) -> Any:
        if self.validity is not None and not self.validity[i]:
            return None
        raw = self.data[i]
        if self.dtype.is_string:
            return str(self.dictionary[int(raw)])
        if self.dtype is DATE32:
            return days_to_date(int(raw))
        if self.dtype is BOOL:
            return bool(raw)
        if self.dtype.is_integer:
            return int(raw)
        return float(raw)

    def to_pylist(self) -> list[Any]:
        """Materialise the column as a list of Python values (None = NULL)."""
        return [self[i] for i in range(len(self))]

    # -- transformations ----------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Gather rows by position.  Negative indices are not supported."""
        indices = np.asarray(indices)
        data = self.data[indices]
        validity = self.validity[indices] if self.validity is not None else None
        return Column(self.dtype, data, validity, self.dictionary)

    def mask(self, keep: np.ndarray) -> "Column":
        """Filter rows by a boolean mask."""
        keep = np.asarray(keep, dtype=np.bool_)
        data = self.data[keep]
        validity = self.validity[keep] if self.validity is not None else None
        return Column(self.dtype, data, validity, self.dictionary)

    def slice(self, start: int, length: int) -> "Column":
        data = self.data[start : start + length]
        validity = self.validity[start : start + length] if self.validity is not None else None
        return Column(self.dtype, data, validity, self.dictionary)

    def cast(self, target: DType) -> "Column":
        """Cast to another logical type.

        Supported casts: between numerics, date32 -> int32/int64, and
        string -> string (identity).  String/numeric cross-casts are routed
        through Python parsing and are intended for literals, not bulk data.
        """
        if target is self.dtype:
            return self
        if self.dtype.is_string and target.is_string:
            return self
        if self.dtype.is_string:
            values = self.to_pylist()
            return column_from_pylist(
                [None if v is None else _parse_scalar(v, target) for v in values], target
            )
        if target.is_string:
            return Column.from_strings(
                [None if v is None else _render_scalar(v) for v in self.to_pylist()]
            )
        data = self.data.astype(target.numpy_dtype)
        return Column(target, data, self.validity, None)

    def compact_dictionary(self) -> "Column":
        """Rebuild a string column so the dictionary contains only codes in
        use.  Used after filters/gathers shrink a column far below its
        original dictionary."""
        if not self.dtype.is_string:
            return self
        valid = self.is_valid_mask()
        used = self.data[valid & (self.data >= 0)]
        uniques, inverse = np.unique(used, return_inverse=True)
        codes = np.full(len(self), _NULL_CODE, dtype=np.int32)
        codes[valid & (self.data >= 0)] = inverse.astype(np.int32)
        return Column(STRING, codes, self.validity, self.dictionary[uniques])

    def decoded(self) -> np.ndarray:
        """Return an object array of decoded strings (NULL -> None).

        Only meaningful for string columns; used by sort-based string
        kernels and result rendering.
        """
        if not self.dtype.is_string:
            raise TypeError("decoded() is only defined for string columns")
        out = np.empty(len(self), dtype=object)
        valid = self.is_valid_mask() & (self.data >= 0)
        out[valid] = self.dictionary[self.data[valid]]
        out[~valid] = None
        return out

    def __repr__(self) -> str:
        preview = ", ".join(repr(self[i]) for i in range(min(len(self), 5)))
        suffix = ", ..." if len(self) > 5 else ""
        return f"Column<{self.dtype}>[{len(self)}]({preview}{suffix})"


def _parse_scalar(value: str, target: DType) -> Any:
    if target is DATE32:
        return datetime.date.fromisoformat(value)
    if target.is_integer:
        return int(value)
    if target is BOOL:
        return value.strip().lower() in ("t", "true", "1")
    return float(value)


def _render_scalar(value: Any) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def column_from_pylist(values: Iterable[Any], dtype: DType) -> Column:
    """Build a column of ``dtype`` from Python values (None = NULL).

    Dates may be given as :class:`datetime.date` or ISO strings.
    """
    values = list(values)
    mask = np.array([v is not None for v in values], dtype=np.bool_)
    if dtype.is_string:
        return Column.from_strings([None if v is None else str(v) for v in values])
    data = np.zeros(len(values), dtype=dtype.numpy_dtype)
    for i, v in enumerate(values):
        if v is None:
            continue
        if dtype is DATE32:
            data[i] = date_to_days(v)
        else:
            data[i] = v
    validity = None if bool(mask.all()) else mask
    return Column(dtype, data, validity)
