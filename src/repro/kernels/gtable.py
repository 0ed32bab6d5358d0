"""Device-resident columns and tables (the kernel library's data model).

``GColumn``/``GTable`` mirror libcudf's ``column``/``table``: typed device
buffers plus an optional validity mask.  Strings keep the dictionary
encoding of the host format (codes on device, dictionary as metadata), but
for *cost purposes* a string column charges its logical character traffic —
libcudf streams actual characters through string kernels, and that is what
makes string-heavy queries (Q10, Q13, Q18) expensive in the paper.

Host <-> device conversion charges interconnect time on the owning device;
this is the cold-run cost the paper's measurement section excludes by
reporting hot runs (Sirius' buffer manager caches the device tables).
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Sequence

import numpy as np

from ..columnar import Column, DType, Schema, Table
from ..gpu.buffer import DeviceBuffer
from ..gpu.device import Device

__all__ = ["GColumn", "GTable", "NULL_INDEX"]

# libcudf-style sentinel for "no matching row" in join gather maps.
NULL_INDEX = np.int32(-1)

# ``from_host`` charge mode -> whether ``Device.htod`` prices the pinned rate.
_HTOD_PINNED = {"pageable": False, "pinned": True}

# id(dictionary) -> (weak reference, {key: value}).  Dictionaries are never
# mutated in place (RR08), so whatever is computed from one is a property
# of the object; the weak reference both drops the entry when the
# dictionary dies and proves on lookup that the id still names the same
# object.  Values are shared by every caller and never mutated.
_DICTIONARY_MEMO: dict[int, tuple[weakref.ref, dict]] = {}


def _per_dictionary(dictionary: np.ndarray, compute: Callable[..., Any], *args: Any) -> Any:
    """``compute(dictionary, *args)``, computed once per dictionary object
    and ``(compute, *args)``."""
    slot = id(dictionary)
    known = _DICTIONARY_MEMO.get(slot)
    if known is None or known[0]() is not dictionary:

        def forget(_ref, memo=_DICTIONARY_MEMO):  # bound now: globals may be gone at exit
            memo.pop(slot, None)

        known = _DICTIONARY_MEMO[slot] = (weakref.ref(dictionary, forget), {})
    values = known[1]
    key = (compute, *args)
    if key not in values:
        values[key] = compute(dictionary, *args)
    return values[key]


def _mean_entry_length(dictionary: np.ndarray) -> float:
    """Mean ``len(str(entry))`` over ``dictionary``."""
    if len(dictionary) == 0:
        return 0.0
    return sum(len(str(s)) for s in dictionary) / len(dictionary)


def _has_value(column: "GColumn") -> np.ndarray:
    """Rows of a string column that hold a value: valid, with a code >= 0."""
    present = column.data >= 0
    if column.validity is not None:
        present &= column.validity.array
    return present


def _value_rows(column: "GColumn") -> np.ndarray | slice:
    """Selects the rows of ``column`` that hold a value: a boolean mask, or
    ``slice(None)`` (every row, no pass over a mask) when the column is not
    a string column and has no validity buffer."""
    if column.dtype.is_string:
        return _has_value(column)
    return slice(None) if column.validity is None else column.validity.array


def _concat_validity(columns: Sequence["GColumn"]) -> np.ndarray | None:
    """The columns' validity end to end, or ``None`` when none has a mask."""
    if all(c.validity is None for c in columns):
        return None
    out = np.ones(sum(len(c) for c in columns), dtype=np.bool_)
    start = 0
    for c in columns:
        if c.validity is not None:
            out[start : start + len(c)] = c.validity.array
        start += len(c)
    return out


class GColumn:
    """One device-resident column."""

    __slots__ = ("dtype", "buffer", "validity", "dictionary", "device")

    def __init__(
        self,
        dtype: DType,
        buffer: DeviceBuffer,
        validity: DeviceBuffer | None = None,
        dictionary: np.ndarray | None = None,
    ):
        self.dtype = dtype
        self.buffer = buffer
        self.validity = validity
        self.dictionary = dictionary
        self.device: Device = buffer.device

    # -- construction -----------------------------------------------------

    @classmethod
    def from_array(
        cls,
        device: Device,
        dtype: DType,
        data: np.ndarray,
        validity: np.ndarray | None = None,
        dictionary: np.ndarray | None = None,
        region: str = "processing",
    ) -> "GColumn":
        """Place arrays on ``device`` without charging transfer time (used
        for kernel outputs, which are born on the device)."""
        buf = device.new_buffer(np.ascontiguousarray(data, dtype=dtype.numpy_dtype), region)
        vbuf = None
        if validity is not None and not bool(validity.all()):
            vbuf = device.new_buffer(np.ascontiguousarray(validity, dtype=np.bool_), region)
        return cls(dtype, buf, vbuf, dictionary)

    @classmethod
    def from_host(
        cls,
        device: Device,
        column: Column,
        region: str = "processing",
        charge: str | None = "pageable",
    ) -> "GColumn":
        """Copy a host column to the device.

        ``charge`` says how the interconnect is paid: ``"pageable"`` (a
        cold load from ordinary host memory), ``"pinned"`` (spilled data
        coming back from page-locked staging, §3.4), or ``None`` when the
        caller issues the copy itself on the copy stream.
        """
        if charge is not None:
            device.htod(column.nbytes, pinned=_HTOD_PINNED[charge])
        return cls.from_array(
            device, column.dtype, column.data, column.is_valid_mask(), column.dictionary, region
        )

    # -- properties ---------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        return self.buffer.array

    def __len__(self) -> int:
        return len(self.buffer)

    @property
    def nbytes(self) -> int:
        total = self.buffer.nbytes
        if self.validity is not None:
            total += self.validity.nbytes
        return total

    @property
    def traffic_bytes(self) -> int:
        """Logical bytes a kernel streams when it touches every row.

        For strings this is the decoded character volume (plus codes), which
        is what a non-dictionary engine like libcudf actually moves.
        """
        if self.dtype.is_string and len(self) > 0 and self.dictionary is not None:
            avg_len = _per_dictionary(self.dictionary, _mean_entry_length)
            return int(len(self) * avg_len) + self.buffer.nbytes
        return self.nbytes

    def valid_mask(self) -> np.ndarray:
        if self.validity is None:
            return np.ones(len(self), dtype=np.bool_)
        return self.validity.array

    @property
    def null_count(self) -> int:
        if self.validity is None:
            return 0
        return int((~self.validity.array).sum())

    def decoded(self) -> np.ndarray:
        """Object array of decoded strings (NULL -> None)."""
        if not self.dtype.is_string:
            raise TypeError("decoded() is only defined for string columns")
        out = np.empty(len(self), dtype=object)
        valid = self.valid_mask() & (self.data >= 0)
        out[valid] = self.dictionary[self.data[valid]]
        out[~valid] = None
        return out

    # -- lifecycle -----------------------------------------------------------

    def free(self) -> None:
        self.buffer.free()
        if self.validity is not None:
            self.validity.free()

    def to_host(self, charge_transfer: bool = True) -> Column:
        """Copy back to a host column (deep copy, charging the link)."""
        if charge_transfer:
            self.device.dtoh(self.nbytes)
        validity = None if self.validity is None else self.validity.array.copy()
        return Column(self.dtype, self.data.copy(), validity, self.dictionary)

    def __repr__(self) -> str:
        return f"GColumn<{self.dtype}>[{len(self)}]"


class GTable:
    """A device-resident table: schema + GColumns sharing a device."""

    __slots__ = ("schema", "columns", "device")

    def __init__(self, schema: Schema, columns: Sequence[GColumn], device: Device):
        columns = list(columns)
        if len(columns) != len(schema):
            raise ValueError("column count does not match schema")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged GTable: lengths {sorted(lengths)}")
        self.schema = schema
        self.columns = list(columns)
        self.device = device

    @classmethod
    def from_host(
        cls,
        device: Device,
        table: Table,
        region: str = "processing",
        charge: str | None = "pageable",
    ) -> "GTable":
        """Copy a host table to the device column by column; ``charge`` as
        in :meth:`GColumn.from_host`."""
        cols: list[GColumn] = []
        try:
            for c in table.columns:
                cols.append(GColumn.from_host(device, c, region, charge))
        except BaseException:
            # Atomic load: release partially-allocated columns so an OOM
            # mid-table cannot leak device memory (the buffer manager
            # retries after evicting).
            for col in cols:
                col.free()
            raise
        return cls(table.schema, cols, device)

    @property
    def num_rows(self) -> int:
        if not self.columns:
            return 0
        return len(self.columns[0])

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self.columns)

    @property
    def traffic_bytes(self) -> int:
        return sum(c.traffic_bytes for c in self.columns)

    def column(self, name: str) -> GColumn:
        return self.columns[self.schema.index_of(name)]

    def select(self, names: Sequence[str]) -> "GTable":
        """Project columns by name (buffer sharing — no copy, no charge)."""
        schema = Schema([self.schema.field(n) for n in names])
        return GTable(schema, [self.column(n) for n in names], self.device)

    def free(self) -> None:
        for c in self.columns:
            c.free()

    def to_host(self, charge_transfer: bool = True) -> Table:
        return Table(self.schema, [c.to_host(charge_transfer) for c in self.columns])

    def __repr__(self) -> str:
        return f"GTable[{self.num_rows} rows x {self.num_columns} cols on {self.device.spec.name}]"
