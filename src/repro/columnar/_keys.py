"""Where a key's row goes, and how string dictionaries combine.

Host ``Table``s and the kernel library's ``GTable``s place, route and
concatenate rows through this one module, so base-table placement, the
shuffle and radix partitioning are one hash, and every concatenation
merges dictionaries one way.  It works on plain arrays, never a device
buffer: a column is ``(data, validity, dictionary)`` — values or codes,
a boolean array or ``None`` (all valid), and a dictionary exactly when it
is a string column.  ``repro.kernels`` imports it, never the reverse.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Sequence

import numpy as np

KeyArrays = tuple[np.ndarray, np.ndarray | None, np.ndarray | None]

# id(dictionary) -> (weak reference, {key: value}).  Dictionaries are never
# mutated in place (RR08), so whatever is computed from one is a property
# of the object; the weak reference both drops the entry when the
# dictionary dies and proves on lookup that the id still names the same
# object.  Values are shared by every caller and never mutated.  A host
# column and the device column loaded from it share one dictionary
# object, so both hit the same entry.
_DICTIONARY_MEMO: dict[int, tuple[weakref.ref, dict]] = {}


def per_dictionary(dictionary: np.ndarray, compute: Callable[..., Any], *args: Any) -> Any:
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


def has_value(codes: np.ndarray, validity: np.ndarray | None) -> np.ndarray:
    """Rows of a string column that hold a value: valid, with a code >= 0."""
    present = codes >= 0
    if validity is not None:
        present &= validity
    return present


# -- placement -------------------------------------------------------------------


def partition_ids(keys: Sequence[KeyArrays], num_partitions: int, level: int = 0) -> np.ndarray:
    """Deterministic partition id (int32) per row from the key columns.

    Rows whose keys are equal receive the same id, and NULL is one key
    value for every dtype: whatever payload lies under an invalid slot is
    hashed as zero.  Strings hash their dictionary entries (a
    process-stable FNV-1a, once per entry), so equal strings agree across
    dictionaries.  For one non-negative integer key, level 0 is the key
    modulo ``num_partitions``.

    ``level`` salts the accumulator so recursive radix partitioning
    redistributes at depth ``L+1`` the rows that landed in one bucket at
    depth ``L``.  ``level=0`` is the unsalted hash.  The mix is linear
    modulo 2**64, so a salt alone would only renumber the buckets (rows
    that agreed at one level would agree at every level); salted levels
    therefore pass the accumulator through a splitmix64 finaliser.
    """
    rows = len(keys[0][0])
    salt = (level * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    acc = np.full(rows, np.uint64(salt), dtype=np.uint64)
    for data, validity, dictionary in keys:
        if dictionary is not None:
            vals = np.zeros(rows, dtype=np.uint64)
            present = has_value(data, validity)
            vals[present] = per_dictionary(dictionary, _fnv1a_entries)[data[present]]
        else:
            vals = data.astype(np.int64).view(np.uint64)
            if validity is not None:
                vals[~validity] = 0
        acc = acc * np.uint64(1099511628211) + vals  # FNV-ish mix
    if level:
        acc ^= acc >> np.uint64(30)
        acc *= np.uint64(0xBF58476D1CE4E5B9)
        acc ^= acc >> np.uint64(27)
        acc *= np.uint64(0x94D049BB133111EB)
        acc ^= acc >> np.uint64(31)
    return (acc % np.uint64(num_partitions)).astype(np.int32)


def _fnv1a(text: str) -> int:
    """Process-stable 64-bit FNV-1a (Python's hash() is salted per run)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


def _fnv1a_entries(dictionary: np.ndarray) -> np.ndarray:
    """:func:`_fnv1a` of every dictionary entry."""
    return np.array([_fnv1a(str(s)) for s in dictionary], dtype=np.uint64)


def bucket_rows(ids: np.ndarray, num_partitions: int) -> list[np.ndarray]:
    """The rows with each partition id, one array per partition, each in
    source order: one stable sort of the ids finds every bucket at once."""
    order = np.argsort(ids, kind="stable")
    bounds = np.cumsum(np.bincount(ids, minlength=num_partitions)[:num_partitions])
    return np.split(order, bounds[:-1])


# -- concatenation ---------------------------------------------------------------


def merge_dictionaries(columns: Sequence[KeyArrays]) -> tuple[np.ndarray, np.ndarray]:
    """Re-encode string columns against one merged, sorted dictionary.

    Returns ``(dictionary, codes)``: the sorted distinct strings the valid
    rows of ``columns`` reference (an object array — what ``np.unique``
    over the decoded rows would give) and the int64 codes into it of all
    columns' rows, concatenated in order, ``-1`` for NULL.  No row is
    decoded: only the referenced dictionary *entries* are sorted.
    """
    # One table addresses every entry of every distinct dictionary object
    # (columns sharing a dictionary share its slots), plus a last slot that
    # NULL rows hit as index -1 — so payloads under invalid rows never
    # index anything.
    bases: dict[int, tuple[int, np.ndarray]] = {}
    size = 0
    for _codes, _validity, dictionary in columns:
        if id(dictionary) not in bases:
            bases[id(dictionary)] = (size, dictionary)
            size += len(dictionary)
    slots = np.concatenate(
        [
            np.where(has_value(codes, validity), codes + np.int64(bases[id(dictionary)][0]), -1)
            for codes, validity, dictionary in columns
        ]
    )
    referenced = np.zeros(size + 1, dtype=np.bool_)
    referenced[slots] = True
    referenced[-1] = False
    entries = [d[referenced[base : base + len(d)]] for base, d in bases.values()]
    merged, ranks = np.unique(np.concatenate(entries).astype(object), return_inverse=True)
    code_of_slot = np.full(size + 1, -1, dtype=np.int64)
    code_of_slot[referenced] = ranks
    return merged, code_of_slot[slots]


def concat_validity(columns: Sequence[KeyArrays]) -> np.ndarray | None:
    """The columns' validity end to end, or ``None`` when none has a mask."""
    if all(validity is None for _data, validity, _dictionary in columns):
        return None
    out = np.ones(sum(len(data) for data, _validity, _dictionary in columns), dtype=np.bool_)
    start = 0
    for data, validity, _dictionary in columns:
        if validity is not None:
            out[start : start + len(data)] = validity
        start += len(data)
    return out


def decode(codes: np.ndarray, validity: np.ndarray | None, dictionary: np.ndarray) -> np.ndarray:
    """Object array of a string column's decoded rows (NULL -> None)."""
    out = np.empty(len(codes), dtype=object)  # born None
    present = has_value(codes, validity)
    out[present] = dictionary[codes[present]]
    return out
