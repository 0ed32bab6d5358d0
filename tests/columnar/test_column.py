"""Unit tests for host columns: construction, nulls, strings, transforms."""

import datetime

import numpy as np
import pytest

from repro.columnar import (
    BOOL,
    Column,
    DATE32,
    FLOAT64,
    INT64,
    STRING,
    Schema,
    Table,
    column_from_pylist,
    concat_tables,
)


class TestConstruction:
    def test_from_pylist_int(self):
        c = column_from_pylist([1, 2, 3], INT64)
        assert len(c) == 3
        assert c.to_pylist() == [1, 2, 3]

    def test_from_pylist_with_nulls(self):
        c = column_from_pylist([1.5, None, 3.5], FLOAT64)
        assert c.null_count == 1
        assert c.to_pylist() == [1.5, None, 3.5]

    def test_all_valid_mask_normalised_away(self):
        c = Column(INT64, np.arange(4), validity=np.ones(4, dtype=bool))
        assert c.validity is None

    def test_dates_from_iso_strings(self):
        c = column_from_pylist(["1995-06-17", datetime.date(1998, 9, 2)], DATE32)
        assert c.to_pylist() == [datetime.date(1995, 6, 17), datetime.date(1998, 9, 2)]

    def test_two_dimensional_data_rejected(self):
        with pytest.raises(ValueError):
            Column(INT64, np.zeros((2, 2)))

    def test_validity_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Column(INT64, np.arange(3), validity=np.ones(4, dtype=bool))

    def test_string_requires_dictionary(self):
        with pytest.raises(ValueError):
            Column(STRING, np.zeros(2, dtype=np.int32))

    def test_non_string_rejects_dictionary(self):
        with pytest.raises(ValueError):
            Column(INT64, np.arange(2), dictionary=np.array(["a"], dtype=object))


class TestStringColumns:
    def test_dictionary_encoding_round_trip(self):
        values = ["cherry", "apple", "cherry", None, "banana"]
        c = Column.from_strings(values)
        assert c.to_pylist() == values

    def test_dictionary_is_sorted(self):
        c = Column.from_strings(["z", "a", "m", "a"])
        assert list(c.dictionary) == sorted(c.dictionary)

    def test_shared_values_share_codes(self):
        c = Column.from_strings(["x", "y", "x"])
        assert c.data[0] == c.data[2]

    def test_decoded_returns_none_for_nulls(self):
        c = Column.from_strings(["a", None])
        decoded = c.decoded()
        assert decoded[0] == "a" and decoded[1] is None

    def test_compact_dictionary_after_filter(self):
        # Concatenating one table is the compaction: its dictionary is the
        # entries the rows still use.
        c = Column.from_strings(["a", "b", "c", "d"])
        filtered = c.mask(np.array([True, False, True, False]))
        compacted = concat_tables([Table(Schema([("s", STRING)]), [filtered])])["s"]
        assert len(compacted.dictionary) == 2
        assert compacted.to_pylist() == ["a", "c"]


class TestTransforms:
    def test_take(self):
        c = column_from_pylist([10, 20, 30], INT64)
        assert c.take(np.array([2, 0])).to_pylist() == [30, 10]

    def test_take_preserves_nulls(self):
        c = column_from_pylist([10, None, 30], INT64)
        assert c.take(np.array([1, 1, 2])).to_pylist() == [None, None, 30]

    def test_mask(self):
        c = column_from_pylist([1, 2, 3, 4], INT64)
        assert c.mask(np.array([True, False, True, False])).to_pylist() == [1, 3]

    def test_slice(self):
        c = column_from_pylist(list(range(10)), INT64)
        assert c.slice(3, 4).to_pylist() == [3, 4, 5, 6]

    def test_cast_int_to_float(self):
        c = column_from_pylist([1, 2], INT64).cast(FLOAT64)
        assert c.dtype is FLOAT64
        assert c.to_pylist() == [1.0, 2.0]

    def test_cast_string_to_int(self):
        c = Column.from_strings(["42", "7"]).cast(INT64)
        assert c.to_pylist() == [42, 7]

    def test_cast_int_to_string(self):
        c = column_from_pylist([42, 7], INT64).cast(STRING)
        assert c.to_pylist() == ["42", "7"]

    def test_cast_identity_returns_self(self):
        c = column_from_pylist([1], INT64)
        assert c.cast(INT64) is c


class TestAccounting:
    def test_nbytes_counts_validity(self):
        no_nulls = column_from_pylist([1, 2, 3, 4], INT64)
        with_nulls = column_from_pylist([1, None, 3, 4], INT64)
        assert with_nulls.nbytes == no_nulls.nbytes + 4  # bool mask bytes

    def test_bool_column_element_access(self):
        c = column_from_pylist([True, False, None], BOOL)
        assert c[0] is True and c[1] is False and c[2] is None
