"""``repro.columnar._keys``: the per-dictionary memo, the partition buckets
and the dictionary merge host and device tables share.

The memo serves host and device columns alike (a device column loaded
from a host column shares its dictionary object), and whatever is
computed from a dictionary is computed once per object.  Host
``concat_tables`` merges dictionaries without decoding a row and returns
exactly the tables of the decode-and-re-encode formulation it replaced
(``reference.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BOOL, DATE32, FLOAT64, INT32, INT64, STRING, Column, Schema, Table
from repro.columnar import _keys, concat_tables
from repro.kernels import GTable, hash_partition_ids, like, substring
from tests.kernels.test_differential import assert_identical, strings
from tests.kernels.test_gtable import Counted, counted_dictionary, dictionary_of

from . import reference

I64, I32 = np.iinfo(np.int64), np.iinfo(np.int32)

# Per non-string dtype: values (negative, extreme, NaN and -0.0 included)
# and the garbage written under NULL slots.
HOST_KINDS = {
    BOOL: (st.booleans(), True),
    INT32: (st.one_of(st.integers(-4, 4), st.sampled_from([I32.min, I32.max])), I32.max),
    INT64: (st.one_of(st.integers(-4, 4), st.sampled_from([I64.min, I64.max, 10**12])), 2**62),
    DATE32: (st.integers(-3, 3), I32.min),
    FLOAT64: (st.sampled_from([0.0, -0.0, 1.5, -2.0, np.nan, np.inf]), np.nan),
}


@st.composite
def host_column(draw, dtype, rows, dictionary=None):
    """A host column from raw buffers: optional NULLs with the drawn value
    or garbage under them, and for strings a dictionary of its own (in any
    order, entries possibly unused) unless one is passed to share; a
    string NULL has code -1, as ``Column.from_strings`` writes it."""
    validity = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=rows, max_size=rows)))
    if dtype.is_string:
        if dictionary is None:
            dictionary = np.asarray(
                draw(st.lists(st.text("abc", max_size=2), max_size=5, unique=True)), dtype=object
            )
        elements, garbage = st.integers(-1, len(dictionary) - 1), 10**6
    else:
        elements, garbage = HOST_KINDS[dtype]
    data = draw(st.lists(elements, min_size=rows, max_size=rows))
    if dtype.is_string and -1 in data:
        flags = validity if validity is not None else [True] * rows
        validity = [ok and code >= 0 for code, ok in zip(data, flags)]
    if validity is not None and draw(st.booleans()):
        data = [v if ok else garbage for v, ok in zip(data, validity)]
    return Column(dtype, np.asarray(data, dtype=dtype.numpy_dtype), validity, dictionary)


@st.composite
def host_tables(draw, count, dtypes=None, max_rows=10):
    """``count`` tables of one schema (every dtype, one to three columns);
    a string column shares the previous table's dictionary object now
    and then, the way pieces of one table do."""
    if dtypes is None:
        dtypes = draw(st.lists(st.sampled_from([*HOST_KINDS, STRING]), min_size=1, max_size=3))
    schema = Schema([(f"c{i}", dtype) for i, dtype in enumerate(dtypes)])
    tables = []
    for _ in range(count):
        rows = draw(st.integers(0, max_rows))
        columns = []
        for i, dtype in enumerate(dtypes):
            shared = None
            if dtype.is_string and tables and draw(st.booleans()):
                shared = tables[-1].columns[i].dictionary
            columns.append(draw(host_column(dtype, rows, shared)))
        tables.append(Table(schema, columns))
    return tables


def assert_same_table(got, want):
    assert got.schema == want.schema
    for name, g, w in zip(want.schema.names(), got.columns, want.columns):
        assert_identical(g.data, w.data, name)
        assert (g.validity is None) == (w.validity is None), name
        if w.validity is not None:
            assert_identical(g.validity, w.validity, name)
        if w.dictionary is None:
            assert g.dictionary is None, name
        else:
            assert_identical(g.dictionary, w.dictionary, name)


# NaN and inf float payloads pass through an int64 cast when hashed.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
class TestConcatTables:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(host_tables))
    def test_equals_the_decode_and_re_encode_formulation(self, tables):
        assert_same_table(concat_tables(tables), reference.concat_tables(tables))

    @settings(max_examples=100, deadline=None)
    @given(host_tables(1), st.sampled_from([1, 2, 3, 8]))
    def test_partition_then_concat_is_a_permutation(self, tables, n):
        (table,) = tables
        pieces = table.partition(range(table.num_columns), n)
        assert len(pieces) == n
        merged = concat_tables(pieces)
        order = np.concatenate(_keys.bucket_rows(_ids(table, n), n))
        assert_same_table(merged, reference.concat_tables([table.take(order)]))


def _ids(table, n):
    return _keys.partition_ids([c.arrays for c in table.columns], n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 100)), st.integers(1, 8))
def test_buckets_hold_each_ids_rows_in_source_order(values, n):
    ids = np.asarray(values, dtype=np.int32) % n
    buckets = _keys.bucket_rows(ids, n)
    assert len(buckets) == n
    for p, rows in enumerate(buckets):
        assert rows.tolist() == np.flatnonzero(ids == p).tolist()


class TestDictionaryMemo:
    def test_each_dictionary_and_key_is_computed_once(self, gpu):
        dictionary = counted_dictionary()
        col = strings(gpu, [0, 1, 2, 2, -1], dictionary)
        other = strings(gpu, [2, 0], dictionary)
        for _ in range(3):
            for c in (col, other):
                like(c, "%d%")
                like(c, "%d%", negate=True)
                substring(c, 1, 1)
                hash_partition_ids([c], 4)
        # One pass over the three entries per distinct key: the mean length
        # every launch charges, LIKE '%d%' (its negation shares the hits),
        # SUBSTRING(1, 1) and the entry hashes.
        assert Counted.reads == 4 * 3
        like(col, "%c%")
        substring(col, 2, 1)
        assert Counted.reads == 6 * 3

    def test_memo_values_are_not_mutated_by_their_callers(self, gpu):
        dictionary = dictionary_of("apple", "banana", "cherry")
        col = strings(gpu, [0, 1, 2], dictionary)
        assert like(col, "%an%").data.tolist() == [False, True, False]
        assert like(col, "%an%", negate=True).data.tolist() == [True, False, True]
        assert like(col, "%an%").data.tolist() == [False, True, False]
        first = substring(col, 2, 3)
        second = substring(strings(gpu, [2, 2, -1], dictionary, [1, 0, 1]), 2, 3)
        assert first.dictionary is second.dictionary  # one remap per dictionary
        assert first.to_host(False).to_pylist() == ["ppl", "ana", "her"]
        assert second.to_host(False).to_pylist() == ["her", None, None]

    def test_host_and_device_columns_share_one_entry(self, gpu):
        host = Table(
            Schema([("s", STRING)]),
            [Column(STRING, np.array([0, 1, 2, 2, -1], np.int32), None, counted_dictionary())],
        )
        device = GTable.from_host(gpu, host).column("s")
        assert device.dictionary is host["s"].dictionary
        for _ in range(2):
            host_ids = _ids(host, 4)
            host.partition([0], 4)
            device_ids = hash_partition_ids([device], 4)
        assert_identical(host_ids, device_ids)
        # The entry hashes once for both sides, plus the mean length the
        # device launch charges.
        assert Counted.reads == 2 * 3
