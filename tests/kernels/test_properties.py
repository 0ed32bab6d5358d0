"""Property-based tests: kernels vs brute-force reference implementations."""

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BOOL, DATE32, FLOAT64, INT64, STRING, Schema, Table
from repro.gpu import Device, GH200
from repro.kernels import (
    AggSpec,
    anti_join,
    factorize_keys,
    groupby,
    hash_partition_ids,
    inner_join,
    left_join,
    partition_by_keys,
    semi_join,
    sorted_order,
)
from repro.kernels.gtable import GTable

from . import reference
from .test_differential import assert_identical, check_against_reference, column

keys_strategy = st.lists(st.one_of(st.none(), st.integers(0, 8)), min_size=0, max_size=40)


def gtable_from(values, name="k"):
    device = Device(GH200, memory_limit_gb=2.0)
    t = Table.from_pydict({name: values}, Schema([(name, "int64")]))
    return GTable.from_host(device, t)


class TestJoinAgainstNestedLoop:
    @settings(max_examples=60)
    @given(keys_strategy, keys_strategy)
    def test_inner_join_matches_nested_loop(self, left_vals, right_vals):
        left = gtable_from(left_vals)
        right = gtable_from(right_vals)
        res = inner_join([left.column("k")], [right.column("k")])
        got = sorted(zip(res.left_indices.tolist(), res.right_indices.tolist()))
        expected = sorted(
            (i, j)
            for i, lv in enumerate(left_vals)
            for j, rv in enumerate(right_vals)
            if lv is not None and rv is not None and lv == rv
        )
        assert got == expected

    @settings(max_examples=40)
    @given(keys_strategy, keys_strategy)
    def test_left_join_covers_all_left_rows(self, left_vals, right_vals):
        left = gtable_from(left_vals)
        right = gtable_from(right_vals)
        res = left_join([left.column("k")], [right.column("k")])
        match_count = defaultdict(int)
        for i, lv in enumerate(left_vals):
            for rv in right_vals:
                if lv is not None and rv is not None and lv == rv:
                    match_count[i] += 1
        expected_rows = sum(max(1, match_count[i]) for i in range(len(left_vals)))
        assert len(res) == expected_rows
        assert set(res.left_indices.tolist()) == set(range(len(left_vals)))

    @settings(max_examples=40)
    @given(keys_strategy, keys_strategy)
    def test_semi_anti_partition_left(self, left_vals, right_vals):
        left = gtable_from(left_vals)
        right = gtable_from(right_vals)
        semi = set(semi_join([left.column("k")], [right.column("k")]).tolist())
        anti = set(anti_join([left.column("k")], [right.column("k")]).tolist())
        assert semi | anti == set(range(len(left_vals)))
        assert not (semi & anti)
        right_set = {v for v in right_vals if v is not None}
        for i in semi:
            assert left_vals[i] in right_set


class TestGroupbyAgainstReference:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 5), st.floats(-100, 100)), max_size=50))
    def test_sum_count_match_python(self, rows):
        keys = [k for k, _ in rows]
        vals = [v for _, v in rows]
        if not rows:
            return
        device = Device(GH200, memory_limit_gb=2.0)
        t = Table.from_pydict(
            {"k": keys, "v": vals}, Schema([("k", "int64"), ("v", "float64")])
        )
        g = GTable.from_host(device, t)
        out = groupby(
            [g.column("k")],
            [AggSpec("sum", g.column("v"), "s"), AggSpec("count_star", None, "n")],
        ).to_host(False).to_pydict()
        ref_sum = defaultdict(float)
        ref_n = defaultdict(int)
        for k, v in rows:
            ref_sum[k] += v
            ref_n[k] += 1
        got = {k: (pytest.approx(s, abs=1e-6), n) for k, s, n in zip(out["key0"], out["s"], out["n"])}
        assert set(got) == set(ref_sum)
        for k in ref_sum:
            assert ref_sum[k] == got[k][0]
            assert ref_n[k] == got[k][1]


class TestSortAgainstPython:
    @settings(max_examples=60)
    @given(st.lists(st.integers(-1000, 1000), max_size=60))
    def test_order_matches_python_sorted(self, values):
        if not values:
            return
        g = gtable_from(values, "v")
        order = sorted_order([g.column("v")], [True])
        assert [values[i] for i in order] == sorted(values)

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 5), max_size=40))
    def test_sort_is_permutation(self, values):
        if not values:
            return
        g = gtable_from(values, "v")
        order = sorted_order([g.column("v")], [False])
        assert sorted(order.tolist()) == list(range(len(values)))


class TestFactorizeKeys:
    @settings(max_examples=60)
    @given(keys_strategy, keys_strategy)
    def test_codes_agree_with_equality(self, left_vals, right_vals):
        if not left_vals or not right_vals:
            return
        left = gtable_from(left_vals)
        right = gtable_from(right_vals)
        lc, rc, _ = factorize_keys([left.column("k")], [right.column("k")])
        for i, lv in enumerate(left_vals):
            for j, rv in enumerate(right_vals):
                if lv is None or rv is None:
                    continue
                assert (lc[i] == rc[j]) == (lv == rv)

    @settings(max_examples=30)
    @given(keys_strategy)
    def test_nulls_match_mode_gives_no_sentinels(self, values):
        if not values:
            return
        g = gtable_from(values)
        codes, _, _ = factorize_keys([g.column("k")], nulls_match=True)
        assert (codes >= 0).all()


# -- every key dtype, one to three key columns, one or two sides ------------------------

I64, I32 = np.iinfo(np.int64), np.iinfo(np.int32)

# Per kind: the column dtype, element strategies (a narrow domain that takes
# the direct-address table, a wide one that forces the row sort, and — for
# the integer kinds — their mix) and the garbage written under NULL slots.
KEY_KINDS = {
    "int64": (
        INT64,
        [
            st.integers(-4, 4),
            st.sampled_from([I64.min, I64.max, 0, 10**12, -(10**12), 2**53, 2**53 + 1]),
            st.one_of(st.integers(-4, 4), st.sampled_from([I64.min, I64.max, 10**12])),
        ],
        2**62,
    ),
    "date": (
        DATE32,
        [st.integers(-3, 3), st.one_of(st.integers(-3, 3), st.sampled_from([I32.min, I32.max]))],
        I32.max,
    ),
    "bool": (BOOL, [st.booleans()], True),
    "float64": (
        FLOAT64,
        [st.sampled_from([np.nan, 0.0, -0.0, 1.5, -2.0, np.inf, -np.inf])],
        np.nan,
    ),
}


@st.composite
def key_column(draw, dev, kind, rows, dictionary=None):
    """One key column of ``rows`` rows: optional NULLs, and under them
    either the drawn payload or worst-case garbage."""
    validity = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=rows, max_size=rows)))
    poison = draw(st.booleans())
    if kind == "string":
        if dictionary is None:
            # Sorted as the library keeps them; entries may go unreferenced.
            entries = draw(st.lists(st.text("abc", max_size=2), max_size=5, unique=True))
            dictionary = np.asarray(sorted(entries), dtype=object)
        # Code -1 is a NULL the validity bits know nothing about.
        codes = st.integers(-1, len(dictionary) - 1)
        data = draw(st.lists(codes, min_size=rows, max_size=rows))
        dtype, garbage = STRING, 10**6
    else:
        dtype, domains, garbage = KEY_KINDS[kind]
        elements = draw(st.sampled_from(domains))
        data = draw(st.lists(elements, min_size=rows, max_size=rows))
    if poison and validity is not None:
        data = [v if ok else garbage for v, ok in zip(data, validity)]
    return column(dev, dtype, data, validity, dictionary)


@st.composite
def key_sides(draw):
    """``(device, left columns, right columns)``; right is empty for the
    single-table (group-by) use."""
    dev = Device(GH200, memory_limit_gb=2.0)
    kinds = draw(st.lists(st.sampled_from([*KEY_KINDS, "string"]), min_size=1, max_size=3))
    n_left = draw(st.integers(0, 12))
    left = [draw(key_column(dev, kind, n_left)) for kind in kinds]
    right = []
    if draw(st.booleans()):
        n_right = draw(st.integers(0, 12))
        for kind, lcol in zip(kinds, left):
            # String sides sometimes share one dictionary *object*.
            shared = lcol.dictionary if kind == "string" and draw(st.booleans()) else None
            right.append(draw(key_column(dev, kind, n_right, shared)))
    return dev, left, right


class TestAgainstReferenceFormulation:
    """``factorize_keys`` (both NULL modes), the four joins, ``groupby`` and
    ``concat_gtables`` return the arrays the sort-based seed formulation
    returns — same dtype, shape, elements and order."""

    @settings(max_examples=200, deadline=None)
    @given(key_sides())
    def test_arrays_equal_the_reference(self, sides):
        dev, left, right = sides
        check_against_reference(dev, left, right)


# -- radix partitioning: every key dtype, NULL pattern, salt level and fan-out -----------


@st.composite
def partition_case(draw):
    """``(device, key columns, level, fan-out)`` over the poisoned columns
    of :func:`key_column`."""
    dev = Device(GH200, memory_limit_gb=2.0)
    kinds = draw(st.lists(st.sampled_from([*KEY_KINDS, "string"]), min_size=1, max_size=3))
    rows = draw(st.integers(0, 16))
    cols = [draw(key_column(dev, kind, rows)) for kind in kinds]
    return dev, cols, draw(st.integers(0, 3)), draw(st.sampled_from([2, 3, 8]))


# NaN and inf float keys hash through an int64 cast; equal keys still agree.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
class TestPartitionByKeys:
    """What makes per-partition joins and group-bys exact: equal keys —
    NULL equal to NULL, whatever garbage lies under the invalid slot —
    meet in one partition, and no row is lost or duplicated."""

    @settings(max_examples=300, deadline=None)
    @given(partition_case())
    def test_equal_keys_share_a_partition_and_every_row_lands_once(self, case):
        dev, cols, level, fanout = case
        rows = len(cols[0])
        ids = hash_partition_ids(cols, fanout, level=level)
        assert ids.dtype == np.int32 and ids.shape == (rows,)
        assert ((ids >= 0) & (ids < fanout)).all()

        key_codes, _, _ = factorize_keys(cols, nulls_match=True)
        placed = set(zip(key_codes.tolist(), ids.tolist()))
        assert len(placed) == len(set(key_codes.tolist())), "one key, two partitions"

        row_id = column(dev, INT64, np.arange(rows))
        schema = Schema([(f"k{i}", c.dtype) for i, c in enumerate(cols)] + [("row", INT64)])
        parts = partition_by_keys(
            GTable(schema, [*cols, row_id], dev), range(len(cols)), fanout, level=level
        )
        assert len(parts) == fanout
        for p, part in enumerate(parts):
            want = np.flatnonzero(ids == p)
            if part is None:
                assert len(want) == 0
            else:
                assert_identical(part.column("row").data, want, f"partition {p}")

    @settings(max_examples=200, deadline=None)
    @given(partition_case())
    def test_columns_without_nulls_hash_as_first_shipped(self, case):
        _dev, cols, _level, fanout = case
        # String NULLs always hashed as zero; other dtypes did not look.
        cols = [c for c in cols if c.dtype.is_string or c.validity is None]
        if cols:
            assert_identical(
                hash_partition_ids(cols, fanout),
                reference.hash_partition_ids(cols, fanout),
            )

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 8, 64])
    def test_salted_level_redistributes_one_bucket(self, level, stride):
        """The point of re-splitting an over-budget partition: the rows
        that met in one bucket one level up spread over every bucket."""
        dev = Device(GH200, memory_limit_gb=2.0)
        values = np.arange(0, 4096 * stride, stride)
        above = hash_partition_ids([column(dev, INT64, values)], 8, level=level - 1)
        bucket = column(dev, INT64, values[above == above[0]])
        spread = np.bincount(hash_partition_ids([bucket], 8, level=level), minlength=8)
        assert spread.min() > 0 and spread.max() < len(bucket) // 4
