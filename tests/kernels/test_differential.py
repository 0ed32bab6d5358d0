"""Differential tests: the direct-addressed key kernels against the
sort-based reference formulations in ``reference.py``.

``check_against_reference`` runs every consumer of key codes — both modes
of ``factorize_keys``, the four joins (kernel-library and custom
sort-merge), ``groupby`` with every aggregate, ``concat_gtables`` — over
one pair of key-column lists and requires arrays equal to the reference in
dtype, shape and every element, **in order**.  The named cases below are
the degenerate and boundary inputs; ``test_properties.py`` feeds the same
check from hypothesis strategies.
"""

import sys

import numpy as np
import pytest

from repro.columnar import BOOL, DATE32, FLOAT64, INT64, STRING, Field, Schema
from repro.core.operators.join import custom_sort_merge_join
from repro.kernels import (
    AggSpec,
    GTable,
    anti_join,
    concat_gtables,
    factorize_keys,
    groupby,
    inner_join,
    left_join,
    semi_join,
)
from repro.kernels import keys as keys_module
from repro.kernels.gtable import GColumn

from . import reference

I64 = np.iinfo(np.int64)


def column(dev, dtype, data, validity=None, dictionary=None):
    """A device column from raw buffers — payloads under invalid slots and
    unreferenced dictionary entries are kept exactly as given."""
    if dictionary is not None:
        dictionary = np.asarray(dictionary, dtype=object)
    if validity is not None:
        validity = np.asarray(validity, dtype=np.bool_)
    return GColumn.from_array(
        dev, dtype, np.asarray(data, dtype=dtype.numpy_dtype), validity, dictionary
    )


def ints(dev, data, validity=None):
    return column(dev, INT64, data, validity)


def strings(dev, codes, dictionary, validity=None):
    return column(dev, STRING, codes, validity, dictionary)


def assert_identical(got, want, what=""):
    """Same dtype, shape and elements (bit for bit for numeric arrays)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    if got.dtype == object:
        assert got.tolist() == want.tolist(), what
    else:
        assert got.tobytes() == want.tobytes(), f"{what}: {got!r} != {want!r}"


def value_columns(dev, rows):
    """Deterministic aggregate inputs (int, float, string; each with NULLs)."""
    rng = np.random.default_rng(rows)
    return (
        column(dev, INT64, rng.integers(-50, 50, rows), rng.random(rows) < 0.8),
        column(dev, FLOAT64, rng.normal(size=rows).round(3), rng.random(rows) < 0.8),
        strings(dev, rng.integers(0, 3, rows), ["a", "b", "c"], rng.random(rows) < 0.8),
    )


def table_of(dev, cols):
    schema = Schema([Field(f"c{i}", c.dtype) for i, c in enumerate(cols)])
    return GTable(schema, cols, dev)


def check_factorize(left, right):
    for nulls_match in (False, True):
        got = factorize_keys(left, right, nulls_match=nulls_match)
        want = reference.factorize_keys(left, right, nulls_match=nulls_match)
        assert_identical(got[0], want[0], f"left codes (nulls_match={nulls_match})")
        assert_identical(got[1], want[1], f"right codes (nulls_match={nulls_match})")
        assert isinstance(got[2], int) and got[2] == want[2]
        assert got[0].flags.writeable and got[1].flags.writeable


def check_joins(left, right):
    for what, got, want in (
        ("inner", inner_join(left, right), reference.inner_join(left, right)),
        ("left", left_join(left, right), reference.left_join(left, right)),
        (
            "custom inner",
            custom_sort_merge_join("inner", left, right),
            reference.inner_join(left, right, build_on_smaller=False),
        ),
        (
            "custom left",
            custom_sort_merge_join("left", left, right),
            reference.left_join(left, right),
        ),
    ):
        assert_identical(got.left_indices, want[0], f"{what} join left indices")
        assert_identical(got.right_indices, want[1], f"{what} join right indices")
    for kernel, custom, ref in (
        (semi_join, "semi", reference.semi_join),
        (anti_join, "anti", reference.anti_join),
    ):
        want = ref(left, right)
        assert_identical(kernel(left, right), want, f"{custom} join")
        assert_identical(custom_sort_merge_join(custom, left, right), want, f"custom {custom}")


def check_groupby(dev, keys):
    ints_, floats_, strs_ = value_columns(dev, len(keys[0]))
    aggs = [AggSpec("count_star", None, "n")]
    aggs += [
        AggSpec(op, ints_, f"i_{op}")
        for op in ("sum", "min", "max", "count", "count_distinct", "mean")
    ]
    aggs += [AggSpec(op, floats_, f"f_{op}") for op in ("sum", "min", "max", "mean")]
    aggs += [AggSpec(op, strs_, f"s_{op}") for op in ("min", "max", "count", "count_distinct")]
    got = groupby(keys, aggs)
    want = reference.groupby(keys, aggs)
    assert got.num_columns == len(want)
    for i, (col, (dtype, data, validity, dictionary)) in enumerate(zip(got.columns, want)):
        assert col.dtype is dtype
        data = np.ascontiguousarray(data, dtype=dtype.numpy_dtype)  # as GColumn stores it
        assert_identical(col.data, data, f"group-by column {i} data")
        assert_identical(col.valid_mask(), validity, f"group-by column {i} validity")
        assert col.dictionary is dictionary


def check_concat(dev, fragments):
    """``fragments``: lists of columns, one list per table to concatenate."""
    got = concat_gtables([table_of(dev, cols) for cols in fragments])
    for i, col in enumerate(got.columns):
        parts = [cols[i] for cols in fragments]
        if col.dtype.is_string:
            codes, validity, dictionary = reference.concat_string_columns(parts)
            assert_identical(col.dictionary, dictionary, f"concat column {i} dictionary")
        else:
            codes = np.concatenate([p.data for p in parts])
            validity = np.concatenate([p.valid_mask() for p in parts])
        assert_identical(col.data, codes, f"concat column {i} data")
        assert_identical(col.valid_mask(), validity, f"concat column {i} validity")


def no_rows(col):
    """``col`` cut to zero rows: same dtype, dictionary and mask-or-not."""
    dev = col.device
    validity = None if col.validity is None else dev.new_buffer(col.validity.array[:0])
    return GColumn(col.dtype, dev.new_buffer(col.data[:0]), validity, col.dictionary)


def check_against_reference(dev, left, right=()):
    left, right = list(left), list(right)
    check_factorize(left, right)
    # Every key column alone takes the single-column path (its codes are
    # already the ranks), and cut to no rows the empty one (0 distinct).
    for i, col in enumerate(left):
        check_factorize([col], [right[i]] if right else [])
        check_factorize([no_rows(col)], [no_rows(right[i])] if right else [])
    check_groupby(dev, left)
    if right:
        check_joins(left, right)
        check_groupby(dev, right)
        check_concat(dev, [left, right, left])
    else:
        check_concat(dev, [left, left])


# -- which branch of the dense-rank primitive ran -----------------------------------


@pytest.fixture
def row_sorts(monkeypatch):
    """Lengths of the arrays ``repro.kernels.keys`` hands to ``np.unique``
    (the reference's own calls are not counted)."""
    seen = []
    real = np.unique

    def spy(values, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == keys_module.__name__:
            seen.append(len(values))
        return real(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return seen


class TestTableOrSort:
    def test_dense_domain_takes_the_table_sparse_one_the_sort(self, dev, row_sorts):
        dense = ints(dev, [5, 3, 3, 9, 4])
        sparse = ints(dev, [0, 10**12, 0, 10**12, 7])
        check_factorize([dense], [])
        assert row_sorts == []
        check_factorize([sparse], [])
        # Once per nulls_match mode, over the column's five rows; the
        # combined codes are dense again and take the table.
        assert row_sorts == [5, 5]
        check_against_reference(dev, [dense, sparse], [sparse, dense])

    def test_the_bound_is_slots_per_row_plus_floor(self, dev, row_sorts):
        bound = keys_module.TABLE_SLOTS_PER_ROW * 2 + keys_module.TABLE_SLOTS_FLOOR
        check_factorize([ints(dev, [0, bound - 1])], [])
        assert row_sorts == []
        check_factorize([ints(dev, [0, bound])], [])
        assert row_sorts == [2, 2]

    def test_floats_always_sort(self, dev, row_sorts):
        col = column(dev, FLOAT64, [0.0, -0.0, np.nan, 1.0, np.nan])
        check_factorize([col], [])
        assert row_sorts == [5, 5]

    def test_strings_sort_referenced_entries_not_rows(self, dev, row_sorts):
        col = strings(dev, [2, 2, 2, 0, 2, 0, 2, 2], ["a", "unused", "z"])
        check_factorize([col], [])
        assert row_sorts == [2, 2]


# -- named degenerate and boundary inputs ---------------------------------------------


class TestDegenerateShapes:
    def test_empty_left(self, dev):
        check_against_reference(dev, [ints(dev, [])], [ints(dev, [1, 2, 2])])

    def test_empty_right(self, dev):
        check_against_reference(dev, [ints(dev, [1, 2, 2])], [ints(dev, [])])

    def test_both_empty(self, dev):
        check_against_reference(dev, [ints(dev, [])], [ints(dev, [])])
        check_against_reference(
            dev, [strings(dev, [], [])], [strings(dev, [], ["never", "used"])]
        )

    def test_one_row(self, dev):
        check_against_reference(dev, [ints(dev, [7])], [ints(dev, [7])])
        check_against_reference(dev, [ints(dev, [7])], [ints(dev, [8])])
        check_against_reference(dev, [ints(dev, [7], [False])], [ints(dev, [7])])

    def test_all_null_column(self, dev):
        nulls = ints(dev, [1, 2, 3], [False, False, False])
        check_against_reference(dev, [nulls], [ints(dev, [1, 2, 3])])
        check_against_reference(dev, [ints(dev, [1, 2, 3])], [nulls])
        check_against_reference(dev, [nulls, ints(dev, [1, 1, 2])], [nulls, ints(dev, [1, 2, 2])])

    def test_all_duplicate_keys(self, dev):
        check_against_reference(dev, [ints(dev, [4] * 6)], [ints(dev, [4] * 5)])

    def test_negative_keys(self, dev):
        check_against_reference(
            dev, [ints(dev, [-3, -1, -3, 0, 2, -7])], [ints(dev, [-7, -7, 5, -1, 0])]
        )

    def test_int64_extremes_in_one_column(self, dev):
        left = ints(dev, [I64.min, I64.max, 0, I64.max, I64.min + 1])
        right = ints(dev, [I64.max, I64.min, I64.max - 1])
        check_against_reference(dev, [left], [right])

    def test_nulls_on_the_build_side_and_the_probe_side(self, dev):
        left = ints(dev, [1, 2, 2, 3, 9], [True, False, True, True, False])
        right = ints(dev, [2, 2, 3, 4, 1], [False, True, False, True, True])
        check_against_reference(dev, [left], [right])
        check_against_reference(dev, [right], [left])


class TestOtherDtypes:
    def test_dates_and_bools(self, dev):
        i32 = np.iinfo(np.int32)
        dates_l = column(dev, DATE32, [i32.min, 10, i32.max, 10, 0], [1, 1, 1, 0, 1])
        dates_r = column(dev, DATE32, [10, i32.max, 11])
        bools_l = column(dev, BOOL, [True, False, True, True, False], [1, 1, 0, 1, 1])
        bools_r = column(dev, BOOL, [False, False, True])
        check_against_reference(dev, [dates_l], [dates_r])
        check_against_reference(dev, [bools_l], [bools_r])
        check_against_reference(dev, [bools_l, dates_l], [bools_r, dates_r])

    def test_float_nan_and_signed_zero(self, dev):
        left = column(dev, FLOAT64, [0.0, -0.0, np.nan, 2.5, np.nan, -np.inf], [1, 1, 1, 1, 1, 0])
        right = column(dev, FLOAT64, [-0.0, np.nan, np.inf, 2.5])
        check_against_reference(dev, [left], [right])
        check_against_reference(
            dev, [left, ints(dev, [1, 1, 2, 2, 2, 3])], [right, ints(dev, [1, 2, 2, 9])]
        )


class TestStringDictionaries:
    def test_disjoint_dictionaries(self, dev):
        left = strings(dev, [0, 1, 1, 2], ["apple", "fig", "pear"])
        right = strings(dev, [1, 0, 1], ["kiwi", "plum"])
        check_against_reference(dev, [left], [right])

    def test_overlapping_dictionaries_with_unreferenced_entries(self, dev):
        left = strings(dev, [4, 1, 4, 1], ["aa", "fig", "unused", "zz", "pear"])
        right = strings(dev, [2, 0, 2], ["pear", "never", "fig", "nor this"])
        check_against_reference(dev, [left], [right])

    def test_empty_dictionary(self, dev):
        empty = strings(dev, [-1, -1, -1], [], [True, False, True])
        check_against_reference(dev, [empty], [strings(dev, [0, 0], ["x"])])
        check_against_reference(dev, [strings(dev, [0, 0], ["x"])], [empty])
        check_against_reference(dev, [empty], [empty])

    def test_sides_sharing_one_dictionary_object(self, dev):
        shared = np.asarray(["ant", "bee", "cat", "dog"], dtype=object)
        left = strings(dev, [3, 0, 0, 2], shared)
        right = strings(dev, [0, 3, 1], shared)
        assert left.dictionary is right.dictionary
        check_against_reference(dev, [left], [right])

    def test_unsorted_dictionary_with_a_repeated_entry(self, dev):
        # Not what the library produces, but nothing may depend on it.
        left = strings(dev, [0, 1, 2, 3], ["pear", "apple", "pear", "fig"])
        right = strings(dev, [1, 0], ["apple", "pear"])
        check_against_reference(dev, [left], [right])

    def test_string_and_integer_keys_together(self, dev):
        left = [strings(dev, [0, 1, 0, 1], ["x", "y"]), ints(dev, [1, 1, 2, 2], [1, 1, 1, 0])]
        right = [strings(dev, [1, 0, 1], ["w", "y"]), ints(dev, [1, 1, 2])]
        check_against_reference(dev, left, right)


class TestPoisonedPayloads:
    """Garbage under invalid slots must not reach the span computation or
    a dictionary lookup (see ``test_null_semantics.py``)."""

    def test_garbage_integers_under_null(self, dev):
        left = ints(dev, [1, 2**62, 2, -(2**62), 1], [1, 0, 1, 0, 1])
        right = ints(dev, [I64.min, 2, I64.max, 1], [0, 1, 0, 1])
        check_against_reference(dev, [left], [right])

    def test_the_table_is_sized_from_valid_rows_only(self, dev, row_sorts):
        check_factorize([ints(dev, [1, 2**62, 2], [1, 0, 1])], [ints(dev, [I64.min, 2], [0, 1])])
        assert row_sorts == []

    def test_out_of_range_string_codes_under_null(self, dev):
        left = strings(dev, [0, 10**6, 1, -7, 0], ["a", "b"], [1, 0, 1, 0, 1])
        right = strings(dev, [99, 0, 5], ["b"], [0, 1, 0])
        check_against_reference(dev, [left], [right])

    def test_nan_under_null_float_keys(self, dev):
        left = column(dev, FLOAT64, [1.0, np.nan, np.inf, 2.0], [1, 0, 0, 1])
        right = column(dev, FLOAT64, [np.nan, 2.0], [0, 1])
        check_against_reference(dev, [left], [right])


class TestWideKeys:
    def test_three_high_cardinality_columns_cross_the_redensify_branch(self, dev, row_sorts):
        # 11 000^3 > 2^40: the combination is re-ranked mid-way, and the
        # product of the first two columns is wider than the table bound.
        rows = 11_000
        rng = np.random.default_rng(40)
        left = [ints(dev, rng.permutation(rows)) for _ in range(3)]
        right = [ints(dev, c.data[::7].copy()) for c in left]
        check_factorize(left, right)
        assert len(row_sorts) > 0
        check_joins(left, right)
        check_groupby(dev, left)
