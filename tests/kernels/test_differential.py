"""Differential tests: the direct-addressed key kernels against the
sort-based reference formulations in ``reference.py``.

``check_against_reference`` runs every consumer of key codes — both modes
of ``factorize_keys``, the four joins (kernel-library and custom
sort-merge), ``groupby`` with every aggregate, ``concat_gtables`` — over
one pair of key-column lists and requires arrays equal to the reference in
dtype, shape and every element, **in order**.  The named cases below are
the degenerate and boundary inputs; ``test_properties.py`` feeds the same
check from hypothesis strategies.  The joins' key lookup has its own
boundary cases and property at the end, each saying which joins looked
the key up and which factorized it.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BOOL, DATE32, FLOAT64, INT32, INT64, STRING, Field, Schema, _keys
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
from repro.kernels import join as join_module
from repro.kernels import keys as keys_module
from repro.gpu import GH200, Device
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
    """Deterministic aggregate inputs: int, float and string columns with
    NULLs, then an int and a string column without a validity buffer (the
    string's NULLs are ``-1`` codes)."""
    rng = np.random.default_rng(rows)
    return (
        column(dev, INT64, rng.integers(-50, 50, rows), rng.random(rows) < 0.8),
        column(dev, FLOAT64, rng.normal(size=rows).round(3), rng.random(rows) < 0.8),
        strings(dev, rng.integers(0, 3, rows), ["a", "b", "c"], rng.random(rows) < 0.8),
        column(dev, INT64, rng.integers(-50, 50, rows)),
        GColumn(STRING, dev.new_buffer(rng.integers(-1, 3, rows).astype(np.int32)), None,
                np.asarray(["a", "b", "c"], dtype=object)),
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
    ints_, floats_, strs_, plain_ints, plain_strs = value_columns(dev, len(keys[0]))
    aggs = [AggSpec("count_star", None, "n")]
    for name, col in (("i", ints_), ("p", plain_ints)):
        aggs += [
            AggSpec(op, col, f"{name}_{op}")
            for op in ("sum", "min", "max", "count", "count_distinct", "mean")
        ]
    aggs += [AggSpec(op, floats_, f"f_{op}") for op in ("sum", "min", "max", "mean")]
    for name, col in (("s", strs_), ("q", plain_strs)):
        aggs += [AggSpec(op, col, f"{name}_{op}") for op in ("min", "max", "count", "count_distinct")]
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
    """Lengths of the arrays ``repro.kernels.keys`` hands to ``np.unique``,
    itself or through the dictionary merge (``columnar._keys``); the
    reference's own calls are not counted."""
    seen = []
    real = np.unique
    callers = {keys_module.__name__, _keys.__name__}

    def spy(values, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") in callers:
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


# -- the joins' key lookup: which joins take it, and that they agree --------------------


@pytest.fixture
def factorized(monkeypatch):
    """Names of the join kernels that fell back to ``factorize_keys``
    (``_has_match`` stands for semi and anti)."""
    seen = []
    real = join_module.factorize_keys

    def spy(*args, **kwargs):
        seen.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(join_module, "factorize_keys", spy)
    return seen


EVERY_JOIN = {"inner_join", "left_join", "_has_match"}
SEMI_ANTI = ["_has_match", "_has_match"]


def check_lookup(left, right, factorized, fallbacks):
    """The kernel joins equal the reference, and exactly the joins named in
    ``fallbacks`` (in call order) factorized their keys."""
    factorized.clear()
    check_joins([left], [right])
    kernel_calls = [name for name in factorized if name in EVERY_JOIN]
    assert kernel_calls == fallbacks


KEY_DTYPES = {"int32": INT32, "int64": INT64, "date": DATE32, "bool": BOOL}


class TestKeyLookup:
    @pytest.mark.parametrize("probe_kind", list(KEY_DTYPES))
    @pytest.mark.parametrize("build_kind", list(KEY_DTYPES))
    def test_every_integer_kind_and_mixed_widths(self, dev, factorized, build_kind, probe_kind):
        bools = "bool" in (build_kind, probe_kind)
        build = column(dev, KEY_DTYPES[build_kind], [1, 0] if bools else [3, -2, 7, 0])
        probe = column(
            dev, KEY_DTYPES[probe_kind], [0, 1, 1, 0, 1] if bools else [7, 3, 9, -2, 3, 0, -5]
        )
        # The probe side repeats keys but the build side does not: every
        # join looks up, in either argument order (the inner join's
        # smaller side is the unique one).
        check_lookup(probe, build, factorized, [])
        check_lookup(build, probe, factorized, ["left_join"])

    def test_nulls_on_either_side_or_both(self, dev, factorized):
        build = ints(dev, [4, 1, 9, 2**62, 5], [1, 1, 1, 0, 1])  # garbage under the NULL
        probe = ints(dev, [9, 4, -(2**62), 1, 4, 5, 9], [1, 1, 0, 1, 0, 1, 1])
        plain_build, plain_probe = ints(dev, [4, 1, 9, 7, 5]), ints(dev, [9, 4, 0, 1, 4, 5, 9])
        for left, right in ((probe, plain_build), (plain_probe, build), (probe, build)):
            check_lookup(left, right, factorized, [])

    def test_all_null_sides(self, dev, factorized):
        nulls = ints(dev, [1, 2, 3], [0, 0, 0])
        check_lookup(ints(dev, [1, 2, 2, 3]), nulls, factorized, [])
        check_lookup(nulls, ints(dev, [1, 2]), factorized, [])
        check_lookup(nulls, ints(dev, [3, 2, 1], [0, 0, 0]), factorized, [])

    def test_which_side_is_unique(self, dev, factorized):
        unique = ints(dev, [5, 1, 3, 8])
        repeated = ints(dev, [3, 3, 1, 8, 8, 8, 2])
        small_repeated = ints(dev, [3, 1, 3])
        # Build (the smaller side) unique.
        check_lookup(repeated, unique, factorized, [])
        # Only the probe side unique: inner looks the probe side up and
        # orders the pairs as the build side's runs would; left cannot.
        check_lookup(unique, small_repeated, factorized, ["left_join"])
        # Both sides unique.
        check_lookup(unique, ints(dev, [8, 7, 5]), factorized, [])
        # Neither: only semi and anti look up.
        check_lookup(repeated, ints(dev, [8, 1, 8, 4]), factorized, ["inner_join", "left_join"])

    def test_empty_sides_and_one_row_builds(self, dev, factorized):
        empty = ints(dev, [])
        # An empty side is unique; a repeated build side still is not.
        check_lookup(empty, ints(dev, [1, 2, 2]), factorized, ["left_join"])
        check_lookup(ints(dev, [1, 2, 2]), empty, factorized, [])
        check_lookup(empty, empty, factorized, [])
        check_lookup(ints(dev, [4, 7, 4, -1]), ints(dev, [4]), factorized, [])
        check_lookup(ints(dev, [4, 7, 4, -1]), ints(dev, [5]), factorized, [])
        check_lookup(ints(dev, [4, 7, 4, -1]), ints(dev, [4], [0]), factorized, [])

    def test_negative_keys_and_probes_outside_the_build_range(self, dev, factorized):
        build = ints(dev, [-9, -4, -6, -5])
        probe = ints(dev, [-10, -9, -3, I64.min, I64.max, -5, -4, 0, -9])
        check_lookup(probe, build, factorized, [])
        # The build range touches both ends of int64: a probe key far below
        # ``lo`` wraps past the table when viewed unsigned, never into it.
        top = ints(dev, [I64.max, I64.max - 2])
        bottom = ints(dev, [I64.min, I64.min + 1])
        check_lookup(ints(dev, [I64.min, I64.min + 2, I64.max - 2, -1, 0]), top, factorized, [])
        check_lookup(ints(dev, [I64.max, I64.max - 1, I64.min + 1, 1, 0]), bottom, factorized, [])

    def test_the_span_budget_is_the_dense_rank_one(self, dev, factorized):
        bound = keys_module.TABLE_SLOTS_PER_ROW * 2 + keys_module.TABLE_SLOTS_FLOOR
        fits = ints(dev, [0, bound - 1])
        check_lookup(ints(dev, [bound - 1, 0, 5, bound - 1]), fits, factorized, [])
        # One slot wider on both sides: nothing can be looked up.
        wide = ints(dev, [0, bound])
        every = ["inner_join", "left_join", *SEMI_ANTI]
        check_lookup(ints(dev, [bound, 0, 5, bound]), wide, factorized, every)
        # Only NULL rows reach past the budget: the span is the valid rows'.
        masked = ints(dev, [0, bound - 1, 10 * bound], [1, 1, 0])
        check_lookup(ints(dev, [bound - 1, 0, 10 * bound]), masked, factorized, [])

    def test_strings_floats_and_several_keys_factorize(self, dev, factorized):
        every = ["inner_join", "left_join", *SEMI_ANTI]
        check_lookup(
            strings(dev, [0, 1, 1], ["a", "b"]), strings(dev, [1, 0], ["a", "b"]), factorized, every
        )
        floats = column(dev, FLOAT64, [1.0, 2.0])
        check_lookup(column(dev, FLOAT64, [2.0, 3.0, 1.0]), floats, factorized, every)
        factorized.clear()
        check_joins([ints(dev, [1, 2]), ints(dev, [3, 4])], [ints(dev, [2]), ints(dev, [4])])
        assert [n for n in factorized if n in EVERY_JOIN] == every


@st.composite
def lookup_sides(draw):
    """One integer-kind key column per side: widths mixed, NULLs (with
    garbage under them) anywhere, keys unique or repeated, negative, and
    outside the other side's range."""
    dev = Device(GH200, memory_limit_gb=2.0)
    sides = []
    for _ in range(2):
        kind = draw(st.sampled_from(list(KEY_DTYPES)))
        rows = draw(st.integers(0, 12))
        if kind == "bool":
            values = st.booleans()
        else:
            lo = draw(st.integers(-20, 5))
            values = st.integers(lo, lo + draw(st.integers(0, 25)))
        unique = draw(st.booleans())
        data = draw(st.lists(values, min_size=0 if unique else rows, max_size=rows, unique=unique))
        rows = len(data)
        validity = draw(
            st.one_of(st.none(), st.lists(st.booleans(), min_size=rows, max_size=rows))
        )
        if validity is not None and draw(st.booleans()):
            data = [v if ok else 2**30 for v, ok in zip(data, validity)]
        sides.append(column(dev, KEY_DTYPES[kind], data, validity))
    return sides


class TestKeyLookupProperty:
    @settings(max_examples=200, deadline=None)
    @given(lookup_sides())
    def test_joins_equal_the_reference(self, sides):
        check_joins([sides[0]], [sides[1]])
