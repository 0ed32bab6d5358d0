"""Unit tests for sort, copying, and reduction kernels."""

import numpy as np
import pytest

from repro.columnar import STRING
from repro.kernels import (
    GColumn,
    concat_gtables,
    gather_column,
    gather_table,
    mask_table,
    reduce_column,
    slice_table,
    sorted_order,
    top_n_order,
)


class TestSort:
    def test_single_key_ascending(self, make_gtable):
        g = make_gtable({"v": [3.0, 1.0, 2.0]}, [("v", "float64")])
        assert sorted_order([g.column("v")], [True]).tolist() == [1, 2, 0]

    def test_single_key_descending(self, make_gtable):
        g = make_gtable({"v": [3.0, 1.0, 2.0]}, [("v", "float64")])
        assert sorted_order([g.column("v")], [False]).tolist() == [0, 2, 1]

    def test_multi_key_priority(self, make_gtable):
        g = make_gtable(
            {"a": [1, 2, 1], "b": [9, 1, 3]}, [("a", "int64"), ("b", "int64")]
        )
        # primary a asc, secondary b desc
        assert sorted_order([g.column("a"), g.column("b")], [True, False]).tolist() == [0, 2, 1]

    def test_stability(self, make_gtable):
        g = make_gtable({"a": [1, 1, 1]}, [("a", "int64")])
        assert sorted_order([g.column("a")], [True]).tolist() == [0, 1, 2]

    def test_nulls_last_ascending(self, make_gtable):
        g = make_gtable({"v": [2.0, None, 1.0]}, [("v", "float64")])
        assert sorted_order([g.column("v")], [True]).tolist() == [2, 0, 1]

    def test_string_keys_sort_lexicographically(self, make_gtable):
        g = make_gtable({"s": ["pear", "apple", "fig"]}, [("s", "string")])
        order = sorted_order([g.column("s")], [True])
        decoded = g.column("s").decoded()[order]
        assert list(decoded) == ["apple", "fig", "pear"]

    def test_top_n_matches_sort_prefix(self, make_gtable):
        g = make_gtable({"v": [5.0, 1.0, 4.0, 2.0, 3.0]}, [("v", "float64")])
        full = sorted_order([g.column("v")], [False])
        top = top_n_order([g.column("v")], [False], 2)
        assert top.tolist() == full[:2].tolist()

    def test_mismatched_flags_rejected(self, make_gtable):
        g = make_gtable({"v": [1.0]}, [("v", "float64")])
        with pytest.raises(ValueError):
            sorted_order([g.column("v")], [True, False])


class TestSortIntegerKeysExactly:
    """Integer-kind keys are compared as int64, not through float64."""

    BIG = [2**53 + 1, 2**53, 2**53 + 3, 2**53 + 2]

    def test_above_2_53_ascending(self, make_gtable):
        g = make_gtable({"v": self.BIG}, [("v", "int64")])
        assert sorted_order([g.column("v")], [True]).tolist() == [1, 0, 3, 2]
        assert top_n_order([g.column("v")], [True], 2).tolist() == [1, 0]

    def test_above_2_53_descending(self, make_gtable):
        g = make_gtable({"v": self.BIG}, [("v", "int64")])
        assert sorted_order([g.column("v")], [False]).tolist() == [2, 3, 0, 1]
        assert top_n_order([g.column("v")], [False], 3).tolist() == [2, 3, 0]

    def test_int64_min_and_max_in_one_column(self, make_gtable):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        g = make_gtable({"v": [0, hi, lo, hi - 1, lo + 1]}, [("v", "int64")])
        assert sorted_order([g.column("v")], [True]).tolist() == [2, 4, 0, 3, 1]
        assert sorted_order([g.column("v")], [False]).tolist() == [1, 3, 0, 4, 2]

    def test_nulls_last_in_both_directions(self, make_gtable):
        g = make_gtable({"v": [3, None, 1, None, 2]}, [("v", "int64")])
        assert sorted_order([g.column("v")], [True]).tolist() == [2, 4, 0, 1, 3]
        assert sorted_order([g.column("v")], [False]).tolist() == [0, 4, 2, 1, 3]
        f = make_gtable({"v": [3.0, None, 1.0]}, [("v", "float64")])
        assert sorted_order([f.column("v")], [False]).tolist() == [0, 2, 1]
        s = make_gtable({"v": ["b", None, "a", "c"]}, [("v", "string")])
        assert sorted_order([s.column("v")], [False]).tolist() == [3, 0, 2, 1]
        b = make_gtable({"v": [True, None, False]}, [("v", "bool")])
        assert sorted_order([b.column("v")], [True]).tolist() == [2, 0, 1]
        assert sorted_order([b.column("v")], [False]).tolist() == [0, 2, 1]

    def test_payload_under_null_does_not_order_the_nulls(self, dev):
        from repro.columnar import INT64
        from repro.kernels.gtable import GColumn

        primary = GColumn.from_array(
            dev, INT64, np.array([2**62, 5, -(2**62), 7]), np.array([False, True, False, True])
        )
        secondary = GColumn.from_array(dev, INT64, np.array([1, 0, 0, 0]))
        # The two NULLs tie on the primary key whatever they hold.
        assert sorted_order([primary, secondary], [True, True]).tolist() == [1, 3, 2, 0]
        assert sorted_order([primary, secondary], [False, True]).tolist() == [3, 1, 2, 0]

    def test_float_key_then_large_integer_key(self, make_gtable):
        g = make_gtable(
            {"f": [1.5, 1.5, 0.5, 1.5, None], "i": self.BIG + [0]},
            [("f", "float64"), ("i", "int64")],
        )
        keys = [g.column("f"), g.column("i")]
        assert sorted_order(keys, [True, True]).tolist() == [2, 1, 0, 3, 4]
        assert sorted_order(keys, [True, False]).tolist() == [2, 3, 0, 1, 4]
        assert sorted_order(keys, [False, False]).tolist() == [3, 0, 1, 2, 4]
        # Large-int key primary, float key breaking its ties.
        h = make_gtable(
            {"i": [2**53 + 1, 2**53, 2**53 + 1, 2**53], "f": [2.0, 9.0, 1.0, -9.0]},
            [("i", "int64"), ("f", "float64")],
        )
        keys = [h.column("i"), h.column("f")]
        assert sorted_order(keys, [True, True]).tolist() == [3, 1, 2, 0]
        assert sorted_order(keys, [False, True]).tolist() == [2, 0, 3, 1]


class TestGather:
    def test_gather_values(self, make_gtable):
        g = make_gtable({"v": [10, 20, 30]}, [("v", "int64")])
        out = gather_column(g.column("v"), np.array([2, 0, 1], dtype=np.int32))
        assert out.data.tolist() == [30, 10, 20]

    def test_gather_negative_index_yields_null(self, make_gtable):
        g = make_gtable({"v": [10, 20]}, [("v", "int64")])
        out = gather_column(g.column("v"), np.array([0, -1], dtype=np.int32))
        assert out.valid_mask().tolist() == [True, False]

    def test_gather_from_empty_column(self, make_gtable):
        g = make_gtable({"v": []}, [("v", "int64")])
        out = gather_column(g.column("v"), np.array([-1, -1], dtype=np.int32))
        assert len(out) == 2 and out.null_count == 2

    def test_gather_table_all_columns(self, make_gtable):
        g = make_gtable(
            {"a": [1, 2], "s": ["x", "y"]}, [("a", "int64"), ("s", "string")]
        )
        out = gather_table(g, np.array([1, 1, 0], dtype=np.int32))
        host = out.to_host(False).to_pydict()
        assert host == {"a": [2, 2, 1], "s": ["y", "y", "x"]}


class TestMaskSliceConcat:
    def test_mask_table(self, make_gtable):
        g = make_gtable({"a": [1, 2, 3]}, [("a", "int64")])
        out = mask_table(g, np.array([True, False, True]))
        assert out.to_host(False).to_pydict()["a"] == [1, 3]

    def test_slice_table(self, make_gtable):
        g = make_gtable({"a": list(range(10))}, [("a", "int64")])
        out = slice_table(g, 2, 3)
        assert out.to_host(False).to_pydict()["a"] == [2, 3, 4]

    def test_slice_clamps_to_end(self, make_gtable):
        g = make_gtable({"a": [1, 2]}, [("a", "int64")])
        assert slice_table(g, 1, 100).num_rows == 1

    def test_concat(self, make_gtable):
        g1 = make_gtable({"a": [1], "s": ["x"]}, [("a", "int64"), ("s", "string")])
        g2 = make_gtable({"a": [2], "s": ["y"]}, [("a", "int64"), ("s", "string")])
        out = concat_gtables([g1, g2])
        assert out.to_host(False).to_pydict() == {"a": [1, 2], "s": ["x", "y"]}

    def test_concat_keeps_dictionary_sorted(self, make_gtable):
        g1 = make_gtable({"s": ["zeta"]}, [("s", "string")])
        g2 = make_gtable({"s": ["alpha"]}, [("s", "string")])
        out = concat_gtables([g1, g2])
        d = list(out.columns[0].dictionary)
        assert d == sorted(d)


class TestReduce:
    @pytest.mark.parametrize(
        "op,expected",
        [("sum", 6.0), ("min", 1.0), ("max", 3.0), ("count", 3), ("mean", 2.0)],
    )
    def test_numeric_reductions(self, make_gtable, op, expected):
        g = make_gtable({"v": [1.0, 2.0, 3.0]}, [("v", "float64")])
        assert reduce_column(g.column("v"), op) == expected

    def test_nulls_skipped(self, make_gtable):
        g = make_gtable({"v": [1.0, None, 3.0]}, [("v", "float64")])
        assert reduce_column(g.column("v"), "sum") == 4.0
        assert reduce_column(g.column("v"), "count") == 2
        assert reduce_column(g.column("v"), "count_star") == 3

    def test_empty_sum_is_null(self, make_gtable):
        g = make_gtable({"v": []}, [("v", "float64")])
        assert reduce_column(g.column("v"), "sum") is None
        assert reduce_column(g.column("v"), "count") == 0

    def test_string_min(self, make_gtable):
        g = make_gtable({"s": ["pear", "apple"]}, [("s", "string")])
        assert reduce_column(g.column("s"), "min") == "apple"

    def test_count_distinct(self, make_gtable):
        g = make_gtable({"v": [1, 1, 2, None]}, [("v", "int64")])
        assert reduce_column(g.column("v"), "count_distinct") == 2

    def test_minus_one_codes_are_null_without_a_validity_buffer(self, dev):
        codes = dev.new_buffer(np.array([2, -1, 0, -1, 2], dtype=np.int32))
        col = GColumn(STRING, codes, None, np.asarray(["a", "b", "c"], dtype=object))
        got = {op: reduce_column(col, op) for op in ("count", "count_distinct", "min", "max")}
        assert got == {"count": 3, "count_distinct": 2, "min": "a", "max": "c"}
        assert reduce_column(col, "count_star") == 5

    def test_integer_sum_returns_int(self, make_gtable):
        g = make_gtable({"v": [1, 2]}, [("v", "int64")])
        result = reduce_column(g.column("v"), "sum")
        assert result == 3 and isinstance(result, int)
