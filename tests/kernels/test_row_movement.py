"""Differential tests: the row-movement kernels (``repro.kernels.copying``)
against their first formulations in ``reference.py``.

Every check builds one input twice, on two fresh devices, runs the kernel
on one and the reference on the other, and then requires the same output
— dtype, data, ``validity is None``-ness, validity, per-buffer bytes — and
the same device: pool bytes in use and at peak, allocation and free
counts, clock and kernel count.  Inputs cover every dtype (strings too)
with no validity buffer, an all-true one, and NULLs; the named cases are
the degenerate ones and the hypothesis property draws the rest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BOOL, DATE32, FLOAT64, INT64, STRING, Field, Schema
from repro.gpu import GH200, Device
from repro.kernels import (
    GColumn,
    GTable,
    concat_gtables,
    gather_column,
    gather_table,
    mask_table,
    scatter_to_partitions,
    slice_table,
)

from . import reference
from .test_differential import assert_identical

DTYPES = {"int64": INT64, "float64": FLOAT64, "date": DATE32, "bool": BOOL, "string": STRING}
VALIDITY = ("none", "all-true", "nulls")
# Shared by both twins, so the outputs' dictionaries can be compared by identity.
DICTIONARIES = [
    np.asarray(["", "a", "bb", "ccc"], dtype=object),
    np.asarray(["bb", "zz"], dtype=object),
]
EVERY_COLUMN = [(kind, mode) for kind in DTYPES for mode in VALIDITY]


def make_column(dev, kind, mode, rows, rng, dictionary=0):
    """A column placed without ``from_array``, so an all-true validity
    buffer survives."""
    dtype = DTYPES[kind]
    dictionary = DICTIONARIES[dictionary] if kind == "string" else None
    if kind == "string":
        data = rng.integers(-1, len(dictionary), rows)
    elif kind == "float64":
        data = rng.normal(size=rows).round(2)
    elif kind == "bool":
        data = rng.random(rows) < 0.5
    else:
        data = rng.integers(-1000, 1000, rows)
    buffer = dev.new_buffer(np.ascontiguousarray(data, dtype=dtype.numpy_dtype))
    validity = None
    if mode == "all-true":
        validity = dev.new_buffer(np.ones(rows, dtype=np.bool_))
    elif mode == "nulls":
        validity = dev.new_buffer(rng.random(rows) < 0.6)
    return GColumn(dtype, buffer, validity, dictionary)


def make_table(dev, rows, columns=EVERY_COLUMN, seed=0, dictionary=0):
    rng = np.random.default_rng(seed)
    cols = [make_column(dev, kind, mode, rows, rng, dictionary) for kind, mode in columns]
    names = [f"c{i}_{kind}_{mode}" for i, (kind, mode) in enumerate(columns)]
    schema = Schema([Field(name, DTYPES[kind]) for name, (kind, _) in zip(names, columns)])
    return GTable(schema, cols, dev)


def twins():
    return Device(GH200, memory_limit_gb=2.0), Device(GH200, memory_limit_gb=2.0)


def device_state(dev):
    stats = dev.processing_pool.stats()
    return (
        stats.in_use,
        stats.peak_in_use,
        stats.num_allocs,
        stats.num_frees,
        repr(dev.clock.now),
        dev.kernel_count,
    )


def assert_same_column(got, want, what, same_dictionary=True):
    assert got.dtype is want.dtype, what
    assert_identical(got.data, want.data, f"{what} data")
    assert (got.validity is None) == (want.validity is None), f"{what} validity buffer"
    if got.validity is not None:
        assert_identical(got.validity.array, want.validity.array, f"{what} validity")
    assert got.buffer.nbytes == want.buffer.nbytes and got.nbytes == want.nbytes, what
    if same_dictionary:
        assert got.dictionary is want.dictionary, what
    elif want.dictionary is not None:
        assert_identical(got.dictionary, want.dictionary, f"{what} dictionary")


def assert_same_table(got, want, same_dictionary=True):
    if want is None:
        assert got is None
        return
    assert [f.name for f in got.schema] == [f.name for f in want.schema]
    assert got.num_rows == want.num_rows
    for field, g, w in zip(got.schema, got.columns, want.columns):
        assert_same_column(g, w, field.name, same_dictionary)


def check(build, kernel, ref, same_dictionary=True):
    """Run ``kernel`` and ``ref`` on twin copies of ``build(device)``."""
    dev, twin = twins()
    got = kernel(build(dev))
    want = ref(build(twin))
    assert_same_table(got, want, same_dictionary)
    assert device_state(dev) == device_state(twin)


def one_column_table(column):
    return GTable(Schema([Field("c", column.dtype)]), [column], column.device)


def check_gather(rows, indices, columns=EVERY_COLUMN):
    if not isinstance(indices, np.ndarray):
        indices = np.asarray(indices, dtype=np.int32)  # what joins produce

    def build(dev):
        return make_table(dev, rows, columns)

    check(build, lambda t: gather_table(t, indices), lambda t: reference.gather_table(t, indices))
    for charge in (True, False):
        for i in range(len(columns)):
            check(
                build,
                lambda t: one_column_table(gather_column(t.columns[i], indices, charge)),
                lambda t: one_column_table(reference.gather_column(t.columns[i], indices, charge)),
            )


def check_mask(rows, keep, columns=EVERY_COLUMN):
    keep = np.asarray(keep, dtype=np.bool_)
    check(
        lambda dev: make_table(dev, rows, columns),
        lambda t: mask_table(t, keep),
        lambda t: reference.mask_table(t, keep),
    )


def check_slice(rows, start, length, columns=EVERY_COLUMN):
    check(
        lambda dev: make_table(dev, rows, columns),
        lambda t: slice_table(t, start, length),
        lambda t: reference.slice_table(t, start, length),
    )


def check_scatter(rows, ids, fanout, columns=EVERY_COLUMN):
    """Buckets are built when taken: the devices agree after the scatter
    and after every bucket, taken in order."""
    ids = np.asarray(ids, dtype=np.int32)
    dev, twin = twins()
    got = scatter_to_partitions(make_table(dev, rows, columns), ids, fanout)
    want = reference.scatter_to_partitions(make_table(twin, rows, columns), ids, fanout)
    assert len(got) == len(want) == fanout
    assert device_state(dev) == device_state(twin)
    for p in range(fanout):
        assert_same_table(got[p], want[p])
        assert device_state(dev) == device_state(twin)
    with pytest.raises(IndexError):
        got[fanout]


def check_concat(part_rows, columns=EVERY_COLUMN):
    """One part per entry of ``part_rows``; parts differ in seed, string
    dictionary and which validity mode each column has."""

    def build(dev):
        tables = []
        for i, rows in enumerate(part_rows):
            # Same dtypes in every part; the validity modes rotate.
            modes = [mode for _, mode in columns[i:] + columns[:i]]
            cols = [(kind, mode) for (kind, _), mode in zip(columns, modes)]
            tables.append(make_table(dev, rows, cols, seed=i, dictionary=i % 2))
        return tables

    check(build, concat_gtables, reference.concat_gtables, same_dictionary=False)


# -- named degenerate and boundary inputs ---------------------------------------------


class TestGather:
    @pytest.mark.parametrize(
        "indices",
        [[], [6, 0, 3, 3, 5], [2, -1, 0, -1], [-1, -1, -1]],
        ids=["empty-map", "no-null", "some-null", "all-null"],
    )
    def test_over_seven_rows(self, indices):
        check_gather(7, indices)

    @pytest.mark.parametrize(
        "indices", [[], [-1, -1], [0, 3]], ids=["empty-map", "all-null", "no-null"]
    )
    def test_over_empty_columns(self, indices):
        # The first formulation gathers NULLs from an empty column, whatever the map.
        check_gather(0, indices)

    def test_int64_map(self):
        check_gather(5, np.array([4, -1, 1], dtype=np.int64))


class TestMask:
    @pytest.mark.parametrize("keep", ["none", "all", "some"])
    @pytest.mark.parametrize("rows", [0, 1, 9])
    def test_keep(self, rows, keep):
        rng = np.random.default_rng(rows)
        mask = {"none": np.zeros(rows), "all": np.ones(rows), "some": rng.random(rows) < 0.5}[keep]
        check_mask(rows, mask)


class TestSlice:
    @pytest.mark.parametrize(
        "start,length",
        [(0, 3), (2, 100), (0, 0), (7, 5), (8, 5), (10**6, 5), (10**8, 10**8), (3, 4)],
    )
    def test_bounds(self, start, length):
        check_slice(7, start, length)

    def test_empty_table(self):
        check_slice(0, 0, 5)
        check_slice(0, 3, 5)


class TestScatter:
    def test_some_buckets_empty(self):
        check_scatter(9, [3, 0, 3, 3, 1, 0, 3, 1, 0], 5)

    def test_one_bucket(self):
        check_scatter(4, [0, 0, 0, 0], 1)

    def test_no_rows(self):
        check_scatter(0, [], 3)


class TestConcat:
    def test_three_parts(self):
        check_concat([4, 0, 6])

    def test_one_part(self):
        check_concat([5])

    def test_all_empty(self):
        check_concat([0, 0])

    def test_parts_without_any_mask(self):
        plain = [(kind, "none") for kind in DTYPES]
        check_concat([3, 2], plain)


# -- the same checks over drawn inputs ----------------------------------------------


@st.composite
def row_movement_case(draw):
    column = st.tuples(st.sampled_from(list(DTYPES)), st.sampled_from(VALIDITY))
    columns = draw(st.lists(column, min_size=1, max_size=4))
    rows = draw(st.integers(0, 10))
    op = draw(st.sampled_from(["gather", "mask", "slice", "scatter", "concat"]))
    if op == "gather":
        # Over an empty column any row number gathers a NULL.
        args = (draw(st.lists(st.integers(-1, rows - 1 if rows else 3), max_size=12)),)
    elif op == "mask":
        args = (draw(st.lists(st.booleans(), min_size=rows, max_size=rows)),)
    elif op == "slice":
        args = (draw(st.integers(0, rows + 3)), draw(st.integers(0, rows + 3)))
    elif op == "scatter":
        fanout = draw(st.integers(1, 4))
        args = (draw(st.lists(st.integers(0, fanout - 1), min_size=rows, max_size=rows)), fanout)
    else:
        args = (draw(st.lists(st.integers(0, 6), min_size=1, max_size=3)),)
    return op, rows, columns, args


class TestAgainstFirstFormulation:
    @settings(max_examples=150, deadline=None)
    @given(row_movement_case())
    def test_same_output_and_same_device(self, case):
        op, rows, columns, args = case
        if op == "gather":
            check_gather(rows, args[0], columns)
        elif op == "mask":
            check_mask(rows, args[0], columns)
        elif op == "slice":
            check_slice(rows, *args, columns)
        elif op == "scatter":
            check_scatter(rows, *args, columns)
        else:
            check_concat(args[0], columns)
