"""Differential tests: the expression kernels (``repro.kernels.compute``)
and ``keep_mask`` against their first formulations in ``reference.py``.

As in ``test_row_movement.py``, every check builds its operands twice, on
two fresh devices, runs the kernel on one and the reference on the other,
and requires the same output column — dtype, data, ``validity is
None``-ness, validity, bytes — and the same device: pool bytes in use and
at peak, allocation and free counts, clock and kernel count.  Operands are
{column, scalar, NULL scalar} with columns of every numeric and date dtype
under no validity buffer, an all-true one, and NULLs; the named cases
cover the matrix and a hypothesis property draws from it.
"""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import BOOL, DATE32, FLOAT64, INT32, INT64, STRING, Field, Schema
from repro.core.expr_compile import keep_mask
from repro.kernels import (
    GColumn,
    GTable,
    binary_arith,
    compare,
    in_list,
    is_null,
    logical_and,
    logical_not,
    logical_or,
)

from . import reference
from .test_differential import assert_identical
from .test_row_movement import assert_same_column, device_state, twins

DTYPES = {"bool": BOOL, "int32": INT32, "int64": INT64, "float64": FLOAT64, "date": DATE32}
VALIDITY = ("none", "all-true", "nulls")
# Scalars of each kind; zero reaches the NULL-for-a-zero-divisor branch.
SCALARS = {
    "bool": [True, False],
    "int32": [3, -2, 0],
    "int64": [-3, 7, 0],
    "float64": [2.5, -0.5, 0.0],
    "date": [date(1970, 1, 4)],
}
ARITH = ("add", "subtract", "multiply", "divide", "modulo")
CMP = ("eq", "ne", "lt", "le", "gt", "ge")


def make_column(dev, kind, mode, rows, seed):
    """A column placed without ``from_array``, so an all-true validity
    buffer survives; small values, zeros and negatives included."""
    rng = np.random.default_rng(seed)
    dtype = DTYPES[kind]
    if kind == "float64":
        data = rng.integers(-6, 7, rows) / 2
    elif kind == "bool":
        data = rng.random(rows) < 0.5
    else:
        data = rng.integers(-6, 7, rows)
    buffer = dev.new_buffer(np.ascontiguousarray(data, dtype=dtype.numpy_dtype))
    validity = None
    if mode == "all-true":
        validity = dev.new_buffer(np.ones(rows, dtype=np.bool_))
    elif mode == "nulls":
        validity = dev.new_buffer(rng.random(rows) < 0.6)
    return GColumn(dtype, buffer, validity)


def operand_on(dev, spec, rows):
    """``spec``: ``("column", kind, mode, seed)``, ``("scalar", value)`` or
    ``("null",)``."""
    if spec[0] == "column":
        return make_column(dev, *spec[1:3], rows, spec[3])
    return spec[1] if spec[0] == "scalar" else None


def check(kernel, ref, specs, rows):
    """``kernel(*operands)`` and ``ref(*operands)`` on twin devices: the
    same column and the same device, or both a ``TypeError`` (arithmetic
    on booleans)."""
    dev, twin = twins()
    outcomes = []
    for device, fn in ((dev, kernel), (twin, ref)):
        operands = [operand_on(device, spec, rows) for spec in specs]
        try:
            outcomes.append(fn(*operands))
        except TypeError:
            outcomes.append(TypeError)
    got, want = outcomes
    if want is TypeError:
        assert got is TypeError
        return
    assert_same_column(got, want, "output")
    assert device_state(dev) == device_state(twin)


def column_specs(kinds=DTYPES, seed=0):
    return [("column", kind, mode, seed) for kind in kinds for mode in VALIDITY]


def scalar_specs(kind):
    return [("scalar", value) for value in SCALARS[kind]] + [("null",)]


class TestArithmetic:
    @pytest.mark.parametrize("op", ARITH)
    @pytest.mark.parametrize("kind", list(DTYPES))
    def test_column_with_column(self, op, kind):
        for left in column_specs([kind]):
            for right in column_specs(DTYPES, seed=1):
                check(
                    lambda a, b: binary_arith(op, a, b),
                    lambda a, b: reference.binary_arith(op, a, b),
                    [left, right],
                    9,
                )

    @pytest.mark.parametrize("op", ARITH)
    @pytest.mark.parametrize("kind", list(DTYPES))
    def test_column_with_scalar_either_side(self, op, kind):
        for col in column_specs([kind]):
            for scalar in (s for k in DTYPES for s in scalar_specs(k)):
                for pair in ([col, scalar], [scalar, col]):
                    check(
                        lambda a, b: binary_arith(op, a, b),
                        lambda a, b: reference.binary_arith(op, a, b),
                        pair,
                        9,
                    )

    def test_empty_columns(self):
        for op in ARITH:
            for col in column_specs(["int64", "float64"]):
                for other in [col, ("scalar", 0), ("null",)]:
                    check(
                        lambda a, b: binary_arith(op, a, b),
                        lambda a, b: reference.binary_arith(op, a, b),
                        [col, other],
                        0,
                    )


class TestComparison:
    @pytest.mark.parametrize("op", CMP)
    @pytest.mark.parametrize("kind", list(DTYPES))
    def test_every_operand_kind(self, op, kind):
        for col in column_specs([kind]):
            others = column_specs([kind], seed=1) + scalar_specs(kind)
            for other in others:
                for pair in ([col, other], [other, col]):
                    if pair[0][0] != "column" and pair[1][0] != "column":
                        continue
                    check(
                        lambda a, b: compare(op, a, b),
                        lambda a, b: reference.compare(op, a, b),
                        pair,
                        9,
                    )


BOOLEAN_OPERANDS = column_specs(["bool"]) + column_specs(["bool"], seed=1) + scalar_specs("bool")


class TestLogic:
    @pytest.mark.parametrize(
        "kernel,ref", [(logical_and, reference.logical_and), (logical_or, reference.logical_or)]
    )
    def test_binary(self, kernel, ref):
        for left in BOOLEAN_OPERANDS:
            for right in BOOLEAN_OPERANDS:
                if left[0] == "column" or right[0] == "column":
                    check(kernel, ref, [left, right], 9)

    def test_not(self):
        for col in column_specs(["bool"]):
            check(logical_not, reference.logical_not, [col], 9)
            check(logical_not, reference.logical_not, [col], 0)

    @pytest.mark.parametrize("negate", [False, True])
    def test_is_null(self, negate):
        for col in column_specs():
            check(
                lambda c: is_null(c, negate), lambda c: reference.is_null(c, negate), [col], 9
            )


class TestInList:
    @pytest.mark.parametrize("with_null", [False, True])
    @pytest.mark.parametrize("kind", ["int32", "int64", "float64", "date", "bool"])
    def test_numeric(self, kind, with_null):
        values = {
            "date": [date(1970, 1, 2), date(1969, 12, 30)],
            "bool": [True],
            "float64": [1.5, -2.0, 3.0],
        }.get(kind, [1, -3, 6])
        values = values + [None] if with_null else values
        for col in column_specs([kind]):
            check(lambda c: in_list(c, values), lambda c: reference.in_list(c, values), [col], 9)
        only_null = [None]
        for col in column_specs([kind]):
            check(
                lambda c: in_list(c, only_null),
                lambda c: reference.in_list(c, only_null),
                [col],
                9,
            )

    @pytest.mark.parametrize("with_null", [False, True])
    def test_strings(self, with_null):
        dictionary = np.asarray(["", "None", "a", "b"], dtype=object)
        values = ["a", "zz", None] if with_null else ["a", "None"]

        def build(dev, mode):
            rng = np.random.default_rng(3)
            codes = dev.new_buffer(rng.integers(-1, 4, 9).astype(np.int32))
            validity = {"all-true": np.ones(9, np.bool_), "nulls": rng.random(9) < 0.6}.get(mode)
            validity = None if validity is None else dev.new_buffer(validity)
            return GColumn(STRING, codes, validity, dictionary)

        for mode in VALIDITY:
            dev, twin = twins()
            got = in_list(build(dev, mode), values)
            want = reference.in_list(build(twin, mode), values)
            assert_same_column(got, want, mode)
            assert device_state(dev) == device_state(twin)


class TestKeepMask:
    @staticmethod
    def table_of(value):
        return GTable(Schema([Field("c", BOOL)]), [value], value.device)

    def test_columns_and_scalars(self, dev):
        for mode in VALIDITY:
            value = make_column(dev, "bool", mode, 9, 0)
            got = keep_mask(value, self.table_of(value))
            assert_identical(got, reference.keep_mask(value, self.table_of(value)))
            assert got.nbytes == 9
        table = self.table_of(make_column(dev, "bool", "none", 4, 0))
        for scalar in (True, False, None):
            assert_identical(keep_mask(scalar, table), reference.keep_mask(scalar, table))

    def test_no_mask_returns_the_data(self, dev):
        value = make_column(dev, "bool", "none", 5, 0)
        assert keep_mask(value, self.table_of(value)) is value.data


# -- the same matrix, drawn -----------------------------------------------------------


@st.composite
def operand(draw, kinds, allow_scalar=True):
    kind = draw(st.sampled_from(kinds))
    choice = draw(st.sampled_from(["column", "scalar", "null"] if allow_scalar else ["column"]))
    if choice == "column":
        return ("column", kind, draw(st.sampled_from(VALIDITY)), draw(st.integers(0, 50)))
    if choice == "scalar":
        return ("scalar", draw(st.sampled_from(SCALARS[kind])))
    return ("null",)


@st.composite
def compute_case(draw):
    rows = draw(st.integers(0, 12))
    family = draw(st.sampled_from(["arith", "compare", "logic", "not", "is_null", "in"]))
    if family in ("arith", "compare"):
        op = draw(st.sampled_from(ARITH if family == "arith" else CMP))
        kinds = list(DTYPES)
        col = draw(operand(kinds, allow_scalar=False))
        other = draw(operand(kinds if family == "arith" else [col[1]]))
        pair = draw(st.permutations([col, other]))
        kernel = binary_arith if family == "arith" else compare
        ref = reference.binary_arith if family == "arith" else reference.compare
        return (lambda a, b: kernel(op, a, b)), (lambda a, b: ref(op, a, b)), pair, rows
    if family == "logic":
        fns = draw(
            st.sampled_from(
                [(logical_and, reference.logical_and), (logical_or, reference.logical_or)]
            )
        )
        col = draw(operand(["bool"], allow_scalar=False))
        pair = draw(st.permutations([col, draw(operand(["bool"]))]))
        return fns[0], fns[1], pair, rows
    col = draw(operand(list(DTYPES), allow_scalar=False))
    if family == "not":
        col = ("column", "bool", *col[2:])
        return logical_not, reference.logical_not, [col], rows
    if family == "is_null":
        negate = draw(st.booleans())
        return (lambda c: is_null(c, negate)), (lambda c: reference.is_null(c, negate)), [col], rows
    values = draw(st.lists(st.one_of(st.none(), st.integers(-6, 6)), min_size=1, max_size=4))
    col = ("column", draw(st.sampled_from(["int32", "int64", "float64"])), *col[2:])
    return (lambda c: in_list(c, values)), (lambda c: reference.in_list(c, values)), [col], rows


class TestAgainstFirstFormulation:
    @settings(max_examples=200, deadline=None)
    @given(compute_case())
    def test_same_output_and_same_device(self, case):
        kernel, ref, specs, rows = case
        check(kernel, ref, specs, rows)
