"""``GColumn.traffic_bytes``: the dictionary's mean entry length is measured
once per dictionary object, and the charge is the seed formula's integer."""

import gc

import numpy as np

from repro.kernels import gtable
from repro.kernels.gtable import GTable

from .test_differential import strings


def seed_traffic_bytes(col):
    """The formula as first written: re-measures the dictionary per call."""
    if col.dtype.is_string and len(col) > 0 and col.dictionary is not None:
        if len(col.dictionary) > 0:
            avg_len = sum(len(str(s)) for s in col.dictionary) / len(col.dictionary)
        else:
            avg_len = 0.0
        return int(len(col) * avg_len) + col.buffer.nbytes
    return col.nbytes


def dictionary_of(*entries):
    return np.asarray(entries, dtype=object)


class TestTrafficBytes:
    def test_columns_sharing_a_dictionary(self, dev):
        shared = dictionary_of("a", "bcd", "ef")
        first = strings(dev, [0, 1, 2, 1, 1], shared)
        second = strings(dev, [2, 2], shared)
        for col in (first, second, first):
            assert col.traffic_bytes == seed_traffic_bytes(col)

    def test_different_dictionaries(self, dev):
        short = strings(dev, [0, 1, 0], dictionary_of("a", "b"))
        long = strings(dev, [0, 1, 0], dictionary_of("a" * 40, "b" * 7))
        assert short.traffic_bytes == seed_traffic_bytes(short) == 3 + 12
        assert long.traffic_bytes == seed_traffic_bytes(long) == int(3 * 23.5) + 12

    def test_empty_dictionary_and_empty_column(self, dev):
        all_null = strings(dev, [-1, -1], dictionary_of())
        assert all_null.traffic_bytes == seed_traffic_bytes(all_null) == 8
        no_rows = strings(dev, [], dictionary_of("x"))
        assert no_rows.traffic_bytes == seed_traffic_bytes(no_rows) == 0

    def test_a_dead_dictionarys_value_is_never_served_to_a_new_one(self, dev):
        # Allocate-measure-drop many dictionaries of differing mean length:
        # CPython reuses the freed addresses, so ids repeat.
        seen_ids = set()
        repeats = 0
        for i in range(200):
            dictionary = dictionary_of(*["x" * (i % 17 + 1)] * 3)
            repeats += id(dictionary) in seen_ids
            seen_ids.add(id(dictionary))
            col = strings(dev, [0, 1, 2, 0], dictionary)
            assert col.traffic_bytes == seed_traffic_bytes(col)
            del col, dictionary
        assert repeats > 0, "no id was reused; the test exercised nothing"

    def test_the_memo_does_not_keep_dictionaries_alive(self, dev):
        gc.collect()
        before = len(gtable._MEAN_ENTRY_LENGTH)
        cols = [strings(dev, [0], dictionary_of("k" * n)) for n in range(1, 30)]
        assert [c.traffic_bytes for c in cols] == [n + 4 for n in range(1, 30)]
        assert len(gtable._MEAN_ENTRY_LENGTH) == before + 29
        del cols
        gc.collect()
        assert len(gtable._MEAN_ENTRY_LENGTH) == before

    def test_the_dictionary_is_measured_once(self, dev):
        class Measured(str):
            reads = 0

            def __str__(self):
                Measured.reads += 1
                return str.__str__(self)

        dictionary = np.empty(3, dtype=object)
        dictionary[:] = [Measured("ab"), Measured("c"), Measured("def")]
        col = strings(dev, [0, 1, 2, 2], dictionary)
        other = strings(dev, [1], dictionary)
        assert [col.traffic_bytes, other.traffic_bytes, col.traffic_bytes] == [24, 6, 24]
        assert Measured.reads == 3

    def test_every_tpch_column_charges_the_seed_integer(self, dev):
        from repro.tpch import generate_tpch

        for name, table in generate_tpch(0.01, seed=1).items():
            device_table = GTable.from_host(dev, table)
            for field, col in zip(device_table.schema, device_table.columns):
                assert col.traffic_bytes == seed_traffic_bytes(col), (name, field.name)
            assert device_table.traffic_bytes == sum(
                seed_traffic_bytes(c) for c in device_table.columns
            )
