"""The per-dictionary memo (``gtable._per_dictionary``) and what it serves.

``GColumn.traffic_bytes`` measures a dictionary's mean entry length once
per dictionary object and charges the seed formula's integer; ``like``,
``substring`` and ``hash_partition_ids`` compute their per-entry values
once per dictionary object too.  The memo holds its dictionaries weakly
and never serves a dead dictionary's value to a new one that reuses its
id."""

import gc

import numpy as np
import pytest

from repro.columnar import Schema, Table
from repro.hosts import MiniDuck
from repro.kernels import gtable, hash_partition_ids, like, substring
from repro.kernels.gtable import GTable

from . import reference
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


class Counted(str):
    """A dictionary entry that counts how often it is read as a string."""

    reads = 0

    def __str__(self):
        Counted.reads += 1
        return str.__str__(self)


@pytest.fixture
def counted_dictionary():
    Counted.reads = 0
    dictionary = np.empty(3, dtype=object)
    dictionary[:] = [Counted("ab"), Counted("c"), Counted("def")]
    return dictionary


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
        # Allocate-compute-drop many dictionaries of differing contents:
        # CPython reuses the freed addresses, so ids repeat.  Every memoised
        # value must belong to the dictionary it is served for.
        seen_ids = set()
        repeats = 0
        for i in range(200):
            entry = "x" * (i % 17 + 1)
            tail = "y" if i % 2 else "z"
            dictionary = dictionary_of(entry + tail, tail + entry, "q")
            repeats += id(dictionary) in seen_ids
            seen_ids.add(id(dictionary))
            col = strings(dev, [0, 1, 2, 0], dictionary)
            assert col.traffic_bytes == seed_traffic_bytes(col)
            assert like(col, "%y").data.tolist() == [tail == "y", False, False, tail == "y"]
            decoded = [str(dictionary[code]) for code in (0, 1, 2, 0)]
            assert substring(col, 2, 2).to_host(False).to_pylist() == [s[1:3] for s in decoded]
            got = hash_partition_ids([col], 7)
            assert got.tobytes() == reference.hash_partition_ids([col], 7).tobytes()
            del col, dictionary
        assert repeats > 0, "no id was reused; the test exercised nothing"

    def test_the_memo_does_not_keep_dictionaries_alive(self, dev):
        gc.collect()
        before = len(gtable._DICTIONARY_MEMO)
        cols = [strings(dev, [0], dictionary_of("k" * n)) for n in range(1, 30)]
        assert [c.traffic_bytes for c in cols] == [n + 4 for n in range(1, 30)]
        for c in cols:
            like(c, "k%")
            substring(c, 1, 2)
            hash_partition_ids([c], 4)
        assert len(gtable._DICTIONARY_MEMO) == before + 29
        del cols, c
        gc.collect()
        assert len(gtable._DICTIONARY_MEMO) == before

    def test_the_dictionary_is_measured_once(self, dev, counted_dictionary):
        col = strings(dev, [0, 1, 2, 2], counted_dictionary)
        other = strings(dev, [1], counted_dictionary)
        assert [col.traffic_bytes, other.traffic_bytes, col.traffic_bytes] == [24, 6, 24]
        assert Counted.reads == 3

    def test_every_tpch_column_charges_the_seed_integer(self, dev):
        from repro.tpch import generate_tpch

        for name, table in generate_tpch(0.01, seed=1).items():
            device_table = GTable.from_host(dev, table)
            for field, col in zip(device_table.schema, device_table.columns):
                assert col.traffic_bytes == seed_traffic_bytes(col), (name, field.name)
            assert device_table.traffic_bytes == sum(
                seed_traffic_bytes(c) for c in device_table.columns
            )


class TestDictionaryMemo:
    def test_each_dictionary_and_key_is_computed_once(self, dev, counted_dictionary):
        col = strings(dev, [0, 1, 2, 2, -1], counted_dictionary)
        other = strings(dev, [2, 0], counted_dictionary)
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

    def test_memo_values_are_not_mutated_by_their_callers(self, dev):
        dictionary = dictionary_of("apple", "banana", "cherry")
        col = strings(dev, [0, 1, 2], dictionary)
        assert like(col, "%an%").data.tolist() == [False, True, False]
        assert like(col, "%an%", negate=True).data.tolist() == [True, False, True]
        assert like(col, "%an%").data.tolist() == [False, True, False]
        first = substring(col, 2, 3)
        second = substring(strings(dev, [2, 2, -1], dictionary, [1, 0, 1]), 2, 3)
        assert first.dictionary is second.dictionary  # one remap per dictionary
        assert first.to_host(False).to_pylist() == ["ppl", "ana", "her"]
        assert second.to_host(False).to_pylist() == ["her", None, None]


LIKE_CASES = [
    # (pattern, escape, negate)
    ("%a%", None, False),
    ("%a%", None, True),
    ("a%", None, False),
    ("_b%", None, False),
    ("%!%%", "!", False),
    ("%!%%", "!", True),
    ("%!_%", "!", False),
    ("%\\%%", "\\", False),
    ("%", None, True),
]


class TestLikeAgainstTheCpuEngine:
    """One dictionary object, many predicates: each (pattern, escape,
    negate) gives the CPU engine's rows, whatever the memo already holds
    for that dictionary."""

    VALUES = ["abc", "a%c", "b_d", None, "xa_", "%%", "", "ba", "a\\b", "b%a", None, "abc"]

    def test_same_dictionary_other_pattern_escape_or_negation(self, dev):
        table = Table.from_pydict({"s": self.VALUES}, Schema([("s", "string")]))
        cpu = MiniDuck()
        cpu.load_tables({"t": table})
        col = GTable.from_host(dev, table).column("s")
        for pattern, escape, negate in LIKE_CASES * 2:
            quoted = pattern.replace("'", "''")
            sql = f"select s {'not ' if negate else ''}like '{quoted}'"
            if escape is not None:
                sql += f" escape '{escape}'"
            want = cpu.execute(sql + " as m from t").table.to_pydict()["m"]
            got = like(col, pattern, negate=negate, escape=escape)
            got_rows = [bool(v) if ok else None for v, ok in zip(got.data, got.valid_mask())]
            assert got_rows == want, (pattern, escape, negate)
