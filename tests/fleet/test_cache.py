"""Satellite: result/plan cache unit tests plus the hypothesis property —
random put/get/invalidate sequences never exceed the byte budget, never
serve stale results after invalidation, and account every lookup as
exactly one hit or miss."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import Schema, Table
from repro.fleet import PlanCache, ResultCache, TableVersions


def small_table(rows: int, tag: int = 0) -> Table:
    schema = Schema([("k", "int64"), ("v", "float64")])
    return Table.from_pydict(
        {"k": list(range(tag, tag + rows)), "v": [float(i) for i in range(rows)]},
        schema,
    )


class TestResultCacheBasics:
    def test_hit_after_insert(self):
        cache = ResultCache(1 << 20)
        t = small_table(4)
        assert cache.insert("k1", t, {"lineitem": 0})
        assert cache.lookup("k1", {"lineitem": 0}) is t
        assert cache.hits == 1 and cache.misses == 0

    def test_version_move_is_a_miss_and_drops_the_entry(self):
        cache = ResultCache(1 << 20)
        cache.insert("k1", small_table(4), {"lineitem": 0})
        assert cache.lookup("k1", {"lineitem": 1}) is None
        assert cache.invalidations == 1
        assert len(cache) == 0
        assert cache.bytes == 0

    def test_lru_eviction_under_byte_budget(self):
        t = small_table(8)
        cache = ResultCache(int(t.nbytes * 2.5))
        cache.insert("a", t, {})
        cache.insert("b", small_table(8, tag=100), {})
        cache.lookup("a", {})  # a is now most-recent
        cache.insert("c", small_table(8, tag=200), {})  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1
        assert cache.bytes <= cache.max_bytes

    def test_oversized_result_is_not_cached(self):
        t = small_table(64)
        cache = ResultCache(int(t.nbytes) - 1)
        assert not cache.insert("big", t, {})
        assert cache.oversized_rejects == 1
        assert len(cache) == 0

    def test_invalidate_table_drops_only_dependents(self):
        cache = ResultCache(1 << 20)
        cache.insert("a", small_table(2), {"lineitem": 0})
        cache.insert("b", small_table(2), {"orders": 0})
        assert cache.invalidate_table("lineitem") == 1
        assert "a" not in cache and "b" in cache

    def test_metrics_flow_through_obs(self):
        cache = ResultCache(1 << 20)
        cache.insert("a", small_table(2), {})
        cache.lookup("a", {})
        cache.lookup("zzz", {})
        m = cache.metrics
        assert m.counter_value("fleet.result_cache.hit") == 1
        assert m.counter_value("fleet.result_cache.miss") == 1
        assert m.gauge_value("fleet.result_cache.bytes") == cache.bytes


class TestPlanCacheBasics:
    def test_lru_entry_budget(self):
        cache = PlanCache(2)
        cache.insert("a", 1)
        cache.insert("b", 2)
        assert cache.lookup("a") == 1  # refresh a
        cache.insert("c", 3)  # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("c") == 3
        assert cache.evictions == 1

    def test_hit_miss_accounting(self):
        cache = PlanCache(4)
        cache.lookup("a")
        cache.insert("a", 1)
        cache.lookup("a")
        assert cache.hits == 1 and cache.misses == 1


class TestTableVersions:
    def test_bump_is_monotone(self):
        v = TableVersions()
        assert v.get("t") == 0
        assert v.bump("t") == 1
        assert v.bump("t") == 2
        assert v.snapshot(["t", "u"]) == {"t": 2, "u": 0}


# -- the hypothesis property -------------------------------------------------

_KEYS = ("alpha", "beta", "gamma", "delta")
_TABLES = ("lineitem", "orders")

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.sampled_from(_KEYS),
            st.integers(min_value=1, max_value=24),  # row count -> size
            st.sets(st.sampled_from(_TABLES)),
        ),
        st.tuples(st.just("get"), st.sampled_from(_KEYS)),
        st.tuples(st.just("invalidate"), st.sampled_from(_TABLES)),
    ),
    min_size=1,
    max_size=60,
)


class TestResultCacheProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops, budget_rows=st.integers(min_value=1, max_value=48))
    # An oversized replacement is rejected but still supersedes the entry
    # it would have replaced.
    @example(
        ops=[("put", "alpha", 1, set()), ("put", "alpha", 2, set()), ("get", "alpha")],
        budget_rows=1,
    )
    def test_budget_staleness_and_accounting(self, ops, budget_rows):
        unit = small_table(1).nbytes
        cache = ResultCache(int(unit * budget_rows))
        versions = TableVersions()
        # Model of what *must not* be served: (key, deps-at-insert).
        model: dict = {}
        lookups = 0
        for op in ops:
            if op[0] == "put":
                _, key, rows, deps = op
                table = small_table(rows)
                snap = versions.snapshot(deps)
                if cache.insert(key, table, snap):
                    model[key] = (table, dict(snap))
                else:
                    model.pop(key, None)
            elif op[0] == "get":
                _, key = op
                lookups += 1
                snap = versions.snapshot(_TABLES)
                got = cache.lookup(key, snap)
                if got is not None:
                    table, deps = model[key]
                    # Never a stale serve: every dep version must match.
                    assert all(snap[t] == v for t, v in deps.items())
                    assert got is table
            else:
                _, name = op
                versions.bump(name)
                cache.invalidate_table(name)
            # Invariant: resident bytes never exceed the budget, and the
            # byte gauge agrees with the entries.
            assert 0 <= cache.bytes <= cache.max_bytes
        assert cache.hits + cache.misses == lookups
