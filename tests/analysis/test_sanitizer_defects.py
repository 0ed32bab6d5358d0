"""The seeded defect corpus: every SA rule has an intentionally buggy
micro-harness that must make it fire *exactly once* with the right site
attribution, plus a clean twin the sanitizer must accept.

Each buggy harness breaks one invariant the way a real regression would
(a dropped ``wait_copies``, a skipped ``_sync_in_flight``, a leaked
owner, a double ``free``...) while everything around it stays correct —
so a rule that over-fires or mis-attributes fails here before it ever
poisons the clean-suite gate.
"""

import json
import time
from types import SimpleNamespace

import pytest

from repro.analysis.sanitizers import (
    SA_RULES,
    DeterminismChecker,
    Sanitizer,
)
from repro.columnar import Schema, Table
from repro.core import BufferManager
from repro.gpu import Device, GH200
from repro.kernels import GTable


def make_table(rows: int = 400) -> Table:
    schema = Schema([("a", "int64"), ("b", "float64")])
    return Table.from_pydict(
        {"a": list(range(rows)), "b": [float(i) for i in range(rows)]}, schema
    )


def sanitized_bm(overlap: bool = True, memory_limit_gb: float = 0.001):
    device = Device(GH200, memory_limit_gb=memory_limit_gb)
    bm = BufferManager(device, overlap=overlap)
    sanitizer = Sanitizer()
    sanitizer.attach(device, bm)
    return device, bm, sanitizer


# rule -> list of harnesses; each returns (findings, expected_site_fragment)
DEFECTS: dict = {}
CLEAN: dict = {}


def defect(rule):
    def deco(fn):
        DEFECTS.setdefault(rule, []).append(fn)
        return fn

    return deco


def clean(rule):
    def deco(fn):
        CLEAN.setdefault(rule, []).append(fn)
        return fn

    return deco


# -- SA01: read before the copy landed ----------------------------------------


@defect("SA01")
def missing_wait_before_prefetch_read():
    device, bm, sanitizer = sanitized_bm()
    t = make_table()
    assert bm.prefetch("t", t)
    device.wait_copies = lambda until=None: 0.0  # the seeded defect
    bm.get_table("t", t)
    return sanitizer.findings, "buffer_manager.get_table:t"


@clean("SA01")
def prefetch_read_with_real_wait():
    device, bm, sanitizer = sanitized_bm()
    t = make_table()
    assert bm.prefetch("t", t)
    bm.get_table("t", t)
    bm.complete_loads()
    return sanitizer


# -- SA02: release of an in-flight entry --------------------------------------


@defect("SA02")
def drop_without_stream_join():
    device, bm, sanitizer = sanitized_bm()
    t = make_table()
    assert bm.prefetch("t", t)
    bm._sync_in_flight = lambda name: None  # the seeded defect
    bm.drop("t")
    return sanitizer.findings, "buffer_manager._drop:t"


@clean("SA02")
def drop_with_stream_join():
    device, bm, sanitizer = sanitized_bm()
    t = make_table()
    assert bm.prefetch("t", t)
    bm.drop("t")
    return sanitizer


# -- SA03: pipeline ends with overlapped loads still landing -------------------


@defect("SA03")
def pipeline_end_without_complete_loads():
    device, bm, sanitizer = sanitized_bm()
    bm.get_table("t", make_table())  # cold overlapped load -> consumed event
    # The seeded defect: the executor "forgets" complete_loads before the
    # sink finalises.
    sanitizer.on_pipeline_end("pipeline-p9")
    return sanitizer.findings, "pipeline-p9"


@clean("SA03")
def pipeline_end_after_complete_loads():
    device, bm, sanitizer = sanitized_bm()
    bm.get_table("t", make_table())
    bm.complete_loads()
    sanitizer.on_pipeline_end("pipeline-p9")
    return sanitizer


# -- SA04: fragment read before its demotion write joined ----------------------


@defect("SA04")
def fragment_get_before_spill_write_lands():
    device, bm, sanitizer = sanitized_bm()
    g = GTable.from_host(device, make_table())
    bm.put_fragment("q1/p0", g)
    bm.spill_fragment("q1/p0")
    device.wait_copies = lambda until=None: 0.0  # the seeded defect
    bm.get_fragment("q1/p0")
    bm.clear_fragments()
    return sanitizer.findings, "buffer_manager.get_fragment:q1/p0"


@clean("SA04")
def fragment_get_after_spill_write_lands():
    device, bm, sanitizer = sanitized_bm()
    g = GTable.from_host(device, make_table())
    bm.put_fragment("q1/p0", g)
    bm.spill_fragment("q1/p0")
    bm.get_fragment("q1/p0")
    bm.clear_fragments()
    return sanitizer


# -- SA05: leaks past end-of-scope cleanup ------------------------------------


@defect("SA05")
def fragments_survive_query_end():
    device, bm, sanitizer = sanitized_bm()
    bm.put_fragment("q1/p0", GTable.from_host(device, make_table()))
    # The seeded defect: the engine skips clear_fragments/drop_namespace.
    sanitizer.check_query_end(
        SimpleNamespace(buffer_manager=bm), "engine.execute:q1"
    )
    return sanitizer.findings, "engine.execute:q1"


@defect("SA05")
def owner_leaks_pool_bytes_past_end_run():
    device, bm, sanitizer = sanitized_bm()
    pool = device.processing_pool
    pool.reset()  # sync the shadow ledger to a whole generation
    pool.allocate(4096, owner="q7")  # the seeded defect: never released
    sanitizer.check_end_run(
        SimpleNamespace(device=device, buffer_manager=bm),
        "scheduler.end_run:fair",
    )
    return sanitizer.findings, "scheduler.end_run:fair"


@defect("SA05")
def fragment_survives_namespace_drop():
    device, bm, sanitizer = sanitized_bm()
    bm.put_fragment("q1/p0", GTable.from_host(device, make_table()))
    # The seeded defect: a namespace drop that did not actually retire
    # the fragment (simulated by invoking the check directly).
    sanitizer.check_namespace_dropped(bm, "q1")
    return sanitizer.findings, "buffer_manager.drop_namespace:q1"


@clean("SA05")
def namespace_drop_retires_everything():
    device, bm, sanitizer = sanitized_bm()
    bm.put_fragment("q1/p0", GTable.from_host(device, make_table()))
    bm.drop_namespace("q1")  # runs check_namespace_dropped itself
    sanitizer.check_query_end(
        SimpleNamespace(buffer_manager=bm), "engine.execute:q1"
    )
    return sanitizer


@clean("SA05")
def released_owner_is_clean_at_end_run():
    device, bm, sanitizer = sanitized_bm()
    pool = device.processing_pool
    pool.reset()
    pool.allocate(4096, owner="q7")
    pool.release_owner("q7")
    sanitizer.check_end_run(
        SimpleNamespace(device=device, buffer_manager=bm),
        "scheduler.end_run:fair",
    )
    return sanitizer


# -- SA06: double free ---------------------------------------------------------


@defect("SA06")
def double_free_same_allocation():
    device, bm, sanitizer = sanitized_bm()
    pool = device.processing_pool
    pool.reset()
    alloc = pool.allocate(1024, owner="q1")
    pool.free(alloc)
    with pytest.raises(ValueError):
        pool.free(alloc)  # the seeded defect
    return sanitizer.findings, "pool.free:gen"


@clean("SA06")
def paired_alloc_free():
    device, bm, sanitizer = sanitized_bm()
    pool = device.processing_pool
    pool.reset()
    alloc = pool.allocate(1024, owner="q1")
    pool.free(alloc)
    return sanitizer


@clean("SA06")
def free_after_release_owner_is_stream_ordered():
    # release_owner reaps the owner's allocations wholesale; a later free
    # of the stale handle is the documented legitimate no-op, not SA06.
    device, bm, sanitizer = sanitized_bm()
    pool = device.processing_pool
    pool.reset()
    alloc = pool.allocate(1024, owner="q1")
    pool.release_owner("q1")
    pool.free(alloc)
    return sanitizer


# -- SA07: consumer handed freed device buffers --------------------------------


@defect("SA07")
def hot_hit_through_freed_buffers():
    device, bm, sanitizer = sanitized_bm(overlap=False)
    t = make_table()
    g = bm.get_table("t", t)
    g.columns[0].buffer.free()  # the seeded defect
    bm.get_table("t", t)
    return sanitizer.findings, "buffer_manager.get_table:t"


@clean("SA07")
def hot_hit_through_live_buffers():
    device, bm, sanitizer = sanitized_bm(overlap=False)
    t = make_table()
    bm.get_table("t", t)
    bm.get_table("t", t)
    return sanitizer


# -- SA08: counter drift vs the shadow ledger / recomputed truth ---------------


@defect("SA08")
def pinned_counter_drifts():
    device, bm, sanitizer = sanitized_bm(overlap=False)
    bm.get_table("t", make_table())
    bm.pinned_host_bytes += 128  # the seeded defect
    sanitizer.check_drift(bm, "drift-check")
    return sanitizer.findings, "drift-check"


@clean("SA08")
def untampered_counters_have_no_drift():
    device, bm, sanitizer = sanitized_bm(overlap=False)
    bm.get_table("t", make_table())
    sanitizer.check_drift(bm, "drift-check")
    return sanitizer


class _Report:
    """Minimal stand-in exposing what DeterminismChecker compares."""

    def __init__(self, digest: str):
        self.schedule_digest = digest

    def to_json(self) -> str:
        return self.schedule_digest


# -- SA09: runtime wall-clock / global-RNG touch -------------------------------


@defect("SA09")
def schedule_consults_wall_clock():
    checker = DeterminismChecker(permutations=1)

    def run(transform):
        time.time()  # the seeded defect
        return _Report("d0")

    checker.check(run, site="defect:sa09")
    return checker.findings, "defect:sa09"


@clean("SA09")
def seeded_generators_do_not_trip_the_trap():
    import random

    checker = DeterminismChecker(permutations=1)

    def run(transform):
        rng = random.Random(7)  # the sanctioned idiom
        return _Report(str(rng.random()))

    checker.check(run, site="clean:sa09")
    return checker


# -- SA10: tie-break-sensitive / stateful schedules ----------------------------


class _HeadOfListPolicy:
    """Position-dependent: picks whatever happens to be first."""

    name = "head"

    def select(self, candidates, now):
        return candidates[0]


class _LowestSeqPolicy:
    """State-keyed: picks by job state with a total-order tie-break."""

    name = "lowest-seq"

    def select(self, candidates, now):
        return min(candidates, key=lambda j: j.seq)


def _policy_digest(policy) -> str:
    jobs = [SimpleNamespace(seq=i) for i in range(6)]
    order = [policy.select(list(jobs), 0.0).seq for _ in range(4)]
    return json.dumps(order)


@defect("SA10")
def position_dependent_policy_diverges_under_permutation():
    checker = DeterminismChecker(permutations=2, trap=False)

    def run(transform):
        policy = _HeadOfListPolicy()  # the seeded defect
        if transform is not None:
            policy = transform(policy)
        return _Report(_policy_digest(policy))

    checker.check(run, site="defect:sa10")
    return checker.findings, "defect:sa10"


@defect("SA10")
def hidden_state_survives_across_runs():
    checker = DeterminismChecker(permutations=1, trap=False)
    calls = {"n": 0}

    def run(transform):
        calls["n"] += 1  # the seeded defect: state leaks between runs
        return _Report(str(calls["n"]))

    findings = checker.check(run, site="defect:sa10-repeat")
    repeat = [f for f in findings if "repeat run diverged" in f.message]
    return repeat, "defect:sa10-repeat"


@clean("SA10")
def state_keyed_policy_is_permutation_invariant():
    checker = DeterminismChecker(permutations=3, trap=False)

    def run(transform):
        policy = _LowestSeqPolicy()
        if transform is not None:
            policy = transform(policy)
        return _Report(_policy_digest(policy))

    checker.check(run, site="clean:sa10")
    return checker


# -- the corpus gate -----------------------------------------------------------

_DEFECT_CASES = [
    (rule, fn) for rule, fns in sorted(DEFECTS.items()) for fn in fns
]
_CLEAN_CASES = [(rule, fn) for rule, fns in sorted(CLEAN.items()) for fn in fns]


class TestDefectCorpus:
    @pytest.mark.parametrize(
        "rule,harness",
        _DEFECT_CASES,
        ids=[f"{rule}-{fn.__name__}" for rule, fn in _DEFECT_CASES],
    )
    def test_defect_fires_exactly_once(self, rule, harness):
        findings, site_fragment = harness()
        assert [f.rule for f in findings] == [rule], [str(f) for f in findings]
        assert site_fragment in findings[0].site

    @pytest.mark.parametrize(
        "rule,harness",
        _CLEAN_CASES,
        ids=[f"{rule}-{fn.__name__}" for rule, fn in _CLEAN_CASES],
    )
    def test_clean_twin_reports_nothing(self, rule, harness):
        sanitizer = harness()
        assert sanitizer.ok, [str(f) for f in sanitizer.findings]

    def test_every_sa_rule_has_defect_and_clean_fixture(self):
        assert set(DEFECTS) == set(SA_RULES)
        assert set(CLEAN) == set(SA_RULES)
