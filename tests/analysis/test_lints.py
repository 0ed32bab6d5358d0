"""Fixtures for the invariant lints: every RR rule has a bad snippet it
must flag and a good twin it must accept — plus the authoritative check
that the real ``src/repro`` tree is clean.
"""

from pathlib import Path

import pytest

from repro.analysis.lints import LINT_RULES, default_rules, lint_paths, lint_tree

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

# (rule, relpath, bad source, good source)
CASES = [
    (
        "RR01",
        "core/demo.py",
        "import time\n\ndef f():\n    return time.time()\n",
        "def f(clock):\n    return clock.now\n",
    ),
    (
        "RR01",
        "core/demo.py",
        "from datetime import datetime\n\ndef f():\n    return datetime.now()\n",
        "import datetime\n\ndef f(s):\n    return datetime.date.fromisoformat(s)\n",
    ),
    (
        "RR01",
        "core/demo.py",
        "import time as t\n\ndef f():\n    t.sleep(1)\n",
        "def f(clock):\n    clock.advance(1.0)\n",
    ),
    (
        "RR02",
        "faults/demo.py",
        "import random\n\ndef f():\n    return random.random()\n",
        "import random\n\ndef f(seed):\n    return random.Random(seed).random()\n",
    ),
    (
        "RR02",
        "faults/demo.py",
        "import random\n\ndef f():\n    return random.Random()\n",
        "import random\n\ndef f(seed):\n    return random.Random(seed)\n",
    ),
    (
        "RR02",
        "sched/demo.py",
        "import numpy as np\n\ndef f():\n    return np.random.rand(4)\n",
        "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed).random(4)\n",
    ),
    (
        "RR02",
        "sched/demo.py",
        "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n",
        "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed)\n",
    ),
    (
        "RR03",
        "gpu/demo.py",
        "def f(pool, n):\n    return pool.allocate(n, owner='q1')\n",
        "def f(pool, n):\n    a = pool.allocate(n, owner='q1')\n"
        "    pool.release_owner('q1')\n    return a\n",
    ),
    (
        "RR03",
        "sched/demo.py",
        "def f(pool, job):\n    pool.reserve(job.owner_key, 100)\n",
        "def f(pool, job):\n    pool.reserve(job.owner_key, 100)\n"
        "    pool.unreserve(job.owner_key)\n",
    ),
    (
        "RR04",
        "core/operators/demo.py",
        "class CountingOperator(StreamingOperator):\n"
        "    def __init__(self):\n        self.rows = 0\n"
        "    def process(self, batch, state):\n        self.rows += 1\n",
        "class CountingOperator(StreamingOperator):\n"
        "    def __init__(self):\n        self.rows = 0\n"
        "    def process(self, batch, state):\n"
        "        state['rows'] = state.get('rows', 0) + 1\n",
    ),
    (
        "RR05",
        "core/demo.py",
        "def f(tracer):\n    tracer.record_span('x', 'op', start=0, end=1)\n",
        "def f(tracer):\n    if tracer.enabled:\n"
        "        tracer.record_span('x', 'op', start=0, end=1)\n",
    ),
    (
        "RR05",
        "core/demo.py",
        "def f(tracer=Tracer()):\n    pass\n",
        "def f(tracer=NULL_TRACER):\n    pass\n",
    ),
    (
        "RR06",
        "core/demo.py",
        "def f(clock, s):\n    clock.advance(s, category='transfer')\n",
        "def f(device, n):\n    device.htod(n)\n",
    ),
    (
        "RR06",
        "core/demo.py",
        "def f(clock, t):\n    clock.advance_to(t, 'transfer-wait')\n",
        "def f(device, t):\n    device.wait_copies(t)\n",
    ),
    (
        "RR07",
        "core/demo.py",
        "def f(device, n):\n"
        "    return device.processing_pool.allocate(n, owner='q1')\n",
        "def f(device, arr):\n    return device.new_buffer(arr)\n",
    ),
    (
        "RR07",
        "kernels/demo.py",
        "def f(device, n):\n    device.caching_region.allocate(n)\n",
        "def f(device, arr):\n"
        "    return device.new_buffer(arr, region='caching')\n",
    ),
    (
        "RR08",
        "core/demo.py",
        "def f(bm, t):\n"
        "    g = bm.get_table('t', t)\n"
        "    t.columns['x'] = 1\n"
        "    return g\n",
        "def f(bm, t):\n"
        "    t2 = t.with_column('x', 1)\n"
        "    return bm.get_table('t', t2)\n",
    ),
    (
        "RR08",
        "core/demo.py",
        "def f(bm, frag):\n"
        "    bm.put_fragment('ns/p0', frag)\n"
        "    frag.columns.append(extra)\n",
        "def f(bm, frag):\n"
        "    frag = frag.concat(extra)\n"
        "    bm.put_fragment('ns/p0', frag)\n",
    ),
    (
        "RR09",
        "core/operators/fused.py",
        "def f(ctx, arr):\n    return ctx.device.new_buffer(arr)\n",
        "def f(ctx, table, mask):\n    return mask_table(table, mask)\n",
    ),
    (
        "RR09",
        "core/expr_compile.py",
        "def f(dev, dtype, data):\n"
        "    return GColumn.from_array(dev, dtype, data)\n",
        "def f(dev, n, dtype):\n"
        "    return fill_constant(dev, n, 1, dtype=dtype)\n",
    ),
    (
        "RR08",
        "sched/demo.py",
        "def f(bm, t):\n"
        "    bm.prefetch('t', t)\n"
        "    t.stats.update(hot=True)\n",
        "def f(bm, t):\n"
        "    t = annotate(t, hot=True)\n"
        "    bm.prefetch('t', t)\n",
    ),
]


def run(rule, relpath, source):
    findings = lint_tree(source, default_rules(), relpath=relpath)
    return {f.rule for f in findings}


class TestLintFixtures:
    @pytest.mark.parametrize(
        "rule,relpath,bad,good",
        CASES,
        ids=[f"{r}-{i}" for i, (r, _, _, _) in enumerate(CASES)],
    )
    def test_bad_snippet_is_flagged(self, rule, relpath, bad, good):
        assert rule in run(rule, relpath, bad)

    @pytest.mark.parametrize(
        "rule,relpath,bad,good",
        CASES,
        ids=[f"{r}-{i}" for i, (r, _, _, _) in enumerate(CASES)],
    )
    def test_good_twin_is_clean(self, rule, relpath, bad, good):
        assert rule not in run(rule, relpath, good)

    def test_every_rule_has_fixtures(self):
        assert {rule for rule, _, _, _ in CASES} == set(LINT_RULES)

    def test_suppression_comment(self):
        source = "import time\n\ndef f():\n    return time.time()  # lint: allow=RR01\n"
        assert "RR01" not in run("RR01", "core/demo.py", source)

    def test_operator_rule_scoped_to_operators(self):
        # The same stateful class outside core/operators is out of scope.
        source = (
            "class CountingOperator(StreamingOperator):\n"
            "    def process(self, batch, state):\n        self.rows = 1\n"
        )
        assert "RR04" in run("RR04", "core/operators/x.py", source)
        assert "RR04" not in run("RR04", "sched/x.py", source)

    def test_fused_buffer_rule_scoped_to_fused_path(self):
        # Minting buffers is fine elsewhere (RR07 governs the general case);
        # RR09 only polices the fused execution path.
        source = "def f(ctx, arr):\n    return ctx.device.new_buffer(arr)\n"
        assert "RR09" in run("RR09", "core/operators/fused.py", source)
        assert "RR09" not in run("RR09", "core/operators/streaming.py", source)

    def test_published_table_rebind_releases_tracking(self):
        # Rebinding the published name points it at a fresh object; writes
        # through the new binding are fine.
        source = (
            "def f(bm, t):\n"
            "    bm.get_table('t', t)\n"
            "    t = make_table()\n"
            "    t.columns['x'] = 1\n"
        )
        assert "RR08" not in run("RR08", "core/demo.py", source)

    def test_published_table_mutator_method_flagged_once(self):
        source = (
            "def f(bm, t):\n"
            "    bm.prefetch('t', t)\n"
            "    t.columns.append(c)\n"
        )
        findings = lint_tree(source, default_rules(), relpath="core/demo.py")
        assert [f.rule for f in findings] == ["RR08"]

    def test_published_table_rule_skips_store_implementation(self):
        # The buffer manager owns its entries — in-place moves are its job.
        source = (
            "def f(self, name, t):\n"
            "    self.prefetch(name, t)\n"
            "    t.columns['x'] = 1\n"
        )
        assert "RR08" not in run("RR08", "core/buffer_manager.py", source)

    def test_tracer_dataclass_field_default_none_is_fine(self):
        source = (
            "from dataclasses import dataclass, field\n\n"
            "@dataclass\nclass Job:\n"
            "    tracer: object = field(default=None, repr=False)\n"
        )
        assert "RR05" not in run("RR05", "sched/x.py", source)
        bad = (
            "from dataclasses import dataclass, field\n\n"
            "@dataclass\nclass Job:\n"
            "    tracer: object = field(default_factory=Tracer, repr=False)\n"
        )
        assert "RR05" in run("RR05", "sched/x.py", bad)


class TestSrcTreeIsClean:
    def test_src_repro_passes_all_lints(self):
        findings = lint_paths(SRC_ROOT, default_rules())
        assert findings == [], [str(f) for f in findings]

    def test_cli_lint_exit_code(self):
        from repro.analysis.__main__ import main

        assert main(["lint", "--root", str(SRC_ROOT)]) == 0

    def test_cli_rules_listing(self, capsys):
        from repro.analysis.__main__ import main

        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule in list(LINT_RULES) + ["PA01", "PA10", "FC02", "FC03", "SA01", "SA10"]:
            assert rule in out
