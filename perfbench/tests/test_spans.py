import json
import types

from perfbench.entrypoints import Instrumentation
from perfbench.spans import NO_PARENT, SpanRecorder, call_counts, self_times, write_chrome_trace


def test_self_time_is_duration_minus_direct_children():
    # name, metric, start, end, parent, request
    spans = [
        ["execute", "core", 0.0, 10.0, NO_PARENT, "r"],  # self 10 - (4 + 2) = 4
        ["join", "kernels", 1.0, 5.0, 0, "r"],  # self 4 - 1 = 3
        ["keys", "kernels", 2.0, 3.0, 1, "r"],  # self 1 (grandchild of execute)
        ["to_host", "kernels", 7.0, 9.0, 0, "r"],  # self 2
        ["parse", "sql", 20.0, 21.5, NO_PARENT, "r2"],
    ]
    totals = self_times(spans)
    assert totals == {"core": 4.0, "kernels": 6.0, "sql": 1.5}
    # Self times partition the root spans' durations.
    assert sum(totals.values()) == 10.0 + 1.5
    assert call_counts(spans)["join"] == 1


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_recorder_nests_spans_and_survives_exceptions():
    recorder = SpanRecorder(clock=FakeClock())

    def inner():
        raise KeyError("boom")

    traced_inner = recorder.wrap(inner, "inner", "b")

    def outer():
        try:
            traced_inner()
        except KeyError:
            pass
        return 7

    recorder.request = "w/r1/op"
    assert recorder.wrap(outer, "outer", "a")() == 7
    outer_span, inner_span = recorder.spans
    assert inner_span[4] == 0 and outer_span[4] == NO_PARENT
    assert (outer_span[2], inner_span[2], inner_span[3], outer_span[3]) == (1.0, 2.0, 3.0, 4.0)
    assert outer_span[5] == "w/r1/op"
    assert self_times(recorder.spans) == {"a": 2.0, "b": 1.0}


def test_chrome_trace_is_loadable_trace_event_json(tmp_path):
    spans = [["a", "core.x_ms", 1.0, 1.5, NO_PARENT, "w/r1/q"], ["b", "kernels.y_ms", 1.1, 1.2, 0, "w/r1/q"]]
    path = tmp_path / "t.json"
    write_chrome_trace(spans, path, {"workload": "w"})
    doc = json.loads(path.read_text())
    first, second = doc["traceEvents"]
    assert first["ph"] == "X" and first["cat"] == "core" and first["ts"] == 0.0
    assert first["dur"] == 500000.0
    assert second["args"] == {"id": 1, "parent": 0, "request": "w/r1/q"}


def _fake_package(monkeypatch):
    """A two-module package where one module imports the other's function
    by name, like the operators import kernels."""
    import sys

    lib = types.ModuleType("fakepkg.lib")
    exec("def kernel(x):\n    return x + 1\n\nclass Engine:\n    def run(self, x):\n        return kernel(x) * 2\n    @classmethod\n    def make(cls):\n        return cls()\n", lib.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.kernel = lib.kernel  # "from .lib import kernel"
    user.call = lambda x: user.kernel(x)
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.lib", lib), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return lib, user


def test_install_rebinds_every_namespace_and_restore_undoes_it(monkeypatch):
    lib, user = _fake_package(monkeypatch)
    original = lib.kernel
    recorder = SpanRecorder(clock=FakeClock())
    inst = Instrumentation(recorder).install(
        [
            ("fakepkg.lib", "kernel", "kernels.x_ms", False),
            ("fakepkg.lib", "Engine.run", "core.y_ms", False),
            ("fakepkg.lib", "Engine.make", "core.y_ms", False),
        ]
    )
    assert user.kernel is lib.kernel and lib.kernel is not original
    assert user.call(1) == 2
    assert lib.Engine.make().run(1) == 4  # classmethod still binds the class
    names = [s[0] for s in recorder.spans]
    assert names == ["fakepkg.lib.kernel", "fakepkg.lib.Engine.make", "fakepkg.lib.Engine.run", "fakepkg.lib.kernel"]
    assert recorder.spans[3][4] == 2  # the kernel call is a child of Engine.run
    assert inst.missing == set()
    inst.restore()
    assert user.kernel is original and lib.kernel is original


def test_a_renamed_entry_point_is_reported_missing_not_fatal(monkeypatch):
    _fake_package(monkeypatch)
    recorder = SpanRecorder()
    import pytest

    with pytest.warns(UserWarning, match="cannot trace"):
        inst = Instrumentation(recorder).install(
            [
                ("fakepkg.lib", "renamed_kernel", "kernels.x_ms", False),
                ("fakepkg.gone", "f", "sql.z_ms", False),
                ("fakepkg.lib", "Engine.removed", "core.y_ms", False),
            ]
        )
    assert inst.missing == {"kernels.x_ms", "sql.z_ms", "core.y_ms"}
    inst.restore()
