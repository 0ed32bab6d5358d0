"""The table of traced entry points, and the code that rebinds them.

Each row names one public callable of ``repro`` and the per-layer metric
its self time feeds.  ``install`` replaces the callable with a timing
wrapper — for a function, in every loaded ``repro.*`` module namespace
that holds it (operators import kernels by name, so rebinding only the
defining module would miss them); for a method, on its class.

A row whose target has been renamed or removed is skipped with a warning
and its metric is listed in ``Instrumentation.missing``; the benchmark
then reports that layer metric as not measured.  No end-to-end metric
depends on this table.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import warnings
from dataclasses import dataclass, field

from .spans import SpanRecorder

# Kernel families by the submodule of ``repro.kernels`` that defines them.
_KERNEL_FAMILY = {
    "keys": "kernels.keys_ms",
    "groupby": "kernels.groupby_ms",
    "join": "kernels.join_ms",
    "asof": "kernels.join_ms",
    "sort": "kernels.sort_ms",
    "copying": "kernels.copying_ms",
    "compression": "kernels.copying_ms",
    "compute": "kernels.compute_ms",
    "reduce": "kernels.reduce_ms",
}

_BUFFER_MANAGER_METHODS = (
    "get_table",
    "prefetch",
    "complete_loads",
    "put_fragment",
    "get_fragment",
    "spill_fragment",
    "handle_pressure",
)

# (module, dotted attribute, metric, wrap the *returned* callable instead)
ENTRY_POINTS: list[tuple[str, str, str, bool]] = [
    ("repro.hosts.miniduck", "MiniDuck.plan", "hosts.glue_ms", False),
    ("repro.hosts.miniduck", "MiniDuck.execute", "hosts.glue_ms", False),
    ("repro.hosts.miniduck", "MiniDuck.execute_plan", "hosts.glue_ms", False),
    ("repro.hosts.sirius_extension", "SiriusExtension.execute_substrait", "hosts.glue_ms", False),
    ("repro.sql.parser", "parse_sql", "sql.parse_ms", False),
    ("repro.sql.planner", "SqlPlanner.plan_sql", "sql.plan_ms", False),
    ("repro.sql.optimizer", "optimize_plan", "sql.optimize_ms", False),
    ("repro.plan.plan", "Plan.to_json", "plan.to_json_ms", False),
    ("repro.plan.plan", "Plan.from_json", "plan.from_json_ms", False),
    ("repro.plan.plan", "Plan.validate", "plan.validate_ms", False),
    ("repro.core.planner", "compile_plan", "core.compile_plan_ms", False),
    ("repro.core.sirius", "SiriusEngine.execute", "core.execute_self_ms", False),
    ("repro.core.sirius", "SiriusEngine.start_query", "core.execute_self_ms", False),
    ("repro.core.executor", "QueryRun.step", "core.execute_self_ms", False),
    ("repro.core.expr_eval", "evaluate", "core.expr_ms", False),
    ("repro.core.expr_eval", "evaluate_to_column", "core.expr_ms", False),
    ("repro.core.expr_eval", "evaluate_predicate", "core.expr_ms", False),
    ("repro.core.expr_compile", "compile_predicate", "core.expr_ms", True),
    ("repro.core.expr_compile", "compile_projection", "core.expr_ms", True),
    *(
        ("repro.core.buffer_manager", f"BufferManager.{m}", "core.buffer_manager_ms", False)
        for m in _BUFFER_MANAGER_METHODS
    ),
    ("repro.kernels.gtable", "GTable.to_host", "kernels.to_host_ms", False),
    ("repro.sched.estimator", "estimate_plan", "sched.estimate_ms", False),
    ("repro.sched.scheduler", "ServingScheduler.step_event", "sched.loop_self_ms", False),
    ("repro.fleet.digest", "plan_digest", "fleet.digest_ms", False),
    ("repro.fleet.scheduler", "FleetScheduler.submit", "fleet.submit_self_ms", False),
    ("repro.fleet.scheduler", "FleetScheduler.run", "fleet.run_self_ms", False),
]


def traced_metrics() -> set[str]:
    """Every per-layer metric that is a span self time."""
    return {row[2] for row in ENTRY_POINTS} | set(_KERNEL_FAMILY.values())


def kernel_entry_points() -> list[tuple[str, str, str, bool]]:
    """Every function exported by ``repro.kernels``, filed under the
    family of its defining submodule."""
    kernels = importlib.import_module("repro.kernels")
    rows = []
    for name in kernels.__all__:
        obj = getattr(kernels, name, None)
        if not inspect.isfunction(obj):
            continue  # classes and constants are not timed
        family = _KERNEL_FAMILY.get(obj.__module__.rsplit(".", 1)[-1], "kernels.compute_ms")
        rows.append((obj.__module__, name, family, False))
    return rows


@dataclass
class Instrumentation:
    recorder: SpanRecorder
    missing: set[str] = field(default_factory=set)  # metrics with no live target
    _undo: list = field(default_factory=list)

    def install(self, entry_points=None) -> "Instrumentation":
        try:
            rows = list(entry_points) if entry_points is not None else (
                ENTRY_POINTS + kernel_entry_points()
            )
        except (ImportError, AttributeError) as exc:
            warnings.warn(f"perfbench: kernel table unavailable ({exc}); kernels untraced")
            self.missing.update(_KERNEL_FAMILY.values())
            rows = list(ENTRY_POINTS)
        for module_name, path, metric, wrap_result in rows:
            try:
                self._install_one(module_name, path, metric, wrap_result)
            except (ImportError, AttributeError) as exc:
                warnings.warn(f"perfbench: cannot trace {module_name}.{path} ({exc})")
                self.missing.add(metric)
        return self

    def _install_one(self, module_name: str, path: str, metric: str, wrap_result: bool) -> None:
        module = importlib.import_module(module_name)
        make = self.recorder.wrap_result if wrap_result else self.recorder.wrap
        name = f"{module_name.removeprefix('repro.')}.{path}"
        if "." in path:
            class_name, attr = path.split(".", 1)
            cls = getattr(module, class_name)
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(raw.__func__, name, metric))
            else:
                wrapped = make(raw, name, metric)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, raw))
            return
        original = getattr(module, path)
        wrapped = make(original, name, metric)
        root = module_name.split(".", 1)[0]
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == root or loaded_name.startswith(root + ".")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._undo.append((loaded, key, original))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
