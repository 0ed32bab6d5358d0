"""The glue that makes Sirius a drop-in accelerator for host databases.

A :class:`SiriusExtension` satisfies MiniDuck's (and MiniDoris') extension
protocol: it receives optimised plans as Substrait JSON, deserialises
them, executes on the GPU engine, and returns host tables.  The host
keeps its parser, optimizer, and user interface; only execution moves to
the GPU — the paper's drop-in acceleration story.

The extension also wires the graceful fallback: when the GPU engine hits
an unsupported feature or runs out of device memory, the query re-executes
on the host's own CPU engine.
"""

from __future__ import annotations

from typing import Mapping

from ..columnar import Table
from ..core import SiriusEngine
from ..plan import Plan
from .cpu_engine import CpuEngine

__all__ = ["SiriusExtension"]


class SiriusExtension:
    """Adapter: host extension protocol -> SiriusEngine."""

    name = "sirius-gpu"

    def __init__(self, engine: SiriusEngine, fallback_engine: CpuEngine | None = None):
        self.engine = engine
        if fallback_engine is not None:
            engine.set_host_executor(fallback_engine.execute)
        self.plans_received = 0

    def execute_substrait(self, plan_json: str, catalog: Mapping[str, Table]) -> Table:
        """Deserialize and execute one Substrait-style plan."""
        plan = Plan.from_json(plan_json)
        self.plans_received += 1
        return self.engine.execute(plan, catalog)

    @property
    def last_profile(self):
        return self.engine.last_profile

    def stats(self) -> dict:
        report = self.engine.stats()
        report["plans_received"] = self.plans_received
        return report
