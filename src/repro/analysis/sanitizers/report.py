"""Structured output of a sanitized run.

A :class:`SanitizerReport` aggregates the findings of one or more
sanitized runs together with the shadow-state statistics that prove the
checks actually covered something (events tracked, allocations mirrored,
checks executed).  Findings reuse the :class:`~repro.analysis.report
.Finding` vocabulary so the SA catalog surfaces through the exact same
machinery as the PA/RR catalogs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..report import Finding
from .rules import SA_RULES

__all__ = ["SanitizerReport"]


@dataclass
class SanitizerReport:
    """Findings plus coverage counters for one sanitized suite/run."""

    suite: str = "adhoc"
    findings: list[Finding] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, finding: Finding) -> None:
        if finding.rule not in SA_RULES:
            raise ValueError(f"unknown sanitizer rule {finding.rule!r}")
        self.findings.append(finding)

    def merge(self, other: "SanitizerReport") -> None:
        """Fold another report (e.g. one replica's) into this one."""
        self.findings.extend(other.findings)
        for key, value in other.counters.items():
            if isinstance(value, (int, float)):
                self.counters[key] = self.counters.get(key, 0) + value
            else:
                self.counters[key] = value

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "rules": dict(SA_RULES),
            "counters": dict(self.counters),
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.findings)} finding(s)"
        checks = self.counters.get("checks_run", 0)
        events = self.counters.get("stream_events", 0)
        allocs = self.counters.get("allocations_tracked", 0)
        return (
            f"sanitizer[{self.suite}]: {status} "
            f"({checks} checks, {events} stream events, {allocs} allocations)"
        )
