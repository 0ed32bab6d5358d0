"""The top-level plan container: versioning, JSON round-trip, validation.

A :class:`Plan` is what a host database hands Sirius — the equivalent of a
serialized Substrait plan.  ``validate`` performs the structural checks a
consumer needs before executing third-party plans: ordinal bounds, boolean
filter conditions, and join-key type compatibility.
The checks themselves live once, in :mod:`repro.plan.check`; ``validate``
is that pass stopped at its first error.
"""

from __future__ import annotations

import json

from ..columnar import Schema
from .check import SEVERITY_ERROR, PlanChecker
from .relations import Relation, rel_from_dict

__all__ = ["Plan", "PlanValidationError", "walk_relations"]

PLAN_VERSION = "repro-substrait-1"


class PlanValidationError(ValueError):
    """A structural problem in a plan tree."""


class Plan:
    """A versioned, serialisable query plan."""

    def __init__(self, root: Relation, version: str = PLAN_VERSION):
        self.root = root
        self.version = version
        self._checked_root: Relation | None = None

    def output_schema(self) -> Schema:
        return self.root.output_schema()

    def to_dict(self) -> dict:
        return {"version": self.version, "root": self.root.to_dict()}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "Plan":
        """Deserialize a plan payload.

        Third-party payloads are untrusted: malformed shapes surface as
        :class:`PlanValidationError` (never ``KeyError``), so consumers
        can gate on one exception type.
        """
        if not isinstance(data, dict):
            raise PlanValidationError(
                f"plan payload must be an object, got {type(data).__name__}"
            )
        if "version" not in data:
            raise PlanValidationError("plan payload is missing its 'version' field")
        if data["version"] != PLAN_VERSION:
            raise PlanValidationError(
                f"unsupported plan version {data['version']!r} "
                f"(expected {PLAN_VERSION!r})"
            )
        if "root" not in data:
            raise PlanValidationError("plan payload is missing its 'root' relation")
        try:
            root = rel_from_dict(data["root"])
        except PlanValidationError:
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise PlanValidationError(f"malformed plan payload: {exc}") from exc
        return cls(root, data["version"])

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanValidationError(f"plan payload is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def validate(self) -> None:
        """Raise :class:`PlanValidationError` for the first structural
        error.  Success is remembered for the root that was checked —
        relation trees are never mutated after construction — so the
        boundaries a plan crosses do not each re-walk it; failure is not
        remembered, and a different ``root`` is checked afresh."""
        if self._checked_root is not self.root:
            _VALIDATOR.visit(self.root, "root")
            self._checked_root = self.root

    def explain(self) -> str:
        """Human-readable indented plan tree."""
        lines: list[str] = []

        def visit(rel: Relation, depth: int) -> None:
            lines.append("  " * depth + repr(rel))
            for child in rel.inputs:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Plan({self.root!r})"


def walk_relations(rel: Relation):
    """Yield every relation in the tree, parents before children."""
    yield rel
    for child in rel.inputs:
        yield from walk_relations(child)


def _raise_on_error(rule: str, severity: str, message: str, site: str) -> None:
    if severity == SEVERITY_ERROR:
        raise PlanValidationError(f"{site}: {message}")


_VALIDATOR = PlanChecker(_raise_on_error)
