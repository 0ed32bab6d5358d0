"""Normalized plan digests: the cache keys of the fleet's two tiers.

A submitted plan is hashed into two keys over a *normalized* copy of its
``to_dict()`` tree:

* **result key** — output aliases are canonicalized away (``SELECT a AS
  x`` and ``SELECT a AS y`` read the same cached bytes; the hit is
  relabeled to the requesting plan's names), but literal values stay in
  the key: ``price > 5`` and ``price > 9`` are different results.
* **plan key** — additionally masks literal *values* (their dtypes
  remain), so every parameterization of one query shape shares a plan-
  cache entry.  This is sound here because the estimator prices plans
  with constant selectivities — an estimate is a function of the shape,
  never of the literals.

Whitespace, alias spelling, and equivalent constructions that the SQL
front-end already canonicalizes into the same logical plan therefore
collapse into the same keys for free: the digest sees plans, not text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from ..plan import Plan
from ..sched import base_tables

__all__ = ["PlanDigest", "plan_digest"]

# Masked alias placeholder: output names are positional in the key.
_ALIAS = "_"


def _normalize(node, mask_literals: bool):
    """Recursively copy a ``plan.to_dict()`` subtree with aliases (and,
    for the plan key, literal values) masked out."""
    if isinstance(node, list):
        return [_normalize(item, mask_literals) for item in node]
    if not isinstance(node, dict):
        return node
    out = {}
    rel = node.get("rel")
    kind = node.get("kind")
    for key, value in node.items():
        if rel == "project" and key == "names" and isinstance(value, list):
            # Output aliases are presentation, not identity: keep only
            # their count so positional structure still matters.
            out[key] = [_ALIAS] * len(value)
            continue
        if kind == "literal" and key == "value" and mask_literals:
            out[key] = None  # dtype stays; the value is the parameter
            continue
        if rel == "aggregate" and key == "measures" and isinstance(value, list):
            out[key] = [
                {
                    **_normalize(m, mask_literals),
                    **({"name": _ALIAS} if isinstance(m, dict) and "name" in m else {}),
                }
                for m in value
            ]
            continue
        out[key] = _normalize(value, mask_literals)
    return out


def _digest(tree: dict) -> str:
    payload = json.dumps(tree, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


@dataclass(frozen=True)
class PlanDigest:
    """Both cache keys plus the base tables the plan depends on."""

    plan_key: str  # literals masked: one entry per query *shape*
    result_key: str  # literals kept: one entry per exact result
    tables: tuple[str, ...]  # scan dependencies, for version invalidation


def plan_digest(plan: Plan) -> PlanDigest:
    """Compute the two-tier cache keys for ``plan``."""
    tree = plan.to_dict()  # serialised once; _normalize copies, never mutates
    return PlanDigest(
        plan_key=_digest(_normalize(tree, mask_literals=True)),
        result_key=_digest(_normalize(tree, mask_literals=False)),
        tables=tuple(base_tables(plan)),
    )
