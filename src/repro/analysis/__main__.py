"""CLI for the static-analysis layer.

    python -m repro.analysis lint [--root PATH] [--json]
    python -m repro.analysis plan FILE.json [--json]
    python -m repro.analysis rules

``lint`` exits non-zero when any invariant is violated (the CI gate);
``plan`` analyzes a serialized plan JSON file; ``rules`` prints every
catalog (PA, FC, RR, SA).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import FUSION_RULES, PLAN_RULES, analyze_plan
from .lints import LINT_RULES, default_rules, lint_paths


def _default_root() -> Path:
    # src/repro/analysis/__main__.py -> src/repro
    return Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.analysis")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_lint = sub.add_parser("lint", help="run the codebase invariant lints")
    p_lint.add_argument("--root", type=Path, default=None, help="tree to lint")
    p_lint.add_argument("--json", action="store_true", help="machine output")

    p_plan = sub.add_parser("plan", help="analyze a serialized plan JSON file")
    p_plan.add_argument("file", type=Path)
    p_plan.add_argument("--json", action="store_true", help="full report JSON")

    sub.add_parser("rules", help="print the rule catalog")

    args = parser.parse_args(argv)

    if args.cmd == "lint":
        root = args.root if args.root is not None else _default_root()
        findings = lint_paths(root, default_rules())
        if args.json:
            print(json.dumps([f.to_dict() for f in findings], indent=2))
        else:
            for f in findings:
                print(f)
            print(f"{len(findings)} finding(s) over {root}")
        return 1 if findings else 0

    if args.cmd == "plan":
        from ..plan import Plan, PlanValidationError

        try:
            plan = Plan.from_json(args.file.read_text())
        except PlanValidationError as exc:
            print(f"invalid plan payload: {exc}", file=sys.stderr)
            return 2
        report = analyze_plan(plan)
        if args.json:
            print(report.to_json(indent=2))
        else:
            for f in report.findings:
                print(f)
            print(report.summary())
        return 0 if report.ok else 1

    # rules
    print("plan analyzer (PA):")
    for rule_id, desc in sorted(PLAN_RULES.items()):
        print(f"  {rule_id}  {desc}")
    print("fused-plan verifier (FC):")
    for rule_id, desc in sorted(FUSION_RULES.items()):
        print(f"  {rule_id}  {desc}")
    print("invariant lints (RR):")
    for rule_id, cls in sorted(LINT_RULES.items()):
        print(f"  {rule_id}  {cls.description}")
    from .sanitizers import SA_RULES

    print("runtime sanitizers (SA):")
    for rule_id, desc in sorted(SA_RULES.items()):
        print(f"  {rule_id}  {desc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
