#!/usr/bin/env python3
"""Launch census: kernel launches and simulated milliseconds per kernel
class, launch site and issuing operator, for one round of a perfbench
closed-loop workload.  Run from the repository root::

    python tools/launch_census.py tpch_pressure
    python tools/launch_census.py tpch_hot --fusion --seed 2
    python tools/launch_census.py tpch_hot --sf 0.001 --labels Q3

The round is the benchmark's own: the workload's statements in its frozen
order, on the engine ``perfbench.workloads.build_engine`` configures for it
(a fresh engine for ``tpch_pressure``, a warm one otherwise; ``--fusion``
turns fusion on for a ``hot`` engine, the ``tpch_hot`` fusion A/B variant),
each statement through ``MiniDuck`` and ``SiriusExtension``.  A sim-clock
claim names the term that moved; this prints the terms.

Each row is one ``(kernel class, site, operator)`` key: the class the
device charged (``fused`` for a fused region), the function that issued
the launch or opened the region (``kernel_indices_to_engine``,
``_gather``, ``_probe_against`` ...), and the class of the physical operator on
the stack at the time (``-`` when none is).  The launch total equals the
summed ``QueryProfile.kernel_count`` of the round's statements.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Frames of the charging machinery itself; the issuing site is the first
# frame outside them.
_MACHINERY = (str(Path("gpu", "device.py")), "contextlib.py", "launch_census.py")


def _issuer(frame) -> tuple[str, str]:
    """(site, operator) of a launch whose charging frame is ``frame``."""
    from repro.core.operators.base import PhysicalOperator

    site = None
    while frame is not None:
        if site is None and not frame.f_code.co_filename.endswith(_MACHINERY):
            site = frame.f_code.co_name
        owner = frame.f_locals.get("self")
        if site is not None and isinstance(owner, PhysicalOperator):
            return site, type(owner).__name__
        frame = frame.f_back
    return site or "-", "-"


class Census:
    """Tally every launch ``device`` charges from now on."""

    def __init__(self, device):
        self.rows: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0])
        charge = device._charge_launch

        def counted(kclass, cost):
            out = charge(kclass, cost)
            row = self.rows[(kclass, *_issuer(sys._getframe(1)))]
            row[0] += 1
            row[1] += cost.total
            return out

        device._charge_launch = counted

    @property
    def launches(self) -> int:
        return sum(n for n, _ in self.rows.values())

    def report(self) -> str:
        lines = [f"{'launches':>9} {'sim_ms':>9}  kernel class / site / operator"]
        for key, (n, seconds) in sorted(self.rows.items(), key=lambda kv: (-kv[1][0], kv[0])):
            lines.append(f"{n:>9} {seconds * 1e3:>9.3f}  {' / '.join(key)}")
        total_s = sum(s for _, s in self.rows.values())
        lines.append(f"{self.launches:>9} {total_s * 1e3:>9.3f}  total")
        return "\n".join(lines)


def census_round(workload: str, seed: int = 1, fusion: bool = False, sf=None, labels=None):
    """Run one round of ``workload`` under a census; returns the
    :class:`Census` and the summed ``kernel_count`` of the statements'
    profiles.  ``sf`` overrides the workload's scale factor and ``labels``
    keeps only the named statements."""
    from perfbench.workloads import FROZEN_STREAM, WORKLOADS, build_engine
    from repro.hosts import CpuEngine, MiniDuck, SiriusExtension
    from repro.tpch import generate_tpch

    loop = WORKLOADS[workload]()
    data = generate_tpch(sf=loop.sf if sf is None else sf, seed=seed)
    ops = loop.load_ops()
    random.Random(FROZEN_STREAM).shuffle(ops)
    if labels:
        ops = [(label, sql) for label, sql in ops if label in labels]
    engine = build_engine(loop.mode, **({"fusion": True} if fusion else {}))
    if loop.mode == "hot":
        engine.warm_cache(data)
    db = MiniDuck()
    db.load_tables(data)
    db.install_extension(SiriusExtension(engine, fallback_engine=CpuEngine()))
    census = Census(engine.device)
    kernel_count = 0
    for _label, sql in ops:
        result = db.execute(sql)
        if result.profile is not None:
            kernel_count += result.profile.kernel_count
    return census, kernel_count


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=["tpch_hot", "battery_tiny", "tpch_pressure"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fusion", action="store_true", help="fusion on a hot engine")
    parser.add_argument("--sf", type=float, default=None, help="override the scale factor")
    parser.add_argument("--labels", default="", help="comma-separated statement labels")
    args = parser.parse_args(argv)
    if args.fusion and args.workload == "tpch_pressure":
        parser.error("tpch_pressure always runs fused")
    labels = {s for s in args.labels.split(",") if s}
    census, kernel_count = census_round(args.workload, args.seed, args.fusion, args.sf, labels)
    print(census.report())
    if census.launches != kernel_count:
        print(f"census {census.launches} != profiles' kernel_count {kernel_count}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
