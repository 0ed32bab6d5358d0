#!/usr/bin/env python3
"""Compare two sets of runs written by ``run.py --out``.

    python3 perfbench/compare.py A.json B.json

Per workload and end-to-end metric: both medians, the ratio B/A (A is the
base), the wider of the two sets' run-to-run spreads, and a verdict against
the metric's bound in BENCHMARK.json:

``ok``          B is not worse than A by more than the bound;
``worse``       it is, and the spread is within the bound;
``unresolved``  the spread is wider than the bound, so neither can be said.

Metrics on the simulated clock also say whether B repeats A exactly, run
by run.  Per-layer metrics have no bound; they are listed with their ratio
and, for host times (which are raw seconds), the ratio in calibration units.
Exit status is 1 if any metric is ``worse`` or any operation failed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # so that the script form finds the package

from perfbench.stats import iqr_share, median, metric_clock  # noqa: E402


def verdict(a: float, b: float, spread: float, bound: float, better: str) -> str:
    """Judge B against base A.  ``bound`` is the share of A by which the
    metric may get worse."""
    if spread > bound:
        return "unresolved"
    loss = (b - a) / a if better == "lower" else (a - b) / a
    return "worse" if loss > bound else "ok"


def _repeats(xs: list[float], ys: list[float]) -> bool:
    return len(xs) == len(ys) and all(
        math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-15) for x, y in zip(xs, ys)
    )


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    lines, bad = [], False
    if a.get("seeds") != b.get("seeds"):
        lines.append(f"note: seeds differ ({a.get('seeds')} vs {b.get('seeds')})")
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            lines.append(f"## {workload}: missing from {'A' if wa is None else 'B'}")
            bad = True
            continue
        lines.append(
            f"## {workload}   failed/attempted  A {wa['failed']}/{wa['attempted']}"
            f"  B {wb['failed']}/{wb['attempted']}"
        )
        bad = bad or wa["failed"] > 0 or wb["failed"] > 0
        header = f"{'metric':<36}{'A':>14}{'B':>14}  {'B/A':>7}  {'spread':>7}  {'bound':>6}  verdict"
        lines.append(header)
        for meta in spec["end_to_end"]:
            name = meta["name"]
            xs, ys = wa["end_to_end"].get(name), wb["end_to_end"].get(name)
            if not xs or not ys:
                lines.append(f"{name:<36}{'missing':>14}")
                bad = True
                continue
            ma, mb = median(xs), median(ys)
            spread = max(iqr_share(xs), iqr_share(ys))
            v = verdict(ma, mb, spread, meta["bound"], meta["better"])
            bad = bad or v == "worse"
            exact = ""
            if name.startswith("sim_"):
                exact = "  repeats exactly" if _repeats(xs, ys) else "  DIFFERS run by run"
            lines.append(
                f"{name:<36}{ma:>14.4f}{mb:>14.4f}  {mb / ma:>7.4f}  {spread:>7.4f}"
                f"  {meta['bound']:>6.3f}  {v}{exact}   [{meta['unit']}, n={len(xs)}/{len(ys)}]"
            )
        layer_a, layer_b = wa.get("per_layer", {}), wb.get("per_layer", {})
        if layer_a and layer_b:
            # Host times in the per-layer list are raw; the two traced runs'
            # reference-loop readings say how much of a ratio is machine speed.
            cal_a = median(layer_a.get("bench.calibration_s", [0.0]))
            cal_b = median(layer_b.get("bench.calibration_s", [0.0]))
            speed = cal_b / cal_a if cal_a and cal_b else 1.0
            lines.append(
                f"{'per-layer metric':<36}{'A':>14}{'B':>14}  {'B/A':>7}  {'in cu':>7}"
                f"   (reference loop B/A = {speed:.4f})"
            )
            for meta in spec["per_layer"]:
                name, unit = meta["name"], meta["unit"]
                if name not in layer_a or name not in layer_b:
                    continue
                ma, mb = median(layer_a[name]), median(layer_b[name])
                if ma == 0 and mb == 0:
                    continue  # not produced by this workload
                ratio = in_cu = f"{'-':>7}"
                if ma:
                    ratio = f"{mb / ma:>7.4f}"
                    if unit in ("s", "ms", "us") and metric_clock(name, unit) == "host":
                        in_cu = f"{mb / ma / speed:>7.4f}"
                lines.append(f"{name:<36}{ma:>14.4f}{mb:>14.4f}  {ratio}  {in_cu}   [{unit}]")
        lines.append("")
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines, bad = compare(a, b, spec)
    print(f"A = {argv[0]}\nB = {argv[1]}\n")
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
