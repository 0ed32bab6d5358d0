"""Smoke test for ``tools/launch_census.py``: the census sees every launch
the engine charges, so its total is the profiles' ``kernel_count``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location(
        "launch_census", ROOT / "tools" / "launch_census.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_total_is_the_profile_kernel_count():
    census, kernel_count = _tool().census_round("tpch_hot", seed=1, sf=0.001, labels={"Q3"})
    assert census.launches == kernel_count > 0
    # Unfused, each gather map pays the uint64 <-> int32 round trip.
    sites = {(kclass, site) for kclass, site, _op in census.rows}
    assert ("stream", "kernel_indices_to_engine") in sites
    assert ("stream", "engine_indices_to_kernel") in sites
    assert census.report().splitlines()[-1].split()[0] == str(kernel_count)


def test_fused_census_converts_each_map_once():
    census, kernel_count = _tool().census_round(
        "tpch_hot", seed=1, fusion=True, sf=0.001, labels={"Q3"}
    )
    assert census.launches == kernel_count > 0
    rows = {key[:2]: n for key, (n, _s) in census.rows.items()}
    assert rows[("stream", "kernel_indices_to_engine")] > 0
    assert ("stream", "engine_indices_to_kernel") not in rows
