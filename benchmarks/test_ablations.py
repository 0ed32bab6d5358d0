"""Ablations over the design choices DESIGN.md calls out."""

import json

import pytest

from repro.bench import (
    AblationHarness,
    batch_execution,
    hot_vs_cold,
    impl_swap,
    interconnect_sweep,
)


@pytest.fixture(scope="module")
def harness(bench_sf):
    # Ablations run at half the figure-4 scale: they sweep engines.
    return AblationHarness(sf=max(bench_sf / 2, 0.02))


def test_caching_region_pays_off(harness, results_dir):
    """Hot runs must be much faster than cold runs over PCIe (§3.2.3 +
    hot-run measurement methodology)."""
    result = hot_vs_cold(harness)
    (results_dir / "ablation_hot_cold.txt").write_text(repr(result) + "\n")
    assert result["speedup"] > 2.0


def test_nvlink_shrinks_the_cold_run_penalty(harness):
    """§2.1: NVLink-C2C makes beyond-device-memory access cheap - the
    cold-run penalty over NVLink must be far smaller than over PCIe4."""
    from repro.gpu.specs import GH200

    pcie = hot_vs_cold(harness)
    nvlink = hot_vs_cold(harness, spec=GH200)
    assert nvlink["speedup"] < pcie["speedup"]


def test_kernel_impl_swap_preserves_speed_class(harness, results_dir):
    """§3.2.2: operator implementations are swappable.  The custom hash
    group-by avoids libcudf's sort path for string keys."""
    from repro.bench import impl_swap_string_groupby

    result = impl_swap_string_groupby(harness)
    (results_dir / "ablation_impl_swap.txt").write_text(repr(result) + "\n")
    assert result["custom"] < result["libcudf"]  # hash beats sort on strings
    assert result["custom"] > 0


def test_impl_swap_on_numeric_join_query(harness):
    """On a join-heavy numeric query the sort-merge 'custom' join pays the
    log-factor passes: libcudf's hash join should win or tie."""
    result = impl_swap(harness, query=5, op_kinds=("join",))
    assert result["libcudf"] <= result["custom"] * 1.5


def test_interconnect_sweep(harness, results_dir):
    """Cold-run time must improve monotonically PCIe4 -> PCIe5 -> NVLink."""
    text = interconnect_sweep(harness)
    (results_dir / "ablation_interconnect.txt").write_text(text + "\n")
    lines = [line for line in text.splitlines() if "ms" in line]
    times = [float(line.split("|")[-1].strip().split()[0]) for line in lines]
    assert times == sorted(times, reverse=True)


def test_batch_execution_matches_whole_table(harness, results_dir):
    """§3.4 out-of-core batching: same result, bounded extra overhead."""
    result = batch_execution(harness, query=1, batch_rows=20_000)
    (results_dir / "ablation_batch.txt").write_text(repr(result) + "\n")
    assert result["batched_rows"] == 4  # Q1's four groups
    # Batching adds per-batch launches but must stay in the same class.
    assert result["batched_s"] < result["whole_s"] * 10


def test_multi_gpu_scales_compute(results_dir):
    """§3.4 multi-GPU per node: 8 ranks beat 4 ranks on compute time."""
    from repro.bench import multi_gpu_ablation

    result = multi_gpu_ablation()
    (results_dir / "ablation_multigpu.txt").write_text(repr(result) + "\n")
    assert result["gpus2_compute_s"] < result["gpus1_compute_s"]


def test_overlap_hides_cold_load_and_exchange_time(harness, results_dir):
    """Copy/compute overlap (async copy streams + prefetch): cold runs of
    Q1/Q3/Q6 must get strictly faster with overlap on, the distributed Q3
    total must improve, and its Table-2 exchange fraction must not grow."""
    from repro.bench import overlap_ablation

    result = overlap_ablation(harness)
    (results_dir / "ablation_overlap.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    for q in (1, 3, 6):
        assert result[f"q{q}_overlap_s"] < result[f"q{q}_baseline_s"]
        assert result[f"q{q}_hidden_s"] > 0.0
    assert result["dist_overlap_total_s"] < result["dist_baseline_total_s"]
    assert result["dist_overlap_exchange_frac"] <= result["dist_baseline_exchange_frac"]


def test_oocore_survives_shrinking_pools_without_fallback(results_dir):
    """Out-of-core partitioned execution: an over-HBM Q9 must complete on
    the GPU tier (no fallback, no rejection) at every pool size, with the
    spill machinery engaged at the small ones, and the slowdown curve must
    be monotone and cliff-free — graceful degradation, not collapse."""
    from repro.bench import oocore_ablation

    result = oocore_ablation()
    (results_dir / "ablation_oocore.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    sweep = result["sweep"]
    assert len(sweep) >= 3  # acceptance wants a curve, not a point
    for entry in sweep:
        # With the flag on the *first attempt* finishes on the GPU tier.
        assert entry["ooc_tier"] is None
        assert entry["ooc_rows_match"]
    # The spill machinery actually engaged at the tight pool sizes.
    assert any(entry["spilled_bytes"] > 0 for entry in sweep)
    # Without the flag, the tightest pool needs the degradation ladder.
    assert sweep[-1]["off_tier"] is not None
    # Monotone (shrinking memory never speeds the query up) ...
    times = [entry["ooc_s"] for entry in sweep]
    for faster, slower in zip(times, times[1:]):
        assert slower >= faster * 0.999
    # ... and cliff-free: no step blows up, and the whole sweep stays in
    # one order of magnitude of the roomiest out-of-core run.
    for faster, slower in zip(times, times[1:]):
        assert slower < faster * 3.0
    assert times[-1] < times[0] * 10.0
    # Free when it fits: the spool holds a sink's input in core until it
    # outgrows a leaf, so asking for out-of-core costs at most 5 % at the
    # roomiest pool and wherever the flag-off engine needs the ladder.
    assert sweep[0]["ooc_s"] <= sweep[0]["off_s"] * 1.05
    for entry in sweep:
        if entry["off_tier"] is not None:
            assert entry["ooc_s"] <= entry["off_s"] * 1.05


def test_fusion_shrinks_streaming_queries(harness, results_dir):
    """Pipeline fusion + compiled expressions: the streaming-bound Q1 and
    Q6 must get strictly faster hot with fusion on, with the saved
    intermediate-materialisation bytes recorded; Q3 (join-bound control)
    must never get slower."""
    from repro.bench import fusion_ablation

    result = fusion_ablation(harness)
    (results_dir / "ablation_fusion.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    for q in (1, 6):
        entry = result["per_query"][f"q{q}"]
        assert entry["fused_hot_s"] < entry["baseline_hot_s"]
        assert entry["fused_cold_s"] < entry["baseline_cold_s"]
        assert entry["fused_kernels"] < entry["baseline_kernels"]
        assert entry["saved_bytes"] > 0
        assert entry["fused_regions"] > 0
    q3 = result["per_query"]["q3"]
    assert q3["fused_hot_s"] <= q3["baseline_hot_s"]


def test_predicate_transfer_shrinks_the_q3_shuffle(results_dir):
    """§3.4 predicate transfer: exchange volume and time must both drop
    substantially on the shuffle-bound query, with identical results
    (correctness is asserted by tests/distributed)."""
    from repro.bench import predicate_transfer_ablation

    result = predicate_transfer_ablation()
    (results_dir / "ablation_predicate_transfer.txt").write_text(repr(result) + "\n")
    assert result["pt_bytes"] < 0.5 * result["baseline_bytes"]
    assert result["pt_exchange_s"] < result["baseline_exchange_s"]
