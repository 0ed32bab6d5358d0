"""Table 1 — CPU vs GPU instance comparison.

Regenerates the paper's hardware-economics table from the spec catalog and
checks its headline claims (bandwidth gap, cost parity of the GH200).
"""

from repro.bench import table1
from repro.gpu.specs import C6A_METAL, GH200_INSTANCE


def test_table1_regenerates(results_dir):
    text = table1()
    (results_dir / "table1.txt").write_text(text + "\n")
    assert "c6a.metal" in text and "GH200" in text


def test_table1_headline_claims():
    # GPU memory bandwidth ~7.5x the CPU's at lower hourly cost.
    assert GH200_INSTANCE.memory_bw_gbps / C6A_METAL.memory_bw_gbps == 7.5
    assert GH200_INSTANCE.cost_per_hour < C6A_METAL.cost_per_hour
    # But far less memory capacity - the paper's central tension.
    assert GH200_INSTANCE.memory_gb < C6A_METAL.memory_gb
