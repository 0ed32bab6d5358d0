"""Figure 1 — hardware trends (GPU memory, interconnect, storage, network).

Regenerates the four trend panels and checks the growth claims §2.1 makes:
memory capacity roughly doubling per generation, PCIe doubling every ~2
years, NVLink-C2C's step change, and declining H100 pricing.
"""

from repro.bench import figure1_all, figure1_series
from repro.gpu.specs import TRENDS, trend_cagr


def test_figure1_regenerates(results_dir):
    text = figure1_all()
    (results_dir / "figure1.txt").write_text(text + "\n")
    for panel in ("gpu_memory_gb", "interconnect_gbps", "storage_gbps", "network_gbps"):
        assert panel in text


def test_gpu_memory_doubles_per_generation():
    # Volta 32 -> Ampere 80 -> Hopper-class 141/192 -> Blackwell 288 (§2.1).
    values = {label.split(" ")[0]: v for _, label, v in TRENDS["gpu_memory_gb"]}
    assert values["V100"] == 32.0
    assert values["A100"] == 80.0
    assert values["B300"] == 288.0


def test_pcie_doubles_every_generation():
    pcie = [v for _, label, v in TRENDS["interconnect_gbps"] if label.startswith("PCIe")]
    for slower, faster in zip(pcie, pcie[1:]):
        assert faster == 2 * slower


def test_nvlink_c2c_is_step_change():
    nvlink = next(v for _, label, v in TRENDS["interconnect_gbps"] if "NVLink" in label)
    best_pcie = max(v for _, label, v in TRENDS["interconnect_gbps"] if "PCIe" in label)
    assert nvlink > 5 * best_pcie


def test_growth_rates():
    assert trend_cagr("storage_gbps") > 0.3  # >30%/yr storage bandwidth
    assert trend_cagr("network_gbps") > 0.2
    assert trend_cagr("h100_price_per_hour") < -0.3  # prices falling fast


def test_series_renderer():
    text = figure1_series("gpu_memory_gb")
    assert "CAGR" in text
