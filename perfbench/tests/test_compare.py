from perfbench.compare import compare, verdict


def test_verdict_against_the_bound():
    # lower is better, bound 10 %
    assert verdict(100.0, 109.0, spread=0.02, bound=0.10, better="lower") == "ok"
    assert verdict(100.0, 111.0, spread=0.02, bound=0.10, better="lower") == "worse"
    assert verdict(100.0, 60.0, spread=0.02, bound=0.10, better="lower") == "ok"
    # higher is better: a drop of one rate step is far beyond any bound
    assert verdict(32000.0, 8000.0, spread=0.0, bound=0.05, better="higher") == "worse"
    assert verdict(32000.0, 128000.0, spread=0.0, bound=0.05, better="higher") == "ok"
    # a spread wider than the bound resolves nothing, in either direction
    assert verdict(100.0, 130.0, spread=0.15, bound=0.10, better="lower") == "unresolved"
    assert verdict(100.0, 100.0, spread=0.15, bound=0.10, better="lower") == "unresolved"


def _set(host, sim, failed=0):
    return {
        "seeds": [1, 2, 3],
        "workloads": {
            "w": {
                "attempted": 30,
                "failed": failed,
                "end_to_end": {"host_round_cu": host, "sim_round_ms": sim},
                "per_layer": {"kernels.total_ms": [10.0]},
            }
        },
    }


SPEC = {
    "workloads": [{"name": "w", "why": ""}],
    "end_to_end": [
        {"name": "host_round_cu", "unit": "cu", "better": "lower", "bound": 0.10},
        {"name": "sim_round_ms", "unit": "ms", "better": "lower", "bound": 0.02},
    ],
    "per_layer": [{"name": "kernels.total_ms", "unit": "ms", "better": "lower"}],
}


def test_compare_reports_ratio_with_base_and_exact_repeats():
    a = _set([10.0, 10.1, 9.9], [5.0, 5.1, 5.2])
    lines, bad = compare(a, _set([10.3, 10.2, 10.4], [5.0, 5.1, 5.2]), SPEC)
    text = "\n".join(lines)
    assert not bad
    assert "1.0300" in text and "repeats exactly" in text and "ok" in text
    assert "kernels.total_ms" in text

    lines, bad = compare(a, _set([12.0, 12.1, 11.9], [5.0, 5.1, 5.3]), SPEC)
    text = "\n".join(lines)
    assert bad and "worse" in text and "DIFFERS run by run" in text

    _, bad = compare(a, _set([10.0, 10.1, 9.9], [5.0, 5.1, 5.2], failed=1), SPEC)
    assert bad  # a failed operation is never "no worse"
