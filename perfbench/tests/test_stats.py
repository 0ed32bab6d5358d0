import pytest

from perfbench.clock import to_cu
from perfbench.stats import TooFewSamples, geomean, iqr_share, percentile, qerror_geomean


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 0.9) == 90
    assert percentile(samples, 0.5) == 50


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 0.9)  # 9 beyond
    assert percentile(list(range(100)), 0.9) == 89  # exactly 10 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(110)), 0.99)


def test_percentile_rule_can_be_waived_for_an_exact_population():
    assert percentile([3.0, 1.0, 2.0], 0.9, min_beyond=0) == 3.0


def test_geomean_and_qerror():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    # est/act = 2 and act/est = 2: both count as an error of 2.
    assert qerror_geomean([(2.0, 1.0), (1.0, 2.0)]) == pytest.approx(2.0)
    # Pairs with a zero side are not measurable and are left out.
    assert qerror_geomean([(0.0, 1.0)]) == 0.0


def test_iqr_share_matches_the_contract_definition():
    import statistics

    values = [10.0, 11.0, 9.5, 10.2, 10.1, 9.9, 10.4, 10.3, 9.8, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_cu_normalisation_cancels_machine_speed():
    # The same work on a machine running 1.5x slower: seconds and the
    # reference loop both stretch, the cu value does not move.
    assert to_cu(2.0, unit=0.080) == pytest.approx(to_cu(3.0, unit=0.120)) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        to_cu(1.0, unit=0.0)


def test_calibrator_keeps_every_reading():
    from perfbench.clock import Calibrator

    calibrate = Calibrator()
    first, second = calibrate(), calibrate()
    assert calibrate.readings == [first, second] and min(first, second) > 0
