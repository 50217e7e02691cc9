import pytest

from common import (beyond, latency_metrics, percentile, quartiles, spread,
                    tail_percentile)


@pytest.mark.parametrize("count, q, enough", [
    (1000, 99, True), (999, 99, False), (200, 95, True), (199, 95, False),
    (100, 90, True), (99, 90, False), (5000, 99.8, True), (4999, 99.8, False),
])
def test_a_percentile_needs_ten_samples_beyond_it(count, q, enough):
    assert (beyond(count, q) >= 10) is enough


@pytest.mark.parametrize("count, tail", [
    (40, 75), (102, 90), (999, 98), (1000, 99), (1152, 99), (6000, 99.8),
    (7558, 99.8), (10000, 99.9),
])
def test_the_tail_is_the_highest_percentile_with_ten_beyond(count, tail):
    assert tail_percentile(count) == tail
    seconds = [i / 1000 for i in range(1, count + 1)]
    metrics = latency_metrics(seconds)
    assert metrics["tail_percentile"] == tail
    assert metrics["samples"] == count


def test_too_few_samples_for_any_tail_is_an_error():
    with pytest.raises(ValueError):
        latency_metrics([i / 1000 for i in range(1, 20)])


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile(list(range(1, 6001)), 99.8) == 5988


def test_latency_metrics_report_rank_and_sample_count():
    seconds = [i / 1000 for i in range(1, 1001)]
    metrics = latency_metrics(seconds)
    assert metrics["p50_ms"] == pytest.approx(500.0)
    assert metrics["tail_ms"] == pytest.approx(990.0)
    assert set(metrics["percentiles_ms"]) == {"50", "75", "90", "95", "98",
                                              "99"}


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, median, q3 = quartiles(values)
    assert (q1, median, q3) == (11.75, 14.5, 17.25)
    assert spread(values) == pytest.approx(5.5 / 14.5)
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
