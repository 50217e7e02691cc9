import os

import pytest

from pace import REFERENCE_PROBE_S, SMOOTHING_S, ProbeLog, Speed, read_logs


def samples(start, end, probe, step=0.01):
    count = round((end - start) / step)
    return [(start + i * step, probe) for i in range(count)]


def test_undisturbed_time_is_unchanged():
    speed = Speed(samples(100.0, 110.0, REFERENCE_PROBE_S))
    assert speed.scaled(101.0, 104.5) == pytest.approx(3.5)
    assert speed.factor(105.0) == pytest.approx(1.0)


def test_a_slow_stretch_counts_at_undisturbed_speed():
    # Three seconds at half speed between two at full speed.
    speed = Speed(samples(0.0, 2.0, REFERENCE_PROBE_S)
                  + samples(2.0, 5.0, 2 * REFERENCE_PROBE_S)
                  + samples(5.0, 7.0, REFERENCE_PROBE_S))
    assert speed.scaled(0.5, 1.5) == pytest.approx(1.0)
    assert speed.scaled(2.5, 4.5) == pytest.approx(1.0)
    # Across the whole: 2 + 3 / 2 + 2, give or take the smoothing
    # window at each edge.
    assert speed.scaled(0.0, 7.0) == pytest.approx(5.5, abs=2 * SMOOTHING_S)


def test_one_odd_sample_does_not_move_the_clock():
    run = samples(0.0, 1.0, REFERENCE_PROBE_S)
    run[50] = (run[50][0], 50 * REFERENCE_PROBE_S)
    assert Speed(run).scaled(0.0, 1.0) == pytest.approx(1.0, abs=0.01)


def test_intervals_beyond_the_samples_use_the_nearest_factor():
    speed = Speed([(10.0, 2 * REFERENCE_PROBE_S)])
    assert speed.scaled(0.0, 4.0) == pytest.approx(2.0)
    assert speed.scaled(12.0, 16.0) == pytest.approx(2.0)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        Speed([])


def test_probe_log_round_trip_and_interval(tmp_path):
    log = ProbeLog(tmp_path)
    log.sample(force=True)
    log.sample()  # within the interval: skipped
    log.unit(1.0, 1.5)
    log.close()
    probes, units = read_logs(tmp_path)
    assert len(probes) == 1 and probes[0][1] > 0
    assert units == [(1.0, 1.5)]
    assert [p.name for p in tmp_path.iterdir()] == [f"probe-{os.getpid()}.txt"]
