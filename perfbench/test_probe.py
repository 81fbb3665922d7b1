"""Self-test of the speed normalisation.

    python3 -m pytest perfbench/test_probe.py
"""

import time

import pytest

import probe


def _probe(starts, times):
    p = probe.Probe()
    p.starts, p.times = list(starts), list(times)
    return p


def test_reference_speed_keeps_the_time_less_the_bursts():
    p = _probe([0.0, 0.01, 0.02, 0.03], [probe.REF_BURST_S] * 4)
    norm, speed = p.normalise(0.0, 0.05)
    assert speed == pytest.approx(1.0)
    assert norm == pytest.approx(0.05 - 4 * probe.REF_BURST_S)


def test_half_speed_halves_the_time():
    p = _probe([0.0, 0.02, 0.04], [2 * probe.REF_BURST_S] * 3)
    norm, speed = p.normalise(0.0, 0.06)
    assert speed == pytest.approx(0.5)
    assert norm == pytest.approx((0.06 - 6 * probe.REF_BURST_S) * 0.5)


def test_only_bursts_begun_in_the_interval_count():
    p = _probe([0.0, 1.0, 2.0], [probe.REF_BURST_S, 4 * probe.REF_BURST_S, probe.REF_BURST_S])
    assert p.normalise(0.5, 1.5)[1] == pytest.approx(0.25)
    with pytest.raises(RuntimeError):
        p.normalise(2.5, 3.0)


def test_probe_thread_records_bursts():
    with probe.Probe() as p:
        while len(p.times) < 3:
            time.sleep(probe.PERIOD_S)
    assert len(p.starts) == len(p.times) and all(t > 0 for t in p.times)
    assert p.starts == sorted(p.starts)
