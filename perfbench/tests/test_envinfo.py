"""The speed probe that scales a run's times to the reference speed."""

import pytest

import envinfo


def test_factor_scales_by_the_probes_on_either_side():
    probes = iter([0.05, 0.05, 0.025, 0.0125])
    speed = envinfo.Speed([0], probe=lambda cpu: next(probes))
    speed.probe()
    # Twice as slow as the reference on both sides: times halve.
    assert speed.factor() == pytest.approx(envinfo.REFERENCE_PROBE_S / 0.05)
    # The next part starts from the probe the last one ended with.
    speed.probe()
    assert speed.factor() == pytest.approx(envinfo.REFERENCE_PROBE_S / 0.0375)


def test_factor_of_a_subset_of_the_probed_cpus():
    times = {0: iter([0.05, 0.05]), 1: iter([0.025, 0.025])}
    speed = envinfo.Speed([0, 1], probe=lambda cpu: next(times[cpu]))
    speed.probe()
    assert speed.factor([1]) == pytest.approx(1.0)
    assert speed.factor() == pytest.approx(envinfo.REFERENCE_PROBE_S / 0.0375)


def test_the_real_probe_reads_a_plausible_time_and_restores_affinity():
    import os

    before = os.sched_getaffinity(0)
    speed = envinfo.Speed(envinfo.bench_cpus())
    speed.probe()
    assert os.sched_getaffinity(0) == before
    assert all(0.001 < seconds < 1.0 for seconds in speed.probes[0].values())
    assert 0.01 < speed.factor() < 100
