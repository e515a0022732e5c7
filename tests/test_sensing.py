"""Tests for Lidar geometry and probable crash time."""

import math

import numpy as np
import pytest

from crashguard import sensing
from crashguard.errors import GeometryViolation, NonPositiveTime


def test_hypotenuse_direct_formula():
    assert sensing.hypotenuse_from_tof(2.0e-7) == pytest.approx(29.9792458, rel=1e-12)


def test_hypotenuse_inverts_distance():
    for d in (1.0, 42.5, 180.0):
        assert sensing.hypotenuse_from_tof(2.0 * d / sensing.SPEED_OF_LIGHT) == pytest.approx(d, rel=1e-12)


def test_hypotenuse_rejects_nonpositive_time():
    for t in (0.0, -1e-9):
        with pytest.raises(NonPositiveTime):
            sensing.hypotenuse_from_tof(t)


def test_longitudinal_three_four_five():
    assert sensing.longitudinal_distance(5.0, 3.0) == pytest.approx(4.0, abs=1e-12)


def test_longitudinal_same_lane():
    assert sensing.longitudinal_distance(17.25, 0.0) == 17.25


def test_longitudinal_rejects_impossible_geometry():
    with pytest.raises(GeometryViolation):
        sensing.longitudinal_distance(3.0, 5.0)
    with pytest.raises(GeometryViolation):
        sensing.longitudinal_distance(3.0, -0.5)


def test_crash_time_scenario_values_exact():
    assert sensing.probable_crash_time(40.0, 30.0, 40.0) == 4.0
    assert sensing.probable_crash_time(12.0, 40.0, 50.0) == 1.2
    assert sensing.probable_crash_time(30.0, 50.0, 60.0) == 3.0


def test_crash_time_rejects_non_closing():
    assert sensing.probable_crash_time(10.0, 30.0, 30.0) is None
    assert sensing.probable_crash_time(10.0, 35.0, 30.0) is None


def test_crash_time_reads_rounding_noise_as_non_closing():
    # 25 m/s reached by different float operations: a difference of one
    # ulp is no closing speed, and neither is the floor itself
    speeds = ((25.0, np.nextafter(25.0, 30.0)), (25.0, 25.0 + 1.4e-13), (0.0, sensing.CLOSING_SPEED_FLOOR))
    for v1, v2 in speeds:
        assert sensing.probable_crash_time(15.0, v1, v2) is None
    assert sensing.probable_crash_time(15.0, 0.0, 2e-9) == 7.5e9
    assert sensing.probable_crash_time(15.0, 25.0, 25.001) == pytest.approx(15e3, rel=1e-9)


def test_round_trip_property():
    rng = np.random.default_rng(31)
    for _ in range(200):
        d = rng.uniform(1e-6, 200.0)
        lw = rng.uniform(0.0, 200.0)
        ltime = 2.0 * math.hypot(d, lw) / sensing.SPEED_OF_LIGHT
        back = sensing.longitudinal_distance(sensing.hypotenuse_from_tof(ltime), lw)
        assert back == pytest.approx(d, rel=1e-9, abs=1e-9)


def test_crash_time_scaling_property():
    rng = np.random.default_rng(37)
    for _ in range(100):
        d = rng.uniform(0.1, 500.0)
        v1 = rng.uniform(0.0, 50.0)
        dv = rng.uniform(0.1, 30.0)
        t = sensing.probable_crash_time(d, v1, v1 + dv)
        assert sensing.probable_crash_time(3.0 * d, v1, v1 + dv) == pytest.approx(3.0 * t, rel=1e-12)
        assert sensing.probable_crash_time(d, v1, v1 + 2.0 * dv) == pytest.approx(t / 2.0, rel=1e-12)

