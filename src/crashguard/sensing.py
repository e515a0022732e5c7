"""Lidar-derived range geometry and probable crash time.

Pure stateless functions: round-trip time of flight to diagonal range,
the Pythagorean reduction to the longitudinal gap, and the constant-speed
closing time.
"""

from __future__ import annotations

import math

from .errors import GeometryViolation, NonPositiveTime

__all__ = [
    "SPEED_OF_LIGHT",
    "hypotenuse_from_tof",
    "longitudinal_distance",
    "probable_crash_time",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value
# a closing speed at or below this is not closing: two speeds that meet
# after different float operations differ by about 1e-13 m/s, and 1e-9 m/s
# closes a 1 km gap in 1e12 s, some 30 000 years
CLOSING_SPEED_FLOOR = 1e-9  # m/s


def hypotenuse_from_tof(ltime: float) -> float:
    """Diagonal range from round-trip pulse time: ltime * c / 2."""
    if ltime <= 0.0:
        raise NonPositiveTime(f"round-trip time must be positive, got {ltime!r}")
    return ltime * SPEED_OF_LIGHT / 2.0


def longitudinal_distance(hyp: float, lateral_offset: float) -> float:
    """Along-road gap: the leg sqrt(hyp^2 - lateral_offset^2)."""
    if lateral_offset < 0.0 or hyp < lateral_offset:
        raise GeometryViolation(
            f"need hyp >= lateral offset >= 0, got hyp={hyp!r}, offset={lateral_offset!r}"
        )
    return math.sqrt(hyp * hyp - lateral_offset * lateral_offset)


def probable_crash_time(d: float, v1: float, v2: float) -> float | None:
    """Closing time d / (v2 - v1); v2 is the trailing (faster) car's speed.

    None when the relative speed is at or below CLOSING_SPEED_FLOOR,
    rounding noise included: the encounter is not closing, and the caller
    restarts its sensing loop.
    """
    closing = v2 - v1
    return None if closing <= CLOSING_SPEED_FLOOR else d / closing
