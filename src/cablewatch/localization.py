"""Rupture localization from retimed arrival-time differences.

With three sensors on the cable axis, the two earliest arrivals are taken
as the pair that brackets the rupture, and a third sensor beyond one of
them sees pure propagation along the cable. On a uniformly spaced cable the
two earliest always bracket it; on an uneven one they need not, and the
estimate then comes back wrong or flagged OUT_OF_SPAN.
The pure-propagation pair calibrates the wave speed in place:

    v = L12 / dt12

and the bracketing pair then pins the position, measured from the earliest
sensor toward the second:

    X = (L23 - v * dt23) / 2

Degenerate timing comes back as flags on the estimate, never as an
exception: a monitoring pipeline wants the bad cluster recorded, not a
crash. Only a caller bug (an unknown sensor, a non-finite time) raises.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Optional

from .retiming import RetimedEvent
from .wave import CableGeometry, tuple_record

FLAG_OUT_OF_SPAN = "OUT_OF_SPAN"
FLAG_DEGENERATE_DT = "DEGENERATE_DT"
FLAG_INSUFFICIENT_SENSORS = "INSUFFICIENT_SENSORS"


# flag sets are immutable, so estimates share one per set instead of
# building a new one each
_NO_FLAGS: frozenset[str] = frozenset()
_ONLY = {
    flag: frozenset({flag})
    for flag in (FLAG_OUT_OF_SPAN, FLAG_DEGENERATE_DT, FLAG_INSUFFICIENT_SENSORS)
}


class RuptureEstimate(NamedTuple):
    """Position/speed estimate for one event cluster, with diagnostics.

    x_est_m and v_est_m_s are NaN whenever flags prevented the estimate.
    dt_speed_us and dt_position_us are the two arrival-time differences that
    produced it.
    """

    x_est_m: float
    v_est_m_s: float
    triple: tuple[int, ...]
    flags: frozenset[str] = _NO_FLAGS
    dt_speed_us: float = math.nan
    dt_position_us: float = math.nan

    @property
    def clean(self) -> bool:
        return not self.flags


_estimate = tuple_record(RuptureEstimate)


def _nearest_on_side(positions: Mapping[int, float], anchor: int, side: int) -> Optional[int]:
    """Closest reporting sensor strictly on one side of anchor (+1 right, -1 left)."""
    at = positions[anchor]
    best, best_d = None, math.nan
    for sid, p in positions.items():
        d = (p - at) * side  # the distance, when on that side
        if d > 0 and (best is None or d < best_d):
            best, best_d = sid, d
    return best


def localize(
    times: Mapping[int, float], geometry: CableGeometry
) -> RuptureEstimate:
    """Estimate rupture position and wave speed from one cluster's times.

    sensor_2 and sensor_3 are the two earliest arrivals (ties to the lower
    id) and are taken to bracket the rupture. sensor_1 is the reporting
    sensor nearest to sensor_2 on the side away from sensor_3, and pairs
    with sensor_2 for the speed. When sensor_2 is an end sensor there is
    none, and sensor_1 is taken beyond sensor_3 instead and pairs with it.

    Args:
        times: earliest retimed arrival per sensor, microseconds on the
            shared period timescale.
        geometry: sensor positions along the cable.

    Returns:
        RuptureEstimate with triple (sensor_1, sensor_2, sensor_3);
        x_est_m is a cable-axis coordinate. Problems are reported through
        flags (INSUFFICIENT_SENSORS, DEGENERATE_DT, OUT_OF_SPAN), with NaN
        estimates for the first two.

    Raises:
        ValueError: an unknown sensor or a non-finite time (a caller bug).
    """
    positions: dict[int, float] = {}
    for sid, t in times.items():
        positions[sid] = geometry.position_of(sid)
        if not math.isfinite(t):
            raise ValueError(f"sensor {sid}: arrival time must be finite, got {t!r}")
    if len(times) < 3:
        return RuptureEstimate(math.nan, math.nan, (), _ONLY[FLAG_INSUFFICIENT_SENSORS])

    # the earliest first, ties to the lower id
    order = sorted(times)
    order.sort(key=times.__getitem__)
    s2, s3 = order[0], order[1]
    p2, p3 = positions[s2], positions[s3]
    toward_s3 = 1 if p3 > p2 else -1
    s1, anchor = _nearest_on_side(positions, s2, -toward_s3), s2
    if s1 is None:
        s1, anchor = _nearest_on_side(positions, s3, toward_s3), s3
    if s1 is None:
        # no pure-propagation pair beyond either bracket
        return RuptureEstimate(math.nan, math.nan, (), _ONLY[FLAG_DEGENERATE_DT])
    triple = (s1, s2, s3)
    dt_speed = times[s1] - times[anchor]
    dt_speed_s = dt_speed * 1e-6
    v = abs(positions[s1] - positions[anchor]) / dt_speed_s if dt_speed_s > 0 else math.nan
    if not math.isfinite(v):
        # a tie, or a lag too short for a finite speed: the pair does not
        # see the rupture from one side
        return RuptureEstimate(
            math.nan, math.nan, triple, _ONLY[FLAG_DEGENERATE_DT], dt_speed
        )

    l23 = abs(p3 - p2)
    dt_position = times[s3] - times[s2]
    x_offset = 0.5 * (l23 - v * dt_position * 1e-6)
    flags = _NO_FLAGS if 0 <= x_offset <= l23 else _ONLY[FLAG_OUT_OF_SPAN]
    return _estimate((p2 + x_offset * toward_s3, v, triple, flags, dt_speed, dt_position))


def localize_cluster(
    cluster: Iterable[RetimedEvent], geometry: CableGeometry
) -> RuptureEstimate:
    """Localize from retimed events, using each sensor's earliest valid one."""
    times: dict[int, float] = {}
    for sid, _, retimed_us, _, _, flag in cluster:
        if flag is None:
            t = times.get(sid)
            if t is None or retimed_us < t:
                times[sid] = retimed_us
    return localize(times, geometry)
