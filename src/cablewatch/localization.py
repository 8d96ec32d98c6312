"""Rupture localization from retimed arrival-time differences.

With three sensors on the cable axis, the two earliest arrivals bracket the
rupture and a third sensor beyond one of them sees pure propagation along
the cable. That pure-propagation pair calibrates the wave speed in place:

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
from .wave import CableGeometry

FLAG_OUT_OF_SPAN = "OUT_OF_SPAN"
FLAG_DEGENERATE_DT = "DEGENERATE_DT"
FLAG_INSUFFICIENT_SENSORS = "INSUFFICIENT_SENSORS"


class RuptureEstimate(NamedTuple):
    """Position/speed estimate for one event cluster, with diagnostics.

    x_est_m and v_est_m_s are NaN whenever flags prevented the estimate.
    dt_speed_us and dt_position_us are the two arrival-time differences that
    produced it.
    """

    x_est_m: float
    v_est_m_s: float
    triple: tuple[int, ...]
    flags: frozenset[str] = frozenset()
    dt_speed_us: float = math.nan
    dt_position_us: float = math.nan

    @property
    def clean(self) -> bool:
        return not self.flags


def _nearest_on_side(
    times: Mapping[int, float], geometry: CableGeometry, anchor: int, side: int
) -> Optional[int]:
    """Closest reporting sensor strictly on one side of anchor (+1 right, -1 left)."""
    pos = geometry.position_of(anchor)
    best = None
    for sid in times:
        p = geometry.position_of(sid)
        if (p - pos) * side > 0 and (
            best is None or abs(p - pos) < abs(geometry.position_of(best) - pos)
        ):
            best = sid
    return best


def localize(
    times: Mapping[int, float], geometry: CableGeometry
) -> RuptureEstimate:
    """Estimate rupture position and wave speed from one cluster's times.

    sensor_2 and sensor_3 are the two earliest arrivals (ties to the lower
    id) and bracket the rupture. sensor_1 is the reporting sensor nearest to
    sensor_2 on the side away from sensor_3, and pairs with sensor_2 for the
    speed. When sensor_2 is an end sensor there is none, and sensor_1 is
    taken beyond sensor_3 instead and pairs with it.

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
    for sid, t in times.items():
        geometry.index_of(sid)
        if not math.isfinite(t):
            raise ValueError(f"sensor {sid}: arrival time must be finite, got {t!r}")
    if len(times) < 3:
        return RuptureEstimate(math.nan, math.nan, (), frozenset({FLAG_INSUFFICIENT_SENSORS}))

    s2, s3 = sorted(times, key=lambda sid: (times[sid], sid))[:2]
    p2, p3 = geometry.position_of(s2), geometry.position_of(s3)
    toward_s3 = 1 if p3 > p2 else -1
    s1, anchor = _nearest_on_side(times, geometry, s2, -toward_s3), s2
    if s1 is None:
        s1, anchor = _nearest_on_side(times, geometry, s3, toward_s3), s3
    if s1 is None:
        # no pure-propagation pair beyond either bracket
        return RuptureEstimate(math.nan, math.nan, (), frozenset({FLAG_DEGENERATE_DT}))
    triple = (s1, s2, s3)
    dt_speed = times[s1] - times[anchor]
    dt_speed_s = dt_speed * 1e-6
    v = geometry.spacing(s1, anchor) / dt_speed_s if dt_speed_s > 0 else math.nan
    if not math.isfinite(v):
        # a tie, or a lag too short for a finite speed: the pair does not
        # see the rupture from one side
        return RuptureEstimate(
            math.nan, math.nan, triple, frozenset({FLAG_DEGENERATE_DT}), dt_speed
        )

    l23 = abs(p3 - p2)
    dt_position = times[s3] - times[s2]
    x_offset = 0.5 * (l23 - v * dt_position * 1e-6)
    flags = frozenset() if 0 <= x_offset <= l23 else frozenset({FLAG_OUT_OF_SPAN})
    return RuptureEstimate(
        p2 + x_offset * toward_s3, v, triple, flags, dt_speed, dt_position
    )


def localize_cluster(
    cluster: Iterable[RetimedEvent], geometry: CableGeometry
) -> RuptureEstimate:
    """Localize from retimed events, using each sensor's earliest valid one."""
    times: dict[int, float] = {}
    for e in cluster:
        if e.valid and (e.sensor_id not in times or e.retimed_us < times[e.sensor_id]):
            times[e.sensor_id] = e.retimed_us
    return localize(times, geometry)
