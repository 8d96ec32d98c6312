"""Rupture localization from retimed arrival-time differences.

With three sensors on the cable axis, the two earliest arrivals bracket the
rupture and a third sensor beyond one of them sees pure propagation along
the cable. That pure-propagation pair calibrates the wave speed in place:

    v = L12 / dt12

and the bracketing pair then pins the position, measured from the earliest
sensor toward the second:

    X = (L23 - v * dt23) / 2

Degenerate inputs come back as flags on the estimate, never as exceptions:
a monitoring pipeline wants the bad cluster recorded, not a crash.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, NamedTuple, Optional

from .retiming import RetimedEvent
from .wave import CableGeometry

FLAG_OUT_OF_SPAN = "OUT_OF_SPAN"
FLAG_DEGENERATE_DT = "DEGENERATE_DT"
FLAG_INSUFFICIENT_SENSORS = "INSUFFICIENT_SENSORS"


class DegenerateTimingError(ValueError):
    """Arrival-time differences that cannot yield a speed estimate."""


class TripleSelection(NamedTuple):
    """The three sensors feeding one estimate.

    sensor_2 heard the wave first and sensor_3 second (they bracket the
    rupture); sensor_1 sits beyond one of them and pairs with speed_anchor
    (sensor_2 normally, sensor_3 when sensor_2 has no far-side neighbor) for
    the pure-propagation speed estimate.
    """

    sensor_1: int
    sensor_2: int
    sensor_3: int
    speed_anchor: int

    @property
    def ids(self) -> tuple[int, int, int]:
        return (self.sensor_1, self.sensor_2, self.sensor_3)


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


def _two_earliest(times: Mapping[int, float]) -> tuple[int, int]:
    ranked = sorted(times.items(), key=lambda kv: (kv[1], kv[0]))
    return ranked[0][0], ranked[1][0]


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


def select_triple(
    times: Mapping[int, float], geometry: CableGeometry
) -> TripleSelection:
    """Choose the sensor triple for one cluster of arrival times.

    sensor_2/sensor_3 are the two earliest arrivals (ties to the lower id).
    sensor_1 is the reporting sensor nearest to sensor_2 on the side away
    from sensor_3; when sensor_2 is an end sensor there is none, and the
    roles swap symmetrically: sensor_1 is taken beyond sensor_3 instead and
    pairs with it for the speed estimate.

    Raises:
        ValueError: fewer than three reporting sensors.
        DegenerateTimingError: no reporting sensor beyond either bracket
            (cannot form a pure-propagation pair).
    """
    if len(times) < 3:
        raise ValueError(f"triple selection needs >= 3 sensors, got {len(times)}")
    s2, s3 = _two_earliest(times)
    toward_s3 = 1 if geometry.position_of(s3) > geometry.position_of(s2) else -1
    s1 = _nearest_on_side(times, geometry, s2, -toward_s3)
    if s1 is not None:
        return TripleSelection(sensor_1=s1, sensor_2=s2, sensor_3=s3, speed_anchor=s2)
    s1 = _nearest_on_side(times, geometry, s3, toward_s3)
    if s1 is not None:
        return TripleSelection(sensor_1=s1, sensor_2=s2, sensor_3=s3, speed_anchor=s3)
    raise DegenerateTimingError(
        f"no reporting sensor beyond either bracket ({s2}, {s3})"
    )


def estimate_speed(t_far_us: float, t_near_us: float, separation_m: float) -> float:
    """Wave speed from a pure-propagation pair: separation / arrival lag.

    Args:
        t_far_us: arrival at the sensor farther from the rupture.
        t_near_us: arrival at the nearer sensor (must be strictly earlier).
        separation_m: cable distance between the two sensors.

    Raises:
        DegenerateTimingError: non-positive lag; the pair cannot see the
            rupture from the same side.
    """
    if not separation_m > 0:
        raise ValueError(f"separation must be > 0, got {separation_m!r}")
    dt_us = t_far_us - t_near_us
    if dt_us <= 0:
        raise DegenerateTimingError(
            f"propagation pair lag must be > 0, got {dt_us} us"
        )
    return separation_m / (dt_us * 1e-6)


def estimate_position(
    t_s2_us: float, t_s3_us: float, l23_m: float, v_m_s: float
) -> float:
    """Rupture offset from sensor_2 toward sensor_3, meters.

    X = (L23 - v * (t_s3 - t_s2)) / 2; X in [0, L23] means the rupture lies
    between the bracketing pair. Values outside are returned as-is for the
    caller to flag.
    """
    if not l23_m > 0:
        raise ValueError(f"bracket separation must be > 0, got {l23_m!r}")
    if not v_m_s > 0:
        raise ValueError(f"wave speed must be > 0, got {v_m_s!r}")
    return 0.5 * (l23_m - v_m_s * (t_s3_us - t_s2_us) * 1e-6)


def localize(
    times: Mapping[int, float], geometry: CableGeometry
) -> RuptureEstimate:
    """Estimate rupture position and wave speed from one cluster's times.

    Args:
        times: earliest retimed arrival per sensor, microseconds on the
            shared period timescale.
        geometry: sensor positions along the cable.

    Returns:
        RuptureEstimate; x_est_m is a cable-axis coordinate. Problems are
        reported through flags (INSUFFICIENT_SENSORS, DEGENERATE_DT,
        OUT_OF_SPAN), with NaN estimates for the first two.
    """
    for sid in times:
        geometry.index_of(sid)  # unknown sensors are a caller bug
    if len(times) < 3:
        return RuptureEstimate(
            x_est_m=math.nan,
            v_est_m_s=math.nan,
            triple=(),
            flags=frozenset({FLAG_INSUFFICIENT_SENSORS}),
        )
    try:
        sel = select_triple(times, geometry)
    except DegenerateTimingError:
        return RuptureEstimate(
            x_est_m=math.nan,
            v_est_m_s=math.nan,
            triple=(),
            flags=frozenset({FLAG_DEGENERATE_DT}),
        )

    dt_speed = times[sel.sensor_1] - times[sel.speed_anchor]
    try:
        v = estimate_speed(
            times[sel.sensor_1],
            times[sel.speed_anchor],
            geometry.spacing(sel.sensor_1, sel.speed_anchor),
        )
    except DegenerateTimingError:
        return RuptureEstimate(
            x_est_m=math.nan,
            v_est_m_s=math.nan,
            triple=sel.ids,
            flags=frozenset({FLAG_DEGENERATE_DT}),
            dt_speed_us=dt_speed,
        )

    p2 = geometry.position_of(sel.sensor_2)
    p3 = geometry.position_of(sel.sensor_3)
    l23 = abs(p3 - p2)
    dt_position = times[sel.sensor_3] - times[sel.sensor_2]
    x_offset = estimate_position(times[sel.sensor_2], times[sel.sensor_3], l23, v)
    x_global = p2 + x_offset * (1 if p3 > p2 else -1)
    flags = set()
    if not 0 <= x_offset <= l23:
        flags.add(FLAG_OUT_OF_SPAN)
    return RuptureEstimate(
        x_est_m=x_global,
        v_est_m_s=v,
        triple=sel.ids,
        flags=frozenset(flags),
        dt_speed_us=dt_speed,
        dt_position_us=dt_position,
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
