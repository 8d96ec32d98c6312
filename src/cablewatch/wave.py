"""Cable geometry, acoustic wave arrivals and the threshold rule.

A wire rupture releases an elastic wave that travels both ways along the
cable at a few km/s. Each sensor sees the wavefront after a distance/speed
delay; a detection fires when the amplitude at the sensor reaches the trigger
threshold. Amplitude is modeled as flat, with an optional exponential decay
per meter. simulate_rupture states these rules; the sampling grid that
stamps a detection is the sensor's (simulate.SensorNode.stamp_until).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from functools import partial
from typing import Callable, NamedTuple, TypeVar

DEFAULT_WAVE_SPEED_M_S = 5000.0
DEFAULT_THRESHOLD_G = 0.8

T = TypeVar("T")


def frozen_slotted(cls: type[T]) -> type[T]:
    """cls as dataclass(frozen=True, slots=True): a frozen dataclass whose
    instances carry no dict, for records a run holds one of per event or per
    trial.

    Assigning or deleting any attribute raises FrozenInstanceError, as on a
    frozen dataclass without slots. The methods that dataclass generates for
    this check against the class as it was before slots were added, so for a
    name that is not a field they raise a TypeError from super() instead.
    """
    cls = dataclass(frozen=True, slots=True)(cls)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    return cls


def tuple_record(cls: type[T]) -> Callable[[tuple], T]:
    """A builder of NamedTuple cls from one tuple of all its fields, in
    order, defaults included: what cls(*fields) returns, built in C without
    the Python __new__ that calling cls runs. For records a run makes one
    of per event; the field count is not checked."""
    return partial(tuple.__new__, cls)


def is_integer(value) -> bool:
    """The one integer rule: an int, never a bool (which has no subclasses)."""
    return type(value) is int or (isinstance(value, int) and type(value) is not bool)


def is_number(value) -> bool:
    """The one number rule: an int or a float, never a bool (exact types skip isinstance)."""
    return (
        type(value) is float or type(value) is int
        or (isinstance(value, (float, int)) and type(value) is not bool)
    )


@dataclass(frozen=True)
class CableGeometry:
    """Sensor ids and their positions along the cable axis.

    Positions are finite meters from the cable origin and must be strictly
    increasing; ids must be unique. At least two sensors make a geometry;
    localization needs at least three.
    """

    sensor_ids: tuple[int, ...]
    positions_m: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensor_ids", tuple(self.sensor_ids))
        object.__setattr__(self, "positions_m", tuple(self.positions_m))
        if len(self.sensor_ids) != len(self.positions_m):
            raise ValueError(
                f"{len(self.sensor_ids)} sensor ids but {len(self.positions_m)} positions"
            )
        if len(self.sensor_ids) < 2:
            raise ValueError("geometry needs at least two sensors")
        for i, sid in enumerate(self.sensor_ids):
            if not is_integer(sid):
                raise ValueError(f"sensor_ids[{i}] must be an int, got {sid!r}")
        for i, p in enumerate(self.positions_m):
            if not (is_number(p) and math.isfinite(p)):
                rule = "finite" if is_number(p) else "a number"
                raise ValueError(f"positions_m[{i}] must be {rule}, got {p!r}")
        object.__setattr__(self, "positions_m", tuple(map(float, self.positions_m)))
        # id -> position, so that lookups stay O(1) however many sensors;
        # an attribute, not a field, so readers and comparisons never see it
        position = dict(zip(self.sensor_ids, self.positions_m))
        if len(position) != len(self.sensor_ids):
            raise ValueError("sensor ids must be unique")
        for a, b in zip(self.positions_m, self.positions_m[1:]):
            if not b > a:
                raise ValueError(
                    f"positions must be strictly increasing, got {a} then {b}"
                )
        object.__setattr__(self, "_position", position)

    def position_of(self, sensor_id: int) -> float:
        try:
            return self._position[sensor_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise ValueError(f"unknown sensor id {sensor_id}") from None

    @property
    def extent_m(self) -> tuple[float, float]:
        return self.positions_m[0], self.positions_m[-1]

    @property
    def span_m(self) -> float:
        return self.positions_m[-1] - self.positions_m[0]


@frozen_slotted
class RuptureEvent:
    """A wire break: where, when, and how hard it rings. It constructs with
    any values; Scenario.problems refuses bad ones by path.

    Attributes:
        position_m: break position along the cable axis.
        time_ref_us: reference time of the break.
        peak_amplitude_g: wave amplitude at the source, in g.
    """

    position_m: float
    time_ref_us: float
    peak_amplitude_g: float = 1.0


class WaveArrival(NamedTuple):
    """Wavefront as one sensor sees it: arrival instant and amplitude."""

    sensor_id: int
    arrival_ref_us: float
    max_amplitude_g: float


_wave_arrival = tuple_record(WaveArrival)


def simulate_rupture(
    geometry: CableGeometry,
    rupture: RuptureEvent,
    wave_speed_m_s: float = DEFAULT_WAVE_SPEED_M_S,
    threshold_g: float = DEFAULT_THRESHOLD_G,
    attenuation_per_m: float = 0.0,
) -> list[WaveArrival]:
    """Per-sensor arrivals for one rupture, in geometry order.

    Only sensors whose received amplitude reaches the threshold appear.

    Raises:
        ValueError: if the rupture lies outside the sensed cable extent, or
            the wave speed, threshold, attenuation or peak amplitude is not
            finite or out of range.
    """
    lo, hi = geometry.extent_m
    x = rupture.position_m
    if not lo <= x <= hi:
        raise ValueError(
            f"rupture at {x} m is outside the sensed extent [{lo}, {hi}] m"
        )
    peak = rupture.peak_amplitude_g
    for name, value in (
        ("wave speed", wave_speed_m_s), ("threshold", threshold_g),
        ("attenuation coefficient", attenuation_per_m), ("peak amplitude", peak),
    ):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    for name, value in (
        ("wave speed", wave_speed_m_s), ("threshold", threshold_g), ("peak amplitude", peak),
    ):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    if attenuation_per_m < 0:
        raise ValueError("attenuation coefficient must be >= 0")
    ids, positions = geometry.sensor_ids, geometry.positions_m
    first, stop = 0, len(positions)
    ratio = peak / threshold_g
    if attenuation_per_m > 0 and 0 < ratio < math.inf:
        # only sensors within the attenuation reach ln(peak/threshold)/a can
        # reach the threshold. The reach is widened far past any rounding of
        # the amplitude test below, which alone decides: the cut only skips
        # sensors that the test would reject.
        log_ratio = math.log(ratio)
        reach = (log_ratio + 1e-9 * (1.0 + abs(log_ratio))) / attenuation_per_m
        first = bisect_left(positions, x - reach)
        stop = bisect_right(positions, x + reach)
    # a sensor d meters away hears peak * exp(-attenuation * d), d / speed
    # after the rupture, and fires if that reaches the threshold (inclusive)
    t0 = rupture.time_ref_us
    arrivals = []
    for i in range(first, stop):
        d = abs(positions[i] - x)
        amp = peak * math.exp(-attenuation_per_m * d)
        if amp < threshold_g:
            continue
        arrivals.append(_wave_arrival((ids[i], t0 + d / wave_speed_m_s * 1e6, amp)))
    return arrivals
