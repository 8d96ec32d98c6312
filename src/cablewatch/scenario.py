"""Scenario definition: everything a run needs, loadable from a YAML file.

The file mirrors the Scenario fields, nested the same way, and each input
has one form: drift_ppm, for one, maps sensor ids to drifts. read_dataclass
is the one reader for every YAML input, scenario files (localize's
--geometry is one) and live configs: it takes field names, required fields
and defaults from the dataclasses themselves, rejects unknown fields by path
and reports every problem at once, so a bad file produces one complete
diagnosis instead of a fix-one-rerun loop.
"""

from __future__ import annotations

import functools
import math
from collections import abc
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import (
    Any, Mapping, Optional, Sequence, TypeVar, Union, get_args, get_origin, get_type_hints,
)

from .clock import MAX_DRIFT_PPM
from .network import (
    DEFAULT_LATENCY_JITTER_US,
    DEFAULT_LATENCY_MEAN_US,
    DEFAULT_RF_SPEED_M_S,
    NetworkModel,
    link_problems,
)
from .wave import (
    DEFAULT_THRESHOLD_G,
    DEFAULT_WAVE_SPEED_M_S,
    CableGeometry,
    RuptureEvent,
    frozen_slotted,
)
from .wire import (
    MAX_AMPLITUDE_MILLI_G, MAX_PERIOD_T_US, MAX_SAVED_COUNTER_TICKS, MAX_SENSOR_ID, amplitude_milli_g,
)

DEFAULT_SAMPLING_PERIOD_TICKS = 4
DEFAULT_SYNC_PERIOD_T_US = 1_000_000
DEFAULT_COINCIDENCE_WINDOW_US = 100_000.0
# sync periods (frames) one run may take: a bound on run length, against a
# typo in a time that would run for days before any output
MAX_RUN_PERIODS = 100_000

T = TypeVar("T")


class ScenarioError(ValueError):
    """One or more scenario problems; the message lists every one found."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@frozen_slotted
class SpuriousEvent:
    """A wave-like trigger at a single sensor that is not a rupture."""

    sensor_id: int
    time_ref_us: float
    amplitude_g: float = 1.0


@dataclass(frozen=True)
class NetworkConfig:
    """Radio link parameters; positions default to the cable geometry."""

    rf_speed_m_s: float = DEFAULT_RF_SPEED_M_S
    supervisor_position_m: Optional[float] = None
    latency_mean_us: float = DEFAULT_LATENCY_MEAN_US
    latency_jitter_us: float = DEFAULT_LATENCY_JITTER_US
    drop_probability: float = 0.0
    radio_positions_m: Optional[dict[int, float]] = None


@dataclass(frozen=True)
class Scenario:
    """A complete run description; pure data, safe to copy and mutate via replace()."""

    geometry: CableGeometry
    drift_ppm: dict[int, float] = field(default_factory=dict)
    wave_speed_m_s: float = DEFAULT_WAVE_SPEED_M_S
    threshold_g: float = DEFAULT_THRESHOLD_G
    sampling_period_ticks: int = DEFAULT_SAMPLING_PERIOD_TICKS
    sync_period_T_us: int = DEFAULT_SYNC_PERIOD_T_US
    coincidence_window_us: float = DEFAULT_COINCIDENCE_WINDOW_US
    attenuation_per_m: float = 0.0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    ruptures: tuple[RuptureEvent, ...] = ()
    spurious_events: tuple[SpuriousEvent, ...] = ()
    seed: int = 0
    run_duration_us: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift_ppm", dict(self.drift_ppm))
        object.__setattr__(self, "ruptures", tuple(self.ruptures))
        object.__setattr__(self, "spurious_events", tuple(self.spurious_events))
        problems = self.problems()
        if problems:
            raise ScenarioError(problems)

    def problems(self) -> list[str]:
        """Every invariant violation in this scenario, exhaustively."""
        out: list[str] = []

        def finite(path: str, value: float, *args) -> bool:
            """Whether value is finite; if not, record it: no run can schedule
            or reach it. path is formatted with args only then, so a valid
            event costs no string."""
            if math.isfinite(value):
                return True
            out.append(f"{path.format(*args)} must be finite, got {value!r}")
            return False

        ids = set(self.geometry.sensor_ids)
        if len(ids) < 3:
            out.append(
                f"geometry: localization needs at least 3 sensors, got {len(ids)}"
            )
        if min(ids) < 0 or max(ids) > MAX_SENSOR_ID:
            out.extend(
                f"geometry.sensor_ids[{i}]: sensor id {sid} does not fit the wire's "
                f"u16 sensor_id (0 to {MAX_SENSOR_ID})"
                for i, sid in enumerate(self.geometry.sensor_ids)
                if not 0 <= sid <= MAX_SENSOR_ID
            )
        for sid, ppm in roster_pairs("drift_ppm", self.drift_ppm, ids, out):
            if not abs(ppm) <= MAX_DRIFT_PPM:
                out.append(
                    f"drift_ppm: sensor {sid} drift {ppm!r} outside +/-{MAX_DRIFT_PPM:g} ppm"
                )
        if finite("wave_speed_m_s", self.wave_speed_m_s) and not self.wave_speed_m_s > 0:
            out.append(f"wave_speed_m_s must be > 0, got {self.wave_speed_m_s!r}")
        if finite("threshold_g", self.threshold_g) and not self.threshold_g > 0:
            out.append(f"threshold_g must be > 0, got {self.threshold_g!r}")
        if self.sampling_period_ticks < 1 or int(self.sampling_period_ticks) != self.sampling_period_ticks:
            out.append(
                f"sampling_period_ticks must be a positive integer, got {self.sampling_period_ticks!r}"
            )
        if self.sync_period_T_us < 1 or int(self.sync_period_T_us) != self.sync_period_T_us:
            out.append(
                f"sync_period_T_us must be a positive integer, got {self.sync_period_T_us!r}"
            )
        elif self.sync_period_T_us > MAX_PERIOD_T_US:
            out.append(
                f"sync_period_T_us {self.sync_period_T_us!r} does not fit the wire's u32 "
                f"period_T_us (at most {MAX_PERIOD_T_US})"
            )
        window = self.coincidence_window_us
        if finite("coincidence_window_us", window) and not window > 0:
            out.append(f"coincidence_window_us must be > 0, got {window!r}")
        if finite("attenuation_per_m", self.attenuation_per_m) and self.attenuation_per_m < 0:
            out.append(f"attenuation_per_m must be >= 0, got {self.attenuation_per_m!r}")

        t_us = self.sync_period_T_us
        speed = self.wave_speed_m_s
        travel = self.geometry.span_m / speed * 1e6 if math.isfinite(speed) and speed > 0 else 0.0

        def wide_amplitude(path: str, amplitude_g: float) -> str:
            return (
                f"{path} {amplitude_g!r} does not fit the wire's u32 "
                f"amplitude_milli_g (at most {MAX_AMPLITUDE_MILLI_G / 1000} g)"
            )

        def bounded(path: str, duration_us: float, *args) -> None:
            """Record path, formatted with args, if a run of duration_us would
            exceed MAX_RUN_PERIODS."""
            if t_us < 1:
                return  # no period length, already recorded
            periods = math.floor(duration_us / t_us) + 1
            if periods > MAX_RUN_PERIODS:
                out.append(
                    f"{path.format(*args)} needs a run of {periods} sync periods, more than "
                    f"MAX_RUN_PERIODS ({MAX_RUN_PERIODS})"
                )

        # without run_duration_us, the latest rupture or spurious hit sets
        # the run length
        auto = self.run_duration_us is None
        lo, hi = self.geometry.extent_m
        for i, r in enumerate(self.ruptures):
            if not lo <= r.position_m <= hi:
                out.append(
                    f"ruptures[{i}]: position {r.position_m} m outside cable extent [{lo}, {hi}] m"
                )
            # a sensor at the rupture hears its peak
            if amplitude_milli_g(r.peak_amplitude_g) > MAX_AMPLITUDE_MILLI_G:
                out.append(wide_amplitude(f"ruptures[{i}].peak_amplitude_g", r.peak_amplitude_g))
            if not finite("ruptures[{}].time_ref_us", r.time_ref_us, i):
                continue
            if r.time_ref_us < 0:
                out.append(f"ruptures[{i}]: time must be >= 0, got {r.time_ref_us!r}")
            elif auto:
                bounded(
                    "ruptures[{}].time_ref_us", self._closing_duration_us(r.time_ref_us + travel), i
                )
            if self.run_duration_us is not None and (
                r.time_ref_us + self.sync_period_T_us > self.run_duration_us
            ):
                out.append(
                    f"ruptures[{i}]: run_duration_us must cover the rupture plus one "
                    f"full sync period ({r.time_ref_us} + {self.sync_period_T_us})"
                )
        for i, s in enumerate(self.spurious_events):
            if isinstance(s.sensor_id, bool) or not isinstance(s.sensor_id, int):
                out.append(f"spurious_events[{i}].sensor_id must be an int, got {s.sensor_id!r}")
            elif s.sensor_id not in ids:
                out.append(f"spurious_events[{i}]: unknown sensor id {s.sensor_id}")
            if finite("spurious_events[{}].time_ref_us", s.time_ref_us, i):
                if s.time_ref_us < 0:
                    out.append(f"spurious_events[{i}]: time must be >= 0, got {s.time_ref_us!r}")
                elif auto:
                    bounded(
                        "spurious_events[{}].time_ref_us", self._closing_duration_us(s.time_ref_us), i
                    )
            if finite("spurious_events[{}].amplitude_g", s.amplitude_g, i):
                if not s.amplitude_g > 0:
                    out.append(
                        f"spurious_events[{i}]: amplitude must be > 0, got {s.amplitude_g!r}"
                    )
                elif amplitude_milli_g(s.amplitude_g) > MAX_AMPLITUDE_MILLI_G:
                    out.append(wide_amplitude(f"spurious_events[{i}].amplitude_g", s.amplitude_g))

        n = self.network
        out.extend(link_problems(n, "network."))
        # the RF delay and the mean latency cancel between two consecutive
        # sync receipts, so a saved counter spans at most T + 2 * jitter
        # reference us, at the fastest drift
        jitter = n.latency_jitter_us
        if math.isfinite(jitter) and (
            (t_us + 2 * jitter) * (1 + MAX_DRIFT_PPM * 1e-6) > MAX_SAVED_COUNTER_TICKS
        ):
            out.append(
                f"network.latency_jitter_us {jitter!r} is too wide: a period's counter, up to "
                f"(T + 2 * jitter) * (1 + {MAX_DRIFT_PPM:g} ppm) ticks, does not fit the wire's "
                f"u64 saved_counter (at most {MAX_SAVED_COUNTER_TICKS})"
            )
        if n.radio_positions_m is not None:
            positions = roster_pairs("network.radio_positions_m", n.radio_positions_m, ids, out)
            placed = {sid for sid, _ in positions}
            if ids - placed:
                out.append(f"network.radio_positions_m: missing sensors {sorted(ids - placed)}")
            for sid, pos in positions:
                finite("network.radio_positions_m[{}]", pos, sid)

        duration = self.run_duration_us
        if duration is not None and finite("run_duration_us", duration):
            if not duration > 0:
                out.append(f"run_duration_us must be > 0, got {duration!r}")
            bounded("run_duration_us", duration)
        return out

    def drift_for(self, sensor_id: int) -> float:
        return self.drift_ppm.get(sensor_id, 0.0)

    def radio_positions(self) -> tuple[float, dict[int, float]]:
        """The supervisor's radio position and each sensor's, cable positions
        where the network config leaves them out."""
        positions = self.network.radio_positions_m
        if positions is None:
            positions = dict(zip(self.geometry.sensor_ids, self.geometry.positions_m))
        sup = self.network.supervisor_position_m
        if sup is None:
            sup = self.geometry.positions_m[0]
        return sup, positions

    def network_model(self) -> NetworkModel:
        sup, positions = self.radio_positions()
        return NetworkModel(
            sensor_positions_m=positions,
            supervisor_position_m=sup,
            rf_speed_m_s=self.network.rf_speed_m_s,
            latency_mean_us=self.network.latency_mean_us,
            latency_jitter_us=self.network.latency_jitter_us,
            drop_probability=self.network.drop_probability,
            seed=self.seed,
        )

    def effective_duration_us(self) -> float:
        """Resolve the run length: explicit, or long enough to close every
        period that contains injected activity."""
        if self.run_duration_us is not None:
            return float(self.run_duration_us)
        latest = 0.0
        for r in self.ruptures:
            travel = self.geometry.span_m / self.wave_speed_m_s * 1e6
            latest = max(latest, r.time_ref_us + travel)
        for s in self.spurious_events:
            latest = max(latest, s.time_ref_us)
        if latest == 0.0:
            return 3.0 * self.sync_period_T_us
        return self._closing_duration_us(latest)

    def _closing_duration_us(self, latest_us: float) -> float:
        """A run length that closes the period holding latest_us, and the next."""
        t = float(self.sync_period_T_us)
        return (math.floor(latest_us / t) + 2) * t


_NO_VALUE = object()  # a field left to its default, or one whose problem is recorded


def roster_pairs(
    path: str, mapping: Mapping[Any, T], roster: abc.Set, problems: list[str]
) -> list[tuple[int, T]]:
    """The (sensor id, value) pairs of a map keyed by sensor id, by id.

    The one rule for such keys (drift_ppm, network.radio_positions_m, a live
    config's sync_ports): each is an int, not a bool, and a sensor of roster.
    A key that breaks it is left out and recorded in problems, named by path.
    """
    pairs = []
    for sid, value in mapping.items():
        if isinstance(sid, bool) or not isinstance(sid, int):
            problems.append(f"{path}: sensor id must be an int, got {sid!r}")
        elif sid not in roster:
            problems.append(f"{path}: unknown sensor id {sid}")
        else:
            pairs.append((sid, value))
    return sorted(pairs)


def _err_path(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _prefixed(path: str, problem: str) -> str:
    return f"{path}: {problem}" if path else problem


def _as_number(value, kind: type):
    """value as kind (int or float) by the one number rule, else None.

    Bools are not numbers. Strings get one float() attempt because YAML 1.1
    resolves exponent forms without a sign ('1.5e6') as strings.
    """
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            return None
        return int(value)
    return float(value)


def _convert(value, hint, path: str, errors: list[str]):
    """value read as its declared type, or _NO_VALUE with the problem recorded."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X]: a null never gets here, it means absent
        (inner,) = [a for a in args if a is not type(None)]
        return _convert(value, inner, path, errors)
    if is_dataclass(hint):
        return _read(hint, value, path, errors)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            errors.append(f"field '{path}' must be a list, got {value!r}")
            return _NO_VALUE
        items = [_convert(v, args[0], f"{path}[{i}]", errors) for i, v in enumerate(value)]
        return _NO_VALUE if any(i is _NO_VALUE for i in items) else tuple(items)
    if origin in (dict, abc.Mapping):
        if not isinstance(value, Mapping):
            errors.append(f"field '{path}' must be a mapping, got {value!r}")
            return _NO_VALUE
        out, ok = {}, True
        for k, v in value.items():
            key = _as_number(k, args[0])
            if key is None:
                errors.append(f"field '{path}' must be keyed by integers, got key {k!r}")
                ok = False
                continue
            out[key] = _convert(v, args[1], f"{path}[{key}]", errors)
            ok = ok and out[key] is not _NO_VALUE
        return out if ok else _NO_VALUE
    if hint is str:
        if isinstance(value, str):
            return value
        errors.append(f"field '{path}' must be a string, got {value!r}")
        return _NO_VALUE
    if hint in (int, float):
        number = _as_number(value, hint)
        if number is None:
            expected = "an integer" if hint is int else "a number"
            errors.append(f"field '{path}' must be {expected}, got {value!r}")
            return _NO_VALUE
        return number
    raise TypeError(f"no reader for {hint!r} at '{path}'")


@functools.cache
def _type_hints(cls) -> dict[str, Any]:
    """cls's resolved field types: resolved once per class, not once per
    list item read."""
    return get_type_hints(cls)


def _read(cls, raw, path: str, errors: list[str], given: Optional[Mapping[str, Any]] = None):
    """The dataclass cls built from a YAML mapping, or _NO_VALUE.

    Field names, required fields and defaults come from cls itself; a null
    field counts as absent. Every problem goes to errors by its path, and
    cls's constructor still runs when only defaulted fields failed to read,
    so its own checks are reported too. given holds fields the caller has
    already read.
    """
    if not isinstance(raw, Mapping):
        errors.append(f"field '{path}' must be a mapping, got {raw!r}")
        return _NO_VALUE
    given = given or {}
    declared = fields(cls)
    names = {f.name for f in declared}
    errors.extend(f"unknown field '{_err_path(path, str(k))}'" for k in raw if k not in names)
    hints = _type_hints(cls)
    values, complete = {}, True
    for f in declared:
        required = f.default is MISSING and f.default_factory is MISSING
        sub = _err_path(path, f.name)
        if f.name in given:
            value = given[f.name]
        elif raw.get(f.name) is not None:
            value = _convert(raw[f.name], hints[f.name], sub, errors)
        else:
            value = _NO_VALUE
            if required:
                errors.append(f"field '{sub}' is required")
        if value is not _NO_VALUE:
            values[f.name] = value
        elif required:
            complete = False
    if not complete:
        return _NO_VALUE
    try:
        return cls(**values)
    except ScenarioError as e:
        errors.extend(_prefixed(path, p) for p in e.problems)
    except ValueError as e:
        errors.append(_prefixed(path, str(e)))
    return _NO_VALUE


def read_dataclass(cls: type[T], raw: Any, given: Optional[Mapping[str, Any]] = None) -> T:
    """Build the dataclass cls (Scenario, LiveConfig, CableGeometry, ...) from
    a mapping loaded from YAML, converting each field by its declared type.

    Raises:
        ScenarioError: with every problem found (unknown fields, missing
            required fields, bad values, cls's own checks), each named by
            its path, e.g. 'ruptures[1].time_ref_us'.
    """
    errors: list[str] = []
    if not isinstance(raw, Mapping):
        raise ScenarioError([f"input must be a mapping, got {type(raw).__name__}"])
    obj = _read(cls, raw, "", errors, given)
    if errors:
        raise ScenarioError(errors)
    return obj


def load_yaml_mapping(path: Union[str, Path], what: str) -> dict:
    """The top-level mapping of a YAML file; an empty file reads as {}."""
    # imported here, its only use: a run that reads no file never loads it
    import yaml

    path = Path(path)
    if not path.exists():
        raise ScenarioError([f"{what} file not found: {path}"])
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as e:
        raise ScenarioError([f"{what} is not valid YAML: {e}"]) from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ScenarioError([f"{what} must be a mapping, got {type(raw).__name__}"])
    return raw


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Load and validate a scenario from a YAML file.

    Raises:
        ScenarioError: with every problem found (unknown fields, bad types,
            violated invariants), not just the first.
    """
    return read_dataclass(Scenario, load_yaml_mapping(path, "scenario"))
