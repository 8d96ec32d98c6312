"""Scenario definition: everything a run needs, loadable from a YAML file.

The file mirrors the Scenario fields, nested the same way. Unknown fields are
rejected by name and validation problems are reported all at once, so a bad
scenario file produces one complete diagnosis instead of a fix-one-rerun loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

import yaml

from .clock import MAX_DRIFT_PPM
from .network import (
    DEFAULT_LATENCY_JITTER_US,
    DEFAULT_LATENCY_MEAN_US,
    DEFAULT_RF_SPEED_M_S,
    NetworkModel,
)
from .retiming import DEFAULT_COINCIDENCE_WINDOW_US
from .wave import (
    DEFAULT_SAMPLING_PERIOD_TICKS,
    DEFAULT_THRESHOLD_G,
    DEFAULT_WAVE_SPEED_M_S,
    CableGeometry,
    RuptureEvent,
)

DEFAULT_SYNC_PERIOD_T_US = 1_000_000


class ScenarioError(ValueError):
    """One or more scenario problems; the message lists every one found."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
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
        ids = set(self.geometry.sensor_ids)
        if len(ids) < 3:
            out.append(
                f"geometry: localization needs at least 3 sensors, got {len(ids)}"
            )
        for sid, ppm in sorted(self.drift_ppm.items()):
            if sid not in ids:
                out.append(f"drift_ppm: unknown sensor id {sid}")
            if not abs(ppm) <= MAX_DRIFT_PPM:
                out.append(
                    f"drift_ppm: sensor {sid} drift {ppm!r} outside +/-{MAX_DRIFT_PPM:g} ppm"
                )
        if not self.wave_speed_m_s > 0:
            out.append(f"wave_speed_m_s must be > 0, got {self.wave_speed_m_s!r}")
        if not self.threshold_g > 0:
            out.append(f"threshold_g must be > 0, got {self.threshold_g!r}")
        if self.sampling_period_ticks < 1 or int(self.sampling_period_ticks) != self.sampling_period_ticks:
            out.append(
                f"sampling_period_ticks must be a positive integer, got {self.sampling_period_ticks!r}"
            )
        if self.sync_period_T_us < 1 or int(self.sync_period_T_us) != self.sync_period_T_us:
            out.append(
                f"sync_period_T_us must be a positive integer, got {self.sync_period_T_us!r}"
            )
        if not self.coincidence_window_us > 0:
            out.append(
                f"coincidence_window_us must be > 0, got {self.coincidence_window_us!r}"
            )
        if self.attenuation_per_m < 0:
            out.append(f"attenuation_per_m must be >= 0, got {self.attenuation_per_m!r}")

        lo, hi = self.geometry.extent_m
        for i, r in enumerate(self.ruptures):
            if not lo <= r.position_m <= hi:
                out.append(
                    f"ruptures[{i}]: position {r.position_m} m outside cable extent [{lo}, {hi}] m"
                )
            if r.time_ref_us < 0:
                out.append(f"ruptures[{i}]: time must be >= 0, got {r.time_ref_us!r}")
            if self.run_duration_us is not None and (
                r.time_ref_us + self.sync_period_T_us > self.run_duration_us
            ):
                out.append(
                    f"ruptures[{i}]: run_duration_us must cover the rupture plus one "
                    f"full sync period ({r.time_ref_us} + {self.sync_period_T_us})"
                )
        for i, s in enumerate(self.spurious_events):
            if s.sensor_id not in ids:
                out.append(f"spurious_events[{i}]: unknown sensor id {s.sensor_id}")
            if s.time_ref_us < 0:
                out.append(f"spurious_events[{i}]: time must be >= 0, got {s.time_ref_us!r}")
            if not s.amplitude_g > 0:
                out.append(
                    f"spurious_events[{i}]: amplitude must be > 0, got {s.amplitude_g!r}"
                )

        n = self.network
        if not n.rf_speed_m_s > 0:
            out.append(f"network.rf_speed_m_s must be > 0, got {n.rf_speed_m_s!r}")
        if n.latency_jitter_us < 0:
            out.append(f"network.latency_jitter_us must be >= 0, got {n.latency_jitter_us!r}")
        if n.latency_mean_us < n.latency_jitter_us:
            out.append(
                "network.latency_mean_us must be >= latency_jitter_us "
                f"({n.latency_mean_us!r} < {n.latency_jitter_us!r})"
            )
        if not 0.0 <= n.drop_probability <= 1.0:
            out.append(f"network.drop_probability must be in [0, 1], got {n.drop_probability!r}")
        if n.radio_positions_m is not None:
            missing = ids - set(n.radio_positions_m)
            extra = set(n.radio_positions_m) - ids
            if missing:
                out.append(f"network.radio_positions_m: missing sensors {sorted(missing)}")
            if extra:
                out.append(f"network.radio_positions_m: unknown sensors {sorted(extra)}")

        if self.run_duration_us is not None and not self.run_duration_us > 0:
            out.append(f"run_duration_us must be > 0, got {self.run_duration_us!r}")
        return out

    def drift_for(self, sensor_id: int) -> float:
        return self.drift_ppm.get(sensor_id, 0.0)

    def network_model(self) -> NetworkModel:
        positions = self.network.radio_positions_m
        if positions is None:
            positions = {
                sid: self.geometry.position_of(sid) for sid in self.geometry.sensor_ids
            }
        sup = self.network.supervisor_position_m
        if sup is None:
            sup = self.geometry.positions_m[0]
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
        t = float(self.sync_period_T_us)
        latest = 0.0
        for r in self.ruptures:
            travel = self.geometry.span_m / self.wave_speed_m_s * 1e6
            latest = max(latest, r.time_ref_us + travel)
        for s in self.spurious_events:
            latest = max(latest, s.time_ref_us)
        if latest == 0.0:
            return 3.0 * t
        return (math.floor(latest / t) + 2) * t


def _err_path(prefix: str, key: str) -> str:
    return f"{prefix}.{key}" if prefix else key


def _reject_unknown(mapping: Mapping[str, Any], allowed: set[str], prefix: str, errors: list[str]) -> None:
    for key in mapping:
        if key not in allowed:
            errors.append(f"unknown field '{_err_path(prefix, str(key))}'")


def _numeric(v):
    """v as a number, else None. Strings get one float() attempt because
    YAML 1.1 resolves exponent forms without a sign ('1.5e6') as strings."""
    if isinstance(v, bool):
        return None
    if isinstance(v, (int, float)):
        return v
    if isinstance(v, str):
        try:
            f = float(v)
        except ValueError:
            return None
        return f if math.isfinite(f) else None
    return None


def _get_number(mapping, key, prefix, errors, default=None):
    if key not in mapping or mapping[key] is None:
        return default
    v = _numeric(mapping[key])
    if v is None:
        errors.append(
            f"field '{_err_path(prefix, key)}' must be a number, got {mapping[key]!r}"
        )
        return default
    return v


def _get_int(mapping, key, prefix, errors, default=None):
    v = _get_number(mapping, key, prefix, errors, default)
    if v is None or v == default and key not in mapping:
        return default
    if int(v) != v:
        errors.append(f"field '{_err_path(prefix, key)}' must be an integer, got {v!r}")
        return default
    return int(v)


def _int_keyed(mapping, prefix, errors) -> dict[int, float]:
    out: dict[int, float] = {}
    for k, v in mapping.items():
        try:
            kid = int(k)
        except (TypeError, ValueError):
            errors.append(f"field '{prefix}': key {k!r} is not a sensor id")
            continue
        num = _numeric(v)
        if num is None:
            errors.append(f"field '{prefix}[{kid}]' must be a number, got {v!r}")
            continue
        out[kid] = float(num)
    return out


_TOP_FIELDS = {
    "geometry", "drift_ppm", "wave_speed_m_s", "threshold_g", "sampling_period_ticks",
    "sync_period_T_us", "coincidence_window_us",
    "attenuation_per_m", "network", "ruptures", "spurious_events", "seed",
    "run_duration_us",
}
_NETWORK_FIELDS = {
    "rf_speed_m_s", "supervisor_position_m", "latency_mean_us",
    "latency_jitter_us", "drop_probability", "radio_positions_m",
}
_RUPTURE_FIELDS = {"position_m", "time_ref_us", "peak_amplitude_g"}
_SPURIOUS_FIELDS = {"sensor_id", "time_ref_us", "amplitude_g"}


def load_scenario(source: Union[str, Path]) -> Scenario:
    """Load and validate a scenario from a YAML file path or YAML text.

    Raises:
        ScenarioError: with every problem found (unknown fields, bad types,
            violated invariants), not just the first.
    """
    looks_like_path = isinstance(source, Path) or (
        isinstance(source, str)
        and "\n" not in source
        and len(source) < 4096
        and (source.endswith((".yaml", ".yml")) or Path(source).exists())
    )
    if looks_like_path:
        path = Path(source)
        if not path.exists():
            raise ScenarioError([f"scenario file not found: {path}"])
        text = path.read_text()
    else:
        text = str(source)
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ScenarioError([f"scenario is not valid YAML: {e}"]) from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ScenarioError([f"scenario must be a mapping, got {type(raw).__name__}"])
    return scenario_from_dict(raw)


def scenario_from_dict(raw: Mapping[str, Any]) -> Scenario:
    errors: list[str] = []
    _reject_unknown(raw, _TOP_FIELDS, "", errors)

    geometry = None
    geo = raw.get("geometry")
    if geo is None:
        errors.append("field 'geometry' is required")
    elif not isinstance(geo, Mapping):
        errors.append("field 'geometry' must be a mapping")
    else:
        _reject_unknown(geo, {"sensor_ids", "positions_m"}, "geometry", errors)
        ids = geo.get("sensor_ids")
        pos = geo.get("positions_m")
        if not isinstance(ids, Sequence) or isinstance(ids, (str, bytes)):
            errors.append("field 'geometry.sensor_ids' must be a list of ids")
            ids = None
        if not isinstance(pos, Sequence) or isinstance(pos, (str, bytes)):
            errors.append("field 'geometry.positions_m' must be a list of positions")
            pos = None
        if ids is not None and pos is not None:
            try:
                geometry = CableGeometry(tuple(int(i) for i in ids), tuple(float(p) for p in pos))
            except (TypeError, ValueError) as e:
                errors.append(f"geometry: {e}")

    drift: dict[int, float] = {}
    d = raw.get("drift_ppm")
    if d is not None:
        if isinstance(d, Mapping):
            drift = _int_keyed(d, "drift_ppm", errors)
        elif isinstance(d, Sequence) and not isinstance(d, (str, bytes)):
            if geometry is not None and len(d) != len(geometry.sensor_ids):
                errors.append(
                    f"drift_ppm list has {len(d)} entries for {len(geometry.sensor_ids)} sensors"
                )
            elif geometry is not None:
                for sid, v in zip(geometry.sensor_ids, d):
                    num = _numeric(v)
                    if num is None:
                        errors.append(
                            f"field 'drift_ppm' entry for sensor {sid} must be a "
                            f"number, got {v!r}"
                        )
                    else:
                        drift[sid] = float(num)
        else:
            errors.append("field 'drift_ppm' must be a map or a per-sensor list")

    net = NetworkConfig()
    n = raw.get("network")
    if n is not None:
        if not isinstance(n, Mapping):
            errors.append("field 'network' must be a mapping")
        else:
            _reject_unknown(n, _NETWORK_FIELDS, "network", errors)
            radio = None
            if n.get("radio_positions_m") is not None:
                if not isinstance(n["radio_positions_m"], Mapping):
                    errors.append("field 'network.radio_positions_m' must be a map")
                else:
                    radio = _int_keyed(n["radio_positions_m"], "network.radio_positions_m", errors)
            net = NetworkConfig(
                rf_speed_m_s=_get_number(n, "rf_speed_m_s", "network", errors, DEFAULT_RF_SPEED_M_S),
                supervisor_position_m=_get_number(n, "supervisor_position_m", "network", errors, None),
                latency_mean_us=_get_number(n, "latency_mean_us", "network", errors, DEFAULT_LATENCY_MEAN_US),
                latency_jitter_us=_get_number(n, "latency_jitter_us", "network", errors, DEFAULT_LATENCY_JITTER_US),
                drop_probability=_get_number(n, "drop_probability", "network", errors, 0.0),
                radio_positions_m=radio,
            )

    ruptures: list[RuptureEvent] = []
    for i, r in enumerate(raw.get("ruptures") or []):
        if not isinstance(r, Mapping):
            errors.append(f"ruptures[{i}] must be a mapping")
            continue
        _reject_unknown(r, _RUPTURE_FIELDS, f"ruptures[{i}]", errors)
        pos = _get_number(r, "position_m", f"ruptures[{i}]", errors)
        t = _get_number(r, "time_ref_us", f"ruptures[{i}]", errors)
        amp = _get_number(r, "peak_amplitude_g", f"ruptures[{i}]", errors, 1.0)
        if pos is None or t is None:
            errors.append(f"ruptures[{i}] needs position_m and time_ref_us")
            continue
        try:
            ruptures.append(RuptureEvent(position_m=pos, time_ref_us=t, peak_amplitude_g=amp))
        except ValueError as e:
            errors.append(f"ruptures[{i}]: {e}")

    spurious: list[SpuriousEvent] = []
    for i, s in enumerate(raw.get("spurious_events") or []):
        if not isinstance(s, Mapping):
            errors.append(f"spurious_events[{i}] must be a mapping")
            continue
        _reject_unknown(s, _SPURIOUS_FIELDS, f"spurious_events[{i}]", errors)
        sid = _get_int(s, "sensor_id", f"spurious_events[{i}]", errors)
        t = _get_number(s, "time_ref_us", f"spurious_events[{i}]", errors)
        amp = _get_number(s, "amplitude_g", f"spurious_events[{i}]", errors, 1.0)
        if sid is None or t is None:
            errors.append(f"spurious_events[{i}] needs sensor_id and time_ref_us")
            continue
        spurious.append(SpuriousEvent(sensor_id=sid, time_ref_us=t, amplitude_g=amp))

    kwargs = dict(
        wave_speed_m_s=_get_number(raw, "wave_speed_m_s", "", errors, DEFAULT_WAVE_SPEED_M_S),
        threshold_g=_get_number(raw, "threshold_g", "", errors, DEFAULT_THRESHOLD_G),
        sampling_period_ticks=_get_int(raw, "sampling_period_ticks", "", errors, DEFAULT_SAMPLING_PERIOD_TICKS),
        sync_period_T_us=_get_int(raw, "sync_period_T_us", "", errors, DEFAULT_SYNC_PERIOD_T_US),
        coincidence_window_us=_get_number(raw, "coincidence_window_us", "", errors, DEFAULT_COINCIDENCE_WINDOW_US),
        attenuation_per_m=_get_number(raw, "attenuation_per_m", "", errors, 0.0),
        seed=_get_int(raw, "seed", "", errors, 0),
        run_duration_us=_get_number(raw, "run_duration_us", "", errors, None),
    )

    if geometry is None:
        raise ScenarioError(errors or ["field 'geometry' is required"])
    try:
        scenario = Scenario(
            geometry=geometry,
            drift_ppm=drift,
            network=net,
            ruptures=tuple(ruptures),
            spurious_events=tuple(spurious),
            **kwargs,
        )
    except ScenarioError as e:
        raise ScenarioError(errors + e.problems) from None
    if errors:
        raise ScenarioError(errors)
    return scenario
