"""Deterministic link timing for simulation.

The model says when each datagram lands, or that it is lost; it never holds
the datagram. Sync broadcasts and report unicasts take propagation delay
(distance over RF speed) plus a per-receiver processing latency with bounded
jitter. All jitter and loss draws are keyed by (seed, message kind, period
index, sensor id), so a run is a pure function of its scenario and seed; two
runs never disagree because of dict ordering or shared RNG state.

The draws come from a counter-based generator (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011): splitmix64 steps (Steele, Lea
& Flood, OOPSLA 2014) absorb the message kind, period index and sensor id
into a 64-bit key derived once per model from the seed, and two more steps
give two 53-bit uniforms. Each step is a bijection of 64-bit integers, so
keys that differ only in kind, period index or sensor id never share a hash.

No run dispatches through EventLoop, which stays only for the benchmark's
tracer until ROADMAP item 5 step 1: simulate.run sorts the report
deliveries itself, and SupervisorProtocol applies the period deadline.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

DEFAULT_RF_SPEED_M_S = 180e6
DEFAULT_LATENCY_MEAN_US = 20.0
DEFAULT_LATENCY_JITTER_US = 1.0

SUPERVISOR_NODE = "supervisor"

Node = Union[int, str]

KIND_SYNC = "sync"
KIND_REPORT = "report"
KIND_TIMER = "timer"
_KIND_RANK = {KIND_REPORT: 0, KIND_TIMER: 1}
_KIND_CODE = {KIND_SYNC: 1, KIND_REPORT: 2}

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_UNIT_53 = 2.0 ** -53


def _splitmix64(z: int) -> int:
    """The splitmix64 output for state z: a bijection of 64-bit integers."""
    z = (z + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def link_problems(link, prefix: str = "") -> list[str]:
    """Every broken rule of a radio link's parameters, each field named
    after prefix: finite latencies and supervisor position (None, a position
    left to the cable geometry, passes), a positive RF speed, a jitter
    half-width no wider than the mean latency, so that no message finishes
    processing before it arrives, and a drop probability in [0, 1]. link is
    anything with those five fields (scenario.NetworkConfig, NetworkModel)."""
    out = []
    mean, jitter = link.latency_mean_us, link.latency_jitter_us
    for name in ("latency_mean_us", "latency_jitter_us", "supervisor_position_m"):
        value = getattr(link, name)
        if value is not None and not math.isfinite(value):
            out.append(f"{prefix}{name} must be finite, got {value!r}")
    if not link.rf_speed_m_s > 0:
        out.append(f"{prefix}rf_speed_m_s must be > 0, got {link.rf_speed_m_s!r}")
    if jitter < 0:
        out.append(f"{prefix}latency_jitter_us must be >= 0, got {jitter!r}")
    if mean < jitter:
        out.append(f"{prefix}latency_mean_us must be >= latency_jitter_us ({mean!r} < {jitter!r})")
    if not 0.0 <= link.drop_probability <= 1.0:
        out.append(f"{prefix}drop_probability must be in [0, 1], got {link.drop_probability!r}")
    return out


@dataclass(frozen=True)
class NetworkModel:
    """Radio geometry plus latency/loss behavior, all seed-deterministic."""

    sensor_positions_m: Mapping[int, float]
    supervisor_position_m: float = 0.0
    rf_speed_m_s: float = DEFAULT_RF_SPEED_M_S
    latency_mean_us: float = DEFAULT_LATENCY_MEAN_US
    latency_jitter_us: float = DEFAULT_LATENCY_JITTER_US
    drop_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensor_positions_m", dict(self.sensor_positions_m))
        problems = link_problems(self)
        if problems:
            raise ValueError("; ".join(problems))
        for sid, pos in self.sensor_positions_m.items():
            if not math.isfinite(pos):
                raise ValueError(f"sensor {sid} position must be finite, got {pos!r}")
        # one seeding per model; it separates every int seed, negative or wide
        key = random.Random(f"{self.seed}|network").getrandbits(64)
        object.__setattr__(
            self, "_kind_keys", {k: _splitmix64(key ^ c) for k, c in _KIND_CODE.items()}
        )
        # RF delay to the supervisor, which is also the report's, in sensor-id order
        object.__setattr__(self, "_supervisor_delay_us", {
            sid: self.propagation_delay_us(SUPERVISOR_NODE, sid)
            for sid in sorted(self.sensor_positions_m)
        })

    def node_position(self, node: Node) -> float:
        if node == SUPERVISOR_NODE:
            return self.supervisor_position_m
        try:
            return self.sensor_positions_m[node]
        except KeyError:
            raise ValueError(f"unknown node {node!r}") from None

    def propagation_delay_us(self, node_a: Node, node_b: Node) -> float:
        """Line-of-sight RF travel time between two nodes, microseconds."""
        d = abs(self.node_position(node_a) - self.node_position(node_b))
        return d / self.rf_speed_m_s * 1e6

    def _supervisor_delay(self, sensor_id: int) -> float:
        try:
            return self._supervisor_delay_us[sensor_id]
        except KeyError:
            raise ValueError(f"unknown node {sensor_id!r}") from None

    def _draws(self, kind: str, period_index: int, sensor_id: int) -> tuple[bool, float]:
        """(dropped, latency_us) for one receiver, fully keyed by inputs."""
        h = _splitmix64(self._kind_keys[kind] ^ (period_index & _MASK64))
        h = _splitmix64(h ^ (sensor_id & _MASK64))
        dropped = (h >> 11) * _UNIT_53 < self.drop_probability
        u = (_splitmix64(h) >> 11) * _UNIT_53
        j = self.latency_jitter_us
        return dropped, self.latency_mean_us + (-j + 2.0 * j * u)  # mean + uniform(-j, j)

    def _receipt(
        self, kind: str, now_ref_us: float, period_index: int, sensor_id: int
    ) -> Optional[float]:
        """When one datagram between the supervisor and a sensor lands, None
        if lost: the RF delay, plus the keyed latency draw, minus a drop."""
        delay = self._supervisor_delay(sensor_id)
        dropped, latency = self._draws(kind, period_index, sensor_id)
        if dropped:
            return None
        return now_ref_us + delay + latency

    def sync_receipt_at(self, now_ref_us: float, period_index: int, sensor_id: int) -> Optional[float]:
        """Receipt instant of one sync broadcast at one sensor, None if lost."""
        return self._receipt(KIND_SYNC, now_ref_us, period_index, sensor_id)

    def broadcast_sync(self, now_ref_us: float, period_index: int) -> list[tuple[float, int]]:
        """(receipt instant, sensor id) of one sync frame at every sensor that
        receives it, in sensor-id order."""
        receipts = []
        for sid in self._supervisor_delay_us:
            at = self.sync_receipt_at(now_ref_us, period_index, sid)
            if at is not None:
                receipts.append((at, sid))
        return receipts

    def report_delivery(self, now_ref_us: float, period_index: int, sensor_id: int) -> Optional[float]:
        """Delivery instant of one sensor's report at the supervisor, None if lost."""
        return self._receipt(KIND_REPORT, now_ref_us, period_index, sensor_id)


class EventLoop:
    """Single-threaded dispatch of scheduled actions in reference-time order.

    No run uses it: it stays only for the benchmark's tracer, which imports
    and wraps it, until ROADMAP item 5 step 1."""

    def __init__(self):
        self.now_ref_us = 0.0
        self._heap: list[tuple[float, int, int, int, Callable[[float], None]]] = []
        self._seq = 0

    @staticmethod
    def _node_rank(node: Node) -> int:
        return -1 if node == SUPERVISOR_NODE else int(node)

    def schedule(
        self, at_ref_us: float, kind: str, node: Node, action: Callable[[float], None]
    ) -> None:
        """Queue an action; scheduling into the past breaks causality."""
        if at_ref_us < self.now_ref_us:
            raise ValueError(
                f"cannot schedule at {at_ref_us} before now={self.now_ref_us}"
            )
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown event kind {kind!r}")
        heapq.heappush(
            self._heap,
            (at_ref_us, _KIND_RANK[kind], self._node_rank(node), self._seq, action),
        )
        self._seq += 1

    def run(self) -> int:
        """Dispatch until the queue drains; returns the number dispatched."""
        n = 0
        while self._heap:
            at, _, _, _, action = heapq.heappop(self._heap)
            self.now_ref_us = at
            action(at)
            n += 1
        return n
