"""Deterministic link timing for simulation.

The model says when each datagram lands, or that it is lost; it never holds
the datagram. This module holds the link's timing, and scenario its
configuration (NetworkConfig) and the rules that check it:
Scenario.network_model() derives the model from a validated scenario, so the
model checks nothing again. Sync broadcasts and report unicasts take the RF
delay (rf_delay_us: distance over RF speed) plus a per-receiver processing
latency with bounded jitter. All jitter and loss draws are keyed by (seed,
message kind, period index, sensor id), so a run is a pure function of its
scenario and seed; two runs never disagree because of dict ordering or
shared RNG state.

The draws come from a counter-based generator (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC 2011): splitmix64 steps (Steele, Lea
& Flood, OOPSLA 2014) absorb the message kind, period index and sensor id
into a 64-bit key derived once per model from the seed, and give two 53-bit
uniforms. Each step is a bijection of 64-bit integers, so keys that differ
only in kind, period index or sensor id never share a hash. The first step
makes a (kind, period) prefix that every receiver of one message shares, and
a broadcast computes it once per frame; one kernel, NetworkModel._draw, then
takes the prefix and a sensor id to that receiver's loss and latency.
broadcast_sync, sync_receipt_at and report_delivery all draw through it.

No run dispatches through EventLoop, which stays only for the benchmark's
tracer until ROADMAP item 5 step 1: simulate.run sorts the report
deliveries itself, and SupervisorProtocol applies the period deadline.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:
    from .scenario import Scenario

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


def rf_delay_us(supervisor_position_m: float, position_m: float, rf_speed_m_s: float) -> float:
    """Line-of-sight RF travel time between the supervisor and one radio,
    microseconds: the one statement of the link's propagation delay."""
    return abs(supervisor_position_m - position_m) / rf_speed_m_s * 1e6


@dataclass(frozen=True)
class NetworkModel:
    """The radio link of one validated scenario, seed-deterministic; build it
    with Scenario.network_model()."""

    scenario: Scenario

    def __post_init__(self) -> None:
        scenario = self.scenario
        link = scenario.network
        # one seeding per model; it separates every int seed, negative or wide
        key = random.Random(f"{scenario.seed}|network").getrandbits(64)
        object.__setattr__(
            self, "_kind_keys", {k: _splitmix64(key ^ c) for k, c in _KIND_CODE.items()}
        )
        # RF delay to the supervisor, which is also the report's, in sensor-id order
        sup, positions = scenario.radio_positions()
        rf = link.rf_speed_m_s
        object.__setattr__(self, "_supervisor_delay_us", {
            sid: rf_delay_us(sup, positions[sid], rf) for sid in sorted(positions)
        })
        object.__setattr__(self, "_drop_probability", link.drop_probability)
        # latency is mean + uniform(-j, j), written mean + (-j + 2j*u)
        j = link.latency_jitter_us
        object.__setattr__(self, "_latency_terms", (link.latency_mean_us, -j, 2.0 * j))

    def _prefix(self, kind: str, period_index: int) -> int:
        """The key that every receiver's draw for one message shares: the
        model's key for kind with the period index absorbed."""
        return _splitmix64(self._kind_keys[kind] ^ (period_index & _MASK64))

    def _draw(self, prefix: int, sensor_id: int) -> tuple[bool, float]:
        """(dropped, latency_us) for one receiver of the message keyed by
        prefix: the one draw kernel. Two splitmix64 steps, inlined: the
        first absorbs the sensor id and gives the drop uniform, the second
        gives the latency uniform."""
        z = ((prefix ^ (sensor_id & _MASK64)) + _GOLDEN_GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
        z = (h + _GOLDEN_GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        mean, minus_j, two_j = self._latency_terms
        p = self._drop_probability
        # a uniform is never below 0: a lossless link skips the comparison
        return (
            p > 0.0 and (h >> 11) * _UNIT_53 < p,
            mean + (minus_j + two_j * (((z ^ (z >> 31)) >> 11) * _UNIT_53)),
        )

    def _receipt(self, prefix: int, now_ref_us: float, sensor_id: int) -> Optional[float]:
        """When one datagram between the supervisor and a sensor lands, None
        if lost: the RF delay, plus the keyed latency draw, minus a drop."""
        try:
            delay = self._supervisor_delay_us[sensor_id]
        except KeyError:
            raise ValueError(f"unknown node {sensor_id!r}") from None
        dropped, latency = self._draw(prefix, sensor_id)
        if dropped:
            return None
        return now_ref_us + delay + latency

    def sync_receipt_at(self, now_ref_us: float, period_index: int, sensor_id: int) -> Optional[float]:
        """Receipt instant of one sync broadcast at one sensor, None if lost."""
        return self._receipt(self._prefix(KIND_SYNC, period_index), now_ref_us, sensor_id)

    def broadcast_sync(self, now_ref_us: float, period_index: int) -> list[tuple[float, int]]:
        """(receipt instant, sensor id) of one sync frame at every sensor that
        receives it, in sensor-id order: each sensor's sync_receipt_at, with
        the frame's prefix computed once."""
        prefix = self._prefix(KIND_SYNC, period_index)
        draw = self._draw
        receipts = []
        for sid, delay in self._supervisor_delay_us.items():
            dropped, latency = draw(prefix, sid)
            if not dropped:
                receipts.append((now_ref_us + delay + latency, sid))
        return receipts

    def report_delivery(self, now_ref_us: float, period_index: int, sensor_id: int) -> Optional[float]:
        """Delivery instant of one sensor's report at the supervisor, None if lost."""
        return self._receipt(self._prefix(KIND_REPORT, period_index), now_ref_us, sensor_id)


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
