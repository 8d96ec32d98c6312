"""Deterministic link timing for simulation.

The model says when each datagram lands, or that it is lost; it never holds
the datagram. This module holds the link's timing, and scenario its
configuration (NetworkConfig), the rules that check it and each sensor's RF
delay (Scenario.rf_delays_us): Scenario.network_model() derives the model
from a validated scenario, so the model checks nothing again. Each sensor's
radio sits at its cable position. Sync broadcasts and report unicasts take
the RF delay (rf_delay_us: the distance to the supervisor over RF_SPEED_M_S)
plus a per-receiver processing latency with bounded jitter. Sync frame k
leaves at k * T, so a sync draw takes only k; a report leaves at its
sensor's own receipt, which varies, so report_delivery takes that instant.
All jitter and loss draws are keyed by (seed, message kind, period index,
sensor id), so a run is a pure function of its scenario and seed; two runs
never disagree because of dict ordering or shared RNG state.

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

No run dispatches through an event loop: simulate.run sorts the report
deliveries itself, and SupervisorProtocol applies the period deadline;
EventLoop keeps the two names the benchmark's tracer wraps (ROADMAP item 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .scenario import Scenario

KIND_SYNC = "sync"
KIND_REPORT = "report"
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


# the radio signal's speed between the supervisor and a sensor
RF_SPEED_M_S = 180e6


def rf_delay_us(supervisor_position_m: float, position_m: float, speed_m_s: float) -> float:
    """Line-of-sight RF travel time between the supervisor and one radio,
    microseconds: the one statement of the link's propagation delay."""
    return abs(supervisor_position_m - position_m) / speed_m_s * 1e6


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
        object.__setattr__(self, "_supervisor_delay_us", scenario.rf_delays_us())
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
        return None if dropped else now_ref_us + delay + latency

    def sync_receipt_at(self, period_index: int, sensor_id: int) -> Optional[float]:
        """Receipt instant of sync frame period_index at one sensor, None if lost."""
        sent_us = period_index * self.scenario.sync_period_T_us
        return self._receipt(self._prefix(KIND_SYNC, period_index), sent_us, sensor_id)

    def broadcast_sync(self, period_index: int) -> list[tuple[float, int]]:
        """(receipt instant, sensor id) of sync frame period_index, sent at
        period_index * T, at every sensor that receives it, in sensor-id order:
        each sensor's sync_receipt_at, with the frame's prefix computed once."""
        prefix = self._prefix(KIND_SYNC, period_index)
        sent_us = period_index * self.scenario.sync_period_T_us
        draw = self._draw
        receipts = []
        for sid, delay in self._supervisor_delay_us.items():
            dropped, latency = draw(prefix, sid)
            if not dropped:
                receipts.append((sent_us + delay + latency, sid))
        return receipts

    def report_delivery(self, now_ref_us: float, period_index: int, sensor_id: int) -> Optional[float]:
        """Delivery instant of one sensor's report at the supervisor, None if lost."""
        return self._receipt(self._prefix(KIND_REPORT, period_index), now_ref_us, sensor_id)


class EventLoop:
    """Retired (ROADMAP item 5): only the benchmark's tracer names these two methods."""

    def schedule(self, at_ref_us, kind, node, action):
        raise NotImplementedError("EventLoop is retired (ROADMAP item 5)")

    def run(self):
        raise NotImplementedError("EventLoop is retired (ROADMAP item 5)")
