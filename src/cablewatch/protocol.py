"""Sensor and supervisor state machines for the save/reset sync protocol.

The supervisor broadcasts a sync frame once per period. On receipt, a sensor
atomically saves and resets its local counter, then reports the saved value
together with every event it timestamped during the period just closed.

A report is only meaningful for a period whose start and end the sensor both
saw: retimed = T_evi * T / T_i needs T_i to span exactly one announced
period. So a sync reports only when its index is the last one seen plus one;
that index, the open period, is -1 before the first sync. A first sync, a
regressed index or a gap of missed frames instead restarts the counter and
discards the pending events, which were stamped against a counter with no
defined start. A report is one datagram, so it carries the earliest
MAX_EVENTS_PER_REPORT pending events and the sensor discards the rest. These
are the rules for simulated and live runs alike; nothing beyond the wire
report ever leaves the sensor.

The supervisor files reports per period and releases a period once every
roster sensor has reported, or partial at its deadline, naming the sensors
still missing; one rule, release_due, applies the deadline for simulated
and live runs alike: period k's reports are due PERIOD_TIMEOUT_FRACTION*T
after the frame that closes it leaves, at (k + 1)*T. Its `released` map is
the one record of released periods: both modes post-process it as it stands.

Both machines are single-owner and event-driven: callers deliver one message
at a time and nothing here touches sockets or wall clocks. Each keeps its own
diagnostic counters (duplicates, regressions, missed frames, reported,
discarded and clamped events; late, duplicate and unknown reports), so
drivers read outcomes there instead of keeping tallies of their own.
"""

from __future__ import annotations

import logging
from typing import NamedTuple, Optional

from .clock import ClockState
from .wave import is_integer, tuple_record
from .wire import MAX_EVENTS_PER_REPORT, ReportEvent, SensorReport, SyncFrame
from .wire import _report_event, _sensor_report, _sync_frame

log = logging.getLogger(__name__)

# the wait for a period's reports past the frame that closes it, over T
PERIOD_TIMEOUT_FRACTION = 0.5


class SensorProtocol:
    """Sensor-side state: a drifting clock plus the pending event queue."""

    def __init__(self, sensor_id: int, clock: ClockState):
        self.sensor_id = sensor_id
        self.clock = clock
        self.pending: list[ReportEvent] = []
        # the open period: the index of the last sync seen, -1 before the first
        self.last_seen_period_index = -1
        # diagnostics
        self.duplicate_syncs = 0
        self.regressions = 0
        self.dropped_frames = 0
        self.reported_events = 0
        self.discarded_events = 0
        self.clamped_events = 0

    def on_detection(self, local_timestamp_ticks: int, amplitude_g: float) -> None:
        """Queue one detection, already quantized to the sampling grid."""
        if local_timestamp_ticks < 0:
            raise ValueError(f"timestamp must be >= 0, got {local_timestamp_ticks!r}")
        if amplitude_g < 0:
            raise ValueError(f"amplitude must be >= 0, got {amplitude_g!r}")
        # (timestamp_ticks, amplitude_milli_g): the one rounding of g to whole milli-g
        self.pending.append(_report_event((int(local_timestamp_ticks), round(amplitude_g * 1000))))

    def on_sync(self, frame: SyncFrame) -> Optional[SensorReport]:
        """Handle one sync receipt; returns the report to send, if any."""
        last = self.last_seen_period_index
        k = frame.period_index
        if last != -1 and k == last + 1:
            # the usual case: the next period, which closes the last one
            self.last_seen_period_index = k
            saved = round(self.clock.save_and_reset())
            if not self.pending:  # nothing stamped: the header alone
                return _sensor_report((self.sensor_id, last, saved, ()))
            return self._report(last, saved)
        if k == last:
            # the same period announced twice: a replayed datagram. Resetting
            # again would zero the counter mid-period, so ignore it.
            self.duplicate_syncs += 1
            log.debug("sensor %d: duplicate sync for period %d", self.sensor_id, k)
            return None

        self.clock.save_and_reset()
        self.last_seen_period_index = k
        if last != -1 and k < last:
            # the broadcast sequence went backwards (supervisor restart)
            self.regressions += 1
            log.warning(
                "sensor %d: sync period regressed %d -> %d, resynchronizing",
                self.sensor_id, last, k,
            )
        elif last != -1:
            missed = k - last - 1
            self.dropped_frames += missed
            log.warning(
                "sensor %d: %d sync frame(s) missed before period %d, resynchronizing",
                self.sensor_id, missed, k,
            )
        # first sync, regression or gap: no announced period brackets
        # these stamps, so none can be retimed
        self.discarded_events += len(self.pending)
        self.pending.clear()
        return None

    def _report(self, period_index: int, saved_ticks: int) -> SensorReport:
        events = self.pending
        # a report is one datagram: the earliest stamps ride it, the rest
        # are discarded here, where the sensor can still count them
        excess = len(events) - MAX_EVENTS_PER_REPORT
        if excess > 0:
            self.discarded_events += excess
            del events[MAX_EVENTS_PER_REPORT:]
            log.warning(
                "sensor %d: %d event(s) over the %d-event report limit "
                "discarded from period %d",
                self.sensor_id, excess, MAX_EVENTS_PER_REPORT, period_index,
            )
        for i, (ticks, milli_g) in enumerate(events):
            if ticks > saved_ticks:
                # ceiling quantization can push a detection sampled just
                # before the sync past the period end; keep it in its period
                events[i] = _report_event((saved_ticks, milli_g))
                self.clamped_events += 1
        report = _sensor_report((self.sensor_id, period_index, saved_ticks, tuple(events)))
        self.reported_events += len(events)
        events.clear()
        return report


class CompletedPeriod(NamedTuple):
    """A period released for retiming: every roster report, or a timeout cut."""

    period_index: int
    reports: tuple[SensorReport, ...]
    missing: tuple[int, ...]  # roster sensors without a report, ascending

    @property
    def complete(self) -> bool:
        # on_report releases a full bucket at once, so expire never sees one
        return not self.missing


_completed_period = tuple_record(CompletedPeriod)


class SupervisorProtocol:
    """Supervisor-side state: broadcast schedule and per-period report filing."""

    def __init__(self, roster, period_t_us: int):
        # every frame carries T, so it is what Scenario accepts and the wire
        # encodes: an int >= 1, never a bool or a float
        if not is_integer(period_t_us) or period_t_us < 1:
            raise ValueError(f"period_t_us must be a positive integer, got {period_t_us!r}")
        self.roster = frozenset(roster)
        if not self.roster:
            raise ValueError("roster must not be empty")
        self.period_t_us = period_t_us
        self.next_period_index = 0
        self._open: dict[int, dict[int, SensorReport]] = {}
        self._next_due = 0  # the oldest period release_due has not checked
        # every period released so far, by index, in release order
        self.released: dict[int, CompletedPeriod] = {}
        # diagnostics
        self.duplicate_reports = 0
        self.unknown_reports = 0
        self.late_reports = 0

    def tick(self) -> SyncFrame:
        """Emit the next sync frame; NetworkModel.broadcast_sync sends frame k at k * T."""
        frame = _sync_frame((self.next_period_index, self.period_t_us))
        self.next_period_index += 1
        return frame

    def on_report(self, report: SensorReport) -> Optional[CompletedPeriod]:
        """File one report; returns the period when the roster completes it."""
        sid, k = report.sensor_id, report.period_index
        if sid not in self.roster:
            self.unknown_reports += 1
            log.warning("report from unknown sensor %d rejected", sid)
            return None
        if k in self.released:
            self.late_reports += 1
            log.warning("late report from sensor %d for closed period %d discarded", sid, k)
            return None
        bucket = self._open.get(k)
        if bucket is None:
            bucket = self._open[k] = {}
        elif sid in bucket:
            self.duplicate_reports += 1
            log.warning(
                "duplicate report from sensor %d for period %d ignored (kept first)", sid, k
            )
            return None
        bucket[sid] = report
        # the bucket holds roster sensors only, so a full one is the roster
        if len(bucket) == len(self.roster):
            return self._release(k)
        return None

    def expire(self, period_index: int) -> Optional[CompletedPeriod]:
        """Timeout path: release whatever the period has collected so far."""
        if period_index in self.released:
            return None
        self._open.setdefault(period_index, {})
        return self._release(period_index)

    def release_due(self, now_us: float) -> list[CompletedPeriod]:
        """Expire, oldest first, every period a sent frame has closed whose
        deadline, (k + 1)*T + PERIOD_TIMEOUT_FRACTION*T, lies strictly before
        now_us; returns the periods released partial here."""
        t_us = self.period_t_us
        closed = self.next_period_index - 1
        expired = []
        k = self._next_due
        while k < closed and (k + 1) * t_us + PERIOD_TIMEOUT_FRACTION * t_us < now_us:
            done = self.expire(k)
            if done is not None:
                expired.append(done)
            k += 1
        self._next_due = k
        return expired

    def _release(self, period_index: int) -> CompletedPeriod:
        bucket = self._open.pop(period_index)
        # reports by sensor id; a full bucket holds the whole roster
        done = self.released[period_index] = _completed_period((
            period_index,
            tuple([bucket[sid] for sid in sorted(bucket)]),
            tuple(sorted(self.roster - bucket.keys())),
        ))
        return done
