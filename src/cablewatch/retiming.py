"""Ratiometric mapping of local event timestamps onto the reference timescale.

A sensor reports an event at T_evi ticks of its own drifting clock, plus the
total T_i ticks its clock counted over the sync period. Because a constant
drift scales both numbers identically, the ratio T_evi / T_i is drift-free;
multiplying by the nominal period length T recovers the event's offset from
the period start in reference microseconds:

    retimed = T_evi * T / T_i

No sensor ever learns the reference clock; the division cancels its rate
error instead. The mapping is exact only for events stamped inside one
announced period whose start and end the sensor saw; the sensor protocol
discards every other stamp before it reaches a report.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .wave import tuple_record
from .wire import SensorReport

# flag values attached to events that could not be retimed
FLAG_ZERO_COUNTER = "zero_counter"
FLAG_OUT_OF_PERIOD = "out_of_period"


class RetimeError(ValueError):
    """An event timestamp cannot be mapped onto the reference timescale."""


class RetimedEvent(NamedTuple):
    """One detection after retiming.

    retimed_us is the event's offset from the period start on the reference
    timescale, NaN when flag is set. raw_ticks preserves the local timestamp
    as reported.
    """

    sensor_id: int
    period_index: int
    retimed_us: float
    raw_ticks: int
    amplitude_g: float
    flag: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.flag is None


_retimed_event = tuple_record(RetimedEvent)


def retime(t_evi_ticks: float, t_i_ticks: float, period_t_us: float) -> float:
    """Map one local timestamp onto the reference timescale.

    Args:
        t_evi_ticks: event timestamp, local ticks since the period started.
        t_i_ticks: the sensor's counter over the whole period (saved at sync).
        period_t_us: nominal period length announced in the sync frame.

    Returns:
        Event offset from period start, reference microseconds, in [0, T].

    Raises:
        RetimeError: T_i of zero means a malformed report (a period cannot be
            empty of time); an event stamped after T_i is out of its period.
    """
    if not period_t_us > 0:
        raise RetimeError(f"period T must be > 0, got {period_t_us!r}")
    if t_i_ticks <= 0:
        raise RetimeError(f"period counter must be > 0, got {t_i_ticks!r}")
    if t_evi_ticks < 0:
        raise RetimeError(f"event timestamp must be >= 0, got {t_evi_ticks!r}")
    if t_evi_ticks > t_i_ticks:
        raise RetimeError(
            f"event at {t_evi_ticks} ticks is outside its period (T_i={t_i_ticks})"
        )
    return t_evi_ticks * period_t_us / t_i_ticks


def align_period(
    reports: Iterable[SensorReport], period_t_us: float
) -> list[RetimedEvent]:
    """Retime every event of one period's reports onto a shared timescale.

    Each event goes through retime. One it refuses comes back flagged
    rather than failing the whole period: zero_counter when the report's
    T_i <= 0, out_of_period otherwise.

    Returns:
        Valid events sorted by (retimed_us, sensor_id), then flagged events
        sorted by (sensor_id, raw_ticks).
    """
    reports = list(reports)
    indices = {r.period_index for r in reports}
    if len(indices) > 1:
        raise ValueError(f"reports span several periods: {sorted(indices)}")
    valid: list[RetimedEvent] = []
    flagged: list[RetimedEvent] = []
    for r in reports:
        sid, k, t_i = r.sensor_id, r.period_index, r.saved_counter_ticks
        for ticks, milli_g in r.events:
            amp = milli_g / 1000.0
            try:
                valid.append(_retimed_event((sid, k, retime(ticks, t_i, period_t_us), ticks, amp, None)))
            except RetimeError:
                flag = FLAG_ZERO_COUNTER if t_i <= 0 else FLAG_OUT_OF_PERIOD
                flagged.append(RetimedEvent(sid, k, math.nan, ticks, amp, flag))
    _sort_by_time(valid)
    # by (sensor_id, raw_ticks)
    flagged.sort(key=itemgetter(3))
    flagged.sort(key=itemgetter(0))
    return valid + flagged


def _sort_by_time(events: list[RetimedEvent]) -> None:
    """Sort events in place by (retimed_us, sensor_id), ties kept in order.

    Two stable sorts on one field each: the same order as one sort on the
    pair, without building a key tuple per event.
    """
    events.sort(key=itemgetter(0))
    events.sort(key=itemgetter(2))


def cluster_events(events: Iterable[RetimedEvent], window_us: float) -> list[list[RetimedEvent]]:
    """Group valid retimed events into coincidence clusters.

    Greedy in retimed-time order: an event joins the open cluster while it
    falls within window_us of the cluster's first event, otherwise it starts
    a new one. Flagged events never cluster.
    """
    if not window_us > 0:
        raise ValueError(f"coincidence window must be > 0, got {window_us!r}")
    valid = [e for e in events if e.flag is None]
    _sort_by_time(valid)
    clusters: list[list[RetimedEvent]] = []
    for e in valid:
        if clusters and e.retimed_us - start_us <= window_us:
            cluster.append(e)
        else:
            cluster, start_us = [e], e.retimed_us
            clusters.append(cluster)
    return clusters
