"""Sensor save/reset state machine and supervisor period bookkeeping."""

import logging
import math

import pytest
from hypothesis import given, settings, strategies as st

from cablewatch.clock import ClockState
from cablewatch.protocol import PERIOD_TIMEOUT_FRACTION, SensorProtocol, SupervisorProtocol
from cablewatch.wire import (
    MAX_EVENTS_PER_REPORT, ReportEvent, SensorReport, SyncFrame, encode_sensor_report,
)

T_US = 1_000_000


def frame(k, t=T_US):
    return SyncFrame(period_index=k, period_T_us=t)


def sensor(drift_ppm=0.0, sensor_id=2):
    return SensorProtocol(sensor_id=sensor_id, clock=ClockState(drift_ppm=drift_ppm))


def resync_counters(s):
    """(duplicate_syncs, regressions, dropped_frames): which non-reporting
    branch a sync took, if any."""
    return s.duplicate_syncs, s.regressions, s.dropped_frames


class TestSensorOnSync:
    def test_first_sync_emits_nothing_and_resets_counter(self):
        s = sensor(drift_ppm=50.0)
        s.clock.advance(777)
        out = s.on_sync(frame(0))
        assert resync_counters(s) == (0, 0, 0)
        assert out is None
        assert s.clock.read_counter() == 0.0
        assert s.last_seen_period_index == 0

    def test_second_sync_reports_saved_counter_1000050_at_plus_50_ppm(self):
        s = sensor(drift_ppm=50.0)
        s.on_sync(frame(0))
        s.clock.advance(T_US)
        out = s.on_sync(frame(1))
        assert isinstance(out, SensorReport)
        assert out == SensorReport(
            sensor_id=2, period_index=0, saved_counter_ticks=1_000_050, events=()
        )
        assert s.clock.read_counter() == 0.0

    def test_mid_period_event_rides_the_closing_report(self):
        s = sensor(drift_ppm=50.0)
        s.on_sync(frame(0))
        s.clock.advance(T_US / 2)
        ticks = round(s.clock.read_counter())
        assert ticks == 500_025
        s.on_detection(ticks, 1.2)
        s.clock.advance(T_US / 2)
        out = s.on_sync(frame(1))
        assert out.events == (ReportEvent(500_025, 1200),)
        assert out.saved_counter_ticks == 1_000_050

    def test_consecutive_periods_carry_their_own_index(self):
        s = sensor()
        s.on_sync(frame(0))
        s.clock.advance(T_US)
        assert s.on_sync(frame(1)).period_index == 0
        s.clock.advance(T_US)
        assert s.on_sync(frame(2)).period_index == 1

    def test_detection_before_first_sync_is_discarded(self):
        # stamped on the power-on counter, which has no defined start
        s = sensor()
        s.clock.advance(300)
        s.on_detection(300, 0.9)
        out0 = s.on_sync(frame(0))
        assert resync_counters(s) == (0, 0, 0)
        assert out0 is None
        assert s.pending == []
        assert s.discarded_events == 1
        s.clock.advance(T_US)
        assert s.on_sync(frame(1)).events == ()

    def test_duplicate_sync_is_ignored_without_reset(self):
        s = sensor()
        s.on_sync(frame(0))
        s.clock.advance(400)
        out = s.on_sync(frame(0))
        assert resync_counters(s) == (1, 0, 0)
        assert out is None
        assert s.clock.read_counter() == 400.0
        assert s.duplicate_syncs == 1

    def test_period_regression_resynchronizes_without_report(self):
        s = sensor()
        s.on_sync(frame(5))
        s.clock.advance(100)
        s.on_detection(100, 1.0)
        out = s.on_sync(frame(3))
        assert resync_counters(s) == (0, 1, 0)
        assert out is None
        assert s.regressions == 1
        assert s.clock.read_counter() == 0.0
        assert s.last_seen_period_index == 3
        # the abandoned period's event can no longer be retimed
        assert s.pending == []
        assert s.discarded_events == 1
        s.clock.advance(T_US)
        out = s.on_sync(frame(4))
        assert out.period_index == 3
        assert out.events == ()

    def test_missed_frames_are_diagnosed(self):
        s = sensor()
        s.on_sync(frame(0))
        s.clock.advance(3 * T_US)
        out = s.on_sync(frame(3))
        assert resync_counters(s) == (0, 0, 2)
        assert out is None
        assert s.dropped_frames == 2
        assert s.clock.read_counter() == 0.0
        # the next frame in sequence closes period 3 as usual
        s.clock.advance(T_US)
        assert s.on_sync(frame(4)).period_index == 3

    def test_gap_discards_events_of_the_unbracketed_period(self):
        # frame 1 is lost, so an event at 1.5 T lies in period 1, whose
        # start the sensor never saw. Reporting it as period 0 over a 2 T
        # counter would retime it to 750000 us instead of period 1, 500000 us.
        s = sensor()
        s.on_sync(frame(0))
        s.clock.advance(1.5 * T_US)
        s.on_detection(round(s.clock.read_counter()), 1.0)
        s.clock.advance(0.5 * T_US)
        out = s.on_sync(frame(2))
        assert out is None
        assert s.pending == []
        assert s.discarded_events == 1

    def test_boundary_sample_clamped_into_its_period(self):
        # ceiling quantization can stamp a detection a few ticks past the
        # sync receipt; the report keeps it inside the closed period
        s = sensor()
        s.on_sync(frame(0))
        s.clock.advance(10)
        s.on_detection(12, 1.0)
        out = s.on_sync(frame(1))
        assert out.saved_counter_ticks == 10
        assert out.events == (ReportEvent(10, 1000),)
        assert s.clamped_events == 1

    def test_over_limit_report_keeps_the_first_events_and_discards_the_rest(self, caplog):
        # one event past the datagram limit: the report carries the earliest
        # MAX_EVENTS_PER_REPORT stamps and the sensor counts the excess
        s = sensor()
        s.on_sync(frame(0))
        for _ in range(MAX_EVENTS_PER_REPORT + 1):
            s.clock.advance(10)
            s.on_detection(round(s.clock.read_counter()), 1.0)
        s.clock.advance_to(T_US)
        with caplog.at_level(logging.WARNING, logger="cablewatch.protocol"):
            out = s.on_sync(frame(1))
        assert [ev.timestamp_ticks for ev in out.events] == [
            10 * (i + 1) for i in range(MAX_EVENTS_PER_REPORT)
        ]
        assert s.reported_events == MAX_EVENTS_PER_REPORT
        assert s.discarded_events == 1
        assert s.pending == []
        assert len(caplog.records) == 1
        assert "1 event(s) over the 1000-event report limit" in caplog.records[0].getMessage()
        encode_sensor_report(out)  # fits one datagram

    def test_detection_rejects_bad_inputs(self):
        s = sensor()
        with pytest.raises(ValueError):
            s.on_detection(-1, 1.0)
        with pytest.raises(ValueError):
            s.on_detection(4, -0.1)


class TestSensorProperties:
    @settings(max_examples=50)
    @given(
        drift=st.floats(min_value=-50, max_value=50, allow_nan=False),
        offsets=st.lists(
            st.floats(min_value=1.0, max_value=T_US - 1.0), min_size=0, max_size=8
        ),
        periods=st.integers(min_value=1, max_value=4),
    )
    def test_conservation_and_timestamps_within_period(self, drift, offsets, periods):
        # every detection injected after the first sync comes back in exactly
        # one report, timestamped no later than the period's saved counter
        s = sensor(drift_ppm=drift)
        s.on_sync(frame(0))
        injected = 0
        reported = []
        for k in range(periods):
            period_start = s.clock.ref_now_us
            for off in sorted(offsets):
                s.clock.advance_to(period_start + off)
                s.on_detection(round(s.clock.read_counter()), 1.0)
                injected += 1
            s.clock.advance_to(period_start + T_US)
            out = s.on_sync(frame(k + 1))
            assert out is not None
            reported.append(out)
        assert sum(len(r.events) for r in reported) == injected
        assert not s.pending
        for r in reported:
            for ev in r.events:
                assert ev.timestamp_ticks <= r.saved_counter_ticks


class TestSupervisorTick:
    def test_emits_on_schedule_points_only(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        f0 = sup.tick()
        assert f0 == SyncFrame(0, T_US)
        f1 = sup.tick()
        assert f1 == SyncFrame(1, T_US)
        f2 = sup.tick()
        assert f2.period_index == 2

    def test_indices_strictly_increase(self):
        sup = SupervisorProtocol(roster=[1], period_t_us=T_US)
        seen = [sup.tick().period_index for _ in range(5)]
        assert seen == [0, 1, 2, 3, 4]


def rep(sensor_id, period=0, saved=T_US, events=()):
    return SensorReport(sensor_id, period, saved, tuple(events))


class TestSupervisorOnReport:
    def test_roster_completion_releases_sorted_reports(self):
        sup = SupervisorProtocol(roster=[3, 1, 2], period_t_us=T_US)
        assert sup.on_report(rep(2)) is None
        assert sup.on_report(rep(3)) is None
        done = sup.on_report(rep(1))
        assert done is not None
        assert done.complete
        assert done.period_index == 0
        assert [r.sensor_id for r in done.reports] == [1, 2, 3]
        assert done.missing == ()

    def test_completion_is_arrival_order_independent(self):
        import itertools

        for order in itertools.permutations([1, 2, 3]):
            sup = SupervisorProtocol(roster=[1, 2, 3], period_t_us=T_US)
            results = [sup.on_report(rep(sid)) for sid in order]
            assert [r is not None for r in results] == [False, False, True]

    def test_duplicate_keeps_first(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        sup.on_report(rep(1, saved=100))
        assert sup.on_report(rep(1, saved=999)) is None
        assert sup.duplicate_reports == 1
        done = sup.on_report(rep(2))
        kept = {r.sensor_id: r for r in done.reports}
        assert kept[1].saved_counter_ticks == 100

    def test_unknown_sensor_rejected(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        assert sup.on_report(rep(9)) is None
        assert sup.unknown_reports == 1
        # and it does not count toward completion
        assert sup.on_report(rep(1)) is None

    def test_late_report_for_released_period_discarded(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        sup.on_report(rep(1))
        sup.on_report(rep(2))
        assert sup.on_report(rep(1)) is None
        assert sup.late_reports == 1

    def test_reports_file_under_their_own_period(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        assert sup.on_report(rep(1, period=0)) is None
        assert sup.on_report(rep(1, period=1)) is None
        done0 = sup.on_report(rep(2, period=0))
        assert done0.period_index == 0
        done1 = sup.on_report(rep(2, period=1))
        assert done1.period_index == 1


class TestSupervisorExpire:
    def test_timeout_releases_partial_period(self):
        sup = SupervisorProtocol(roster=[1, 2, 3], period_t_us=T_US)
        sup.on_report(rep(1))
        done = sup.expire(0)
        assert done is not None
        assert not done.complete
        assert [r.sensor_id for r in done.reports] == [1]
        assert done.missing == (2, 3)

    def test_expire_after_completion_is_a_no_op(self):
        sup = SupervisorProtocol(roster=[1], period_t_us=T_US)
        assert sup.on_report(rep(1)) is not None
        assert sup.expire(0) is None

    def test_expire_of_silent_period_releases_empty(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        done = sup.expire(4)
        assert done.reports == ()
        assert done.missing == (1, 2)

    def test_released_records_every_release_once(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        sup.on_report(rep(1, period=0))
        expired = sup.expire(1)
        completed = sup.on_report(rep(2, period=0))
        assert sup.expire(0) is None
        assert sup.released == {0: completed, 1: expired}
        assert completed.complete and not expired.complete

    def test_report_after_expiry_is_late(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        sup.expire(0)
        assert sup.on_report(rep(1)) is None
        assert sup.late_reports == 1


def ticked(roster, frames):
    sup = SupervisorProtocol(roster=roster, period_t_us=T_US)
    for _ in range(frames):
        sup.tick()
    return sup


# period 0 is closed by frame 1, sent at T, and its reports are due by then
# plus PERIOD_TIMEOUT_FRACTION*T
DEADLINE_0 = T_US + PERIOD_TIMEOUT_FRACTION * T_US


class TestSupervisorReleaseDue:
    def test_report_at_the_deadline_instant_is_on_time(self):
        sup = ticked([1, 2], frames=2)
        sup.on_report(rep(1))
        assert sup.release_due(DEADLINE_0) == []
        assert 0 not in sup.released
        done = sup.on_report(rep(2))
        assert done.complete
        assert sup.late_reports == 0

    def test_period_past_its_deadline_is_released_partial(self):
        sup = ticked([1, 2], frames=2)
        sup.on_report(rep(1))
        [done] = sup.release_due(math.nextafter(DEADLINE_0, math.inf))
        assert (done.period_index, done.complete, done.missing) == (0, False, (2,))
        assert sup.released == {0: done}
        assert sup.on_report(rep(2)) is None
        assert sup.late_reports == 1

    def test_only_periods_a_sent_frame_closed_are_released(self):
        sup = ticked([1, 2], frames=3)
        assert [p.period_index for p in sup.release_due(math.inf)] == [0, 1]
        assert sup.release_due(math.inf) == []
        assert sorted(sup.released) == [0, 1]
        # the frame that closes period 2 releases it
        sup.tick()
        assert [p.period_index for p in sup.release_due(math.inf)] == [2]

    def test_completed_period_is_neither_released_again_nor_returned(self):
        sup = ticked([1, 2], frames=3)
        sup.on_report(rep(1, period=0))
        completed = sup.on_report(rep(2, period=0))
        [expired] = sup.release_due(math.inf)
        assert expired.period_index == 1
        assert sup.released == {0: completed, 1: expired}

    def test_nothing_is_released_before_any_frame(self):
        sup = SupervisorProtocol(roster=[1, 2], period_t_us=T_US)
        assert sup.release_due(math.inf) == []
        assert sup.released == {}


class TestSupervisorValidation:
    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError, match="roster"):
            SupervisorProtocol(roster=[], period_t_us=T_US)

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            SupervisorProtocol(roster=[1], period_t_us=0)
