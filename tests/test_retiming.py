"""Ratiometric retiming: worked values, alignment, clustering, error bounds."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cablewatch.retiming import (
    FLAG_OUT_OF_PERIOD,
    FLAG_ZERO_COUNTER,
    RetimeError,
    align_period,
    cluster_events,
    retime,
)
from cablewatch.wire import ReportEvent, SensorReport

from helpers import run_sensor_period

T_US = 1_000_000


def exact_retime(t_ev, t_i, t) -> Fraction:
    """Exact-rational oracle for the ratio mapping."""
    return Fraction(t_ev) * Fraction(t) / Fraction(t_i)


# Frozen oracle values.
assert exact_retime(500_025, 1_000_050, T_US) == 500_000
assert float(exact_retime(250_000, 999_950, T_US)) == 250012.50062503124


class TestRetime:
    def test_plus_50_ppm_mid_period_maps_to_exactly_half(self):
        assert retime(500_025, 1_000_050, T_US) == pytest.approx(500_000.0, abs=1e-9)

    def test_minus_50_ppm_quarter_period_value(self):
        assert retime(250_000, 999_950, T_US) == pytest.approx(
            250012.50062503124, rel=1e-12
        )

    def test_perfect_clock_is_identity(self):
        assert retime(123_456, T_US, T_US) == 123_456.0

    def test_event_at_sync_instant_maps_to_period_end(self):
        assert retime(1_000_050, 1_000_050, T_US) == T_US

    def test_event_at_period_start_maps_to_zero(self):
        assert retime(0, 999_950, T_US) == 0.0

    def test_one_tick_of_a_one_tick_period_is_the_whole_period(self):
        assert retime(1, 1, 1) == 1.0

    @pytest.mark.parametrize(
        "t_ev,t_i,t",
        # (0, 0, T): 0 / 0, refused before it can raise ZeroDivisionError
        [(1, 0, T_US), (0, 0, T_US), (1, -5, T_US), (1_000_051, 1_000_050, T_US), (-1, 100, T_US),
         (1, 100, 0)],
    )
    def test_malformed_inputs_raise(self, t_ev, t_i, t):
        with pytest.raises(RetimeError):
            retime(t_ev, t_i, t)


def report(sensor_id, saved, events, period=0):
    return SensorReport(
        sensor_id=sensor_id,
        period_index=period,
        saved_counter_ticks=saved,
        events=tuple(ReportEvent(*e) for e in events),
    )


class TestAlignPeriod:
    def test_opposite_drifts_agree_after_retiming(self):
        # both sensors saw the same physical instant, half a period in
        a = report(1, 1_000_050, [(500_025, 1200)])
        b = report(2, 999_950, [(499_975, 1100)])
        out = align_period([a, b], T_US)
        assert [e.sensor_id for e in out] == [1, 2] or [e.sensor_id for e in out] == [2, 1]
        assert abs(out[0].retimed_us - out[1].retimed_us) < 0.01
        # raw timestamps disagreed by 50 ticks
        assert abs(a.events[0].timestamp_ticks - b.events[0].timestamp_ticks) == 50

    def test_sorted_by_retimed_time_then_sensor(self):
        a = report(5, T_US, [(2000, 900), (1000, 900)])
        b = report(3, T_US, [(1000, 900)])
        out = align_period([a, b], T_US)
        assert [(e.retimed_us, e.sensor_id) for e in out] == [
            (1000.0, 3),
            (1000.0, 5),
            (2000.0, 5),
        ]

    def test_flagged_events_trail_and_carry_reasons(self):
        bad_counter = report(1, 0, [(10, 900)])
        escaped = report(2, 1000, [(1500, 900)])
        fine = report(3, 1000, [(500, 900)])
        out = align_period([bad_counter, escaped, fine], T_US)
        assert [e.sensor_id for e in out] == [3, 1, 2]
        assert out[0].valid
        assert out[1].flag == FLAG_ZERO_COUNTER
        assert out[2].flag == FLAG_OUT_OF_PERIOD
        assert math.isnan(out[1].retimed_us)

    @pytest.mark.parametrize("period_t_us, saved, ticks, flag", [
        (T_US, 1000, 1000, None),  # stamped at the sync instant
        (T_US, 0, 10, FLAG_ZERO_COUNTER),
        (T_US, -3, 10, FLAG_ZERO_COUNTER),
        (T_US, 1000, -1, FLAG_OUT_OF_PERIOD),
        (T_US, 1000, 1001, FLAG_OUT_OF_PERIOD),
        (0, 1000, 10, FLAG_OUT_OF_PERIOD),
        (-5, 1000, 10, FLAG_OUT_OF_PERIOD),
        (math.nan, 1000, 10, FLAG_OUT_OF_PERIOD),
        (0, 0, 10, FLAG_ZERO_COUNTER),
        (T_US, 0, 0, FLAG_ZERO_COUNTER),  # 0 / 0: flagged, no ZeroDivisionError
    ])
    def test_flag_of_each_refused_event(self, period_t_us, saved, ticks, flag):
        # a bad period T flags every event instead of raising
        [e] = align_period([report(1, saved, [(ticks, 900)])], period_t_us)
        assert e.flag == flag
        assert math.isnan(e.retimed_us) == (flag is not None)

    @given(
        st.sampled_from([T_US, 1, 0, -1]),
        st.integers(-2, 2000),
        st.lists(st.integers(-5, 2100), max_size=5),
    )
    def test_agrees_with_retime_event_by_event(self, period_t_us, saved, ticks):
        out = align_period([report(1, saved, [(t, 900) for t in ticks])], period_t_us)
        expected = []
        for t in ticks:
            try:
                expected.append((retime(t, saved, period_t_us), None))
            except RetimeError:
                expected.append((None, FLAG_ZERO_COUNTER if saved <= 0 else FLAG_OUT_OF_PERIOD))
        assert sorted((e.retimed_us, e.flag) for e in out if e.valid) == sorted(
            x for x in expected if x[1] is None
        )
        assert sorted((e.raw_ticks, e.flag) for e in out if not e.valid) == sorted(
            (t, x[1]) for t, x in zip(ticks, expected) if x[1] is not None
        )

    def test_sorted_by_retimed_time_where_raw_ticks_disagree(self):
        # sensor 1 counted twice as fast: its later stamp is the earlier time
        out = align_period([report(2, T_US, [(800, 900)]), report(1, 2 * T_US, [(1000, 900)])], T_US)
        assert [(e.sensor_id, e.retimed_us) for e in out] == [(1, 500.0), (2, 800.0)]

    def test_flagged_events_sorted_by_sensor_then_raw_ticks(self):
        out = align_period(
            [report(3, 0, [(20, 900), (10, 900)]), report(1, 0, [(30, 900), (5, 900)])], T_US
        )
        assert [(e.sensor_id, e.raw_ticks) for e in out] == [(1, 5), (1, 30), (3, 10), (3, 20)]
        assert all(e.flag == FLAG_ZERO_COUNTER for e in out)

    def test_mixed_periods_rejected(self):
        with pytest.raises(ValueError, match="period"):
            align_period([report(1, T_US, [], period=0), report(2, T_US, [], period=1)], T_US)

    def test_empty_input_is_empty_output(self):
        assert align_period([], T_US) == []

    def test_amplitude_converted_to_g(self):
        out = align_period([report(1, T_US, [(10, 1234)])], T_US)
        assert out[0].amplitude_g == pytest.approx(1.234)


class TestCluster:
    def test_greedy_window_grouping(self):
        out = align_period(
            [
                report(1, T_US, [(1_000, 900), (250_000, 900)]),
                report(2, T_US, [(50_000, 900)]),
                report(3, T_US, [(99_000, 900)]),
            ],
            T_US,
        )
        clusters = cluster_events(out, window_us=100_000)
        assert [[e.raw_ticks for e in c] for c in clusters] == [
            [1_000, 50_000, 99_000],
            [250_000],
        ]

    def test_flagged_events_never_cluster(self):
        out = align_period(
            [report(1, T_US, [(1_000, 900)]), report(2, 0, [(2_000, 900)])], T_US
        )
        clusters = cluster_events(out, window_us=100_000)
        assert len(clusters) == 1
        assert [e.sensor_id for e in clusters[0]] == [1]

    def test_hit_exactly_one_window_after_the_first_joins(self):
        out = align_period(
            [report(1, T_US, [(1_000, 900)]), report(2, T_US, [(101_000, 900)])], T_US
        )
        [cluster] = cluster_events(out, window_us=100_000)
        assert [e.sensor_id for e in cluster] == [1, 2]

    def test_one_microsecond_window_is_accepted(self):
        out = align_period([report(1, T_US, [(1_000, 900), (1_001, 900), (1_002, 900)])], T_US)
        clusters = cluster_events(out, window_us=1)
        assert [[e.raw_ticks for e in c] for c in clusters] == [[1_000, 1_001], [1_002]]

    def test_grouped_in_retimed_order_where_raw_ticks_disagree(self):
        # sensor 1 counted twice as fast: its later stamp is the earlier time
        out = align_period([report(2, T_US, [(800, 900)]), report(1, 2 * T_US, [(1000, 900)])], T_US)
        out.reverse()
        [cluster] = cluster_events(out, window_us=100_000)
        assert [e.sensor_id for e in cluster] == [1, 2]

    def test_each_period_clusters_apart_in_period_order(self):
        # retimed times are offsets within their own period: hits of two
        # periods at nearby offsets are not one event
        later = align_period([report(3, T_US, [(600, 900)], period=1)], T_US)
        first = align_period(
            [report(1, T_US, [(500, 900)]), report(2, T_US, [(700, 900)])], T_US
        )
        clusters = cluster_events(later + first, window_us=100_000)
        assert [[(e.period_index, e.sensor_id) for e in c] for c in clusters] == [
            [(0, 1), (0, 2)],
            [(1, 3)],
        ]

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            cluster_events([], window_us=0)


drifts = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestProperties:
    @settings(max_examples=200)
    @given(
        d1=drifts,
        d2=drifts,
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_constant_drift_cancels_for_simultaneous_receipts(self, d1, d2, frac):
        event = frac * T_US
        r1 = run_sensor_period(d1, 0.0, T_US, event)
        r2 = run_sensor_period(d2, 0.0, T_US, event)
        t1 = retime(r1[0], r1[1], T_US)
        t2 = retime(r2[0], r2[1], T_US)
        # floating error only: well under a hundredth of a microsecond
        assert abs(t1 - t2) <= 1e-8 * T_US

    @settings(max_examples=200)
    @given(
        drift=drifts,
        delta=st.floats(min_value=0.0, max_value=6.0),
        frac=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_receipt_skew_bounds_discrepancy(self, drift, delta, frac):
        # sensor B's receipts lag sensor A's by the same delta at both ends
        event = frac * T_US
        a = run_sensor_period(0.0, 0.0, T_US, event)
        b = run_sensor_period(drift, delta, T_US + delta, max(event, delta))
        ta = retime(*a, T_US)
        tb = retime(*b, T_US)
        assert abs(ta - tb) <= 2 * delta * (1 + 1e-4) + 1e-6

    @given(
        t_i=st.integers(min_value=999_000, max_value=1_001_000),
        ts=st.lists(st.integers(min_value=0, max_value=999_000), min_size=2, max_size=10),
    )
    def test_monotone_in_event_timestamp(self, t_i, ts):
        ts = sorted(ts)
        mapped = [retime(t, t_i, T_US) for t in ts]
        assert mapped == sorted(mapped)

    @given(
        scale=st.floats(min_value=0.5, max_value=2.0),
        t_i=st.integers(min_value=999_000, max_value=1_001_000),
        t_ev=st.integers(min_value=0, max_value=999_000),
    )
    def test_scaling_both_counters_changes_nothing(self, scale, t_i, t_ev):
        # the ratio is what matters: a faster clock scales T_evi and T_i alike
        a = retime(t_ev, t_i, T_US)
        b = retime(t_ev * scale, t_i * scale, T_US)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-9)

    def test_cancellation_survives_10000_random_cases(self):
        rng = random.Random(20260814)
        worst = 0.0
        for _ in range(10_000):
            d1 = rng.uniform(-50, 50)
            d2 = rng.uniform(-50, 50)
            event = rng.uniform(0, T_US)
            t1 = retime(*run_sensor_period(d1, 0.0, T_US, event), T_US)
            t2 = retime(*run_sensor_period(d2, 0.0, T_US, event), T_US)
            worst = max(worst, abs(t1 - t2))
        assert worst <= 0.01, f"worst pairwise discrepancy {worst} us"
