"""Triple selection and the speed/position inversion, exact and quantized."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from cablewatch.localization import (
    FLAG_DEGENERATE_DT,
    FLAG_INSUFFICIENT_SENSORS,
    FLAG_OUT_OF_SPAN,
    localize,
    localize_cluster,
)
from cablewatch.retiming import RetimedEvent
from cablewatch.scenario import Scenario
from cablewatch.simulate import sensor_nodes
from cablewatch.wave import CableGeometry, RuptureEvent, simulate_rupture

FOUR_AT_10M = CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0))


def arrival_times(geometry, x_m, v_m_s=5000.0, t0_us=0.0):
    """Forward model: exact per-sensor arrival times for a rupture at x,
    loud enough for every sensor."""
    r = RuptureEvent(position_m=x_m, time_ref_us=t0_us)
    return {a.sensor_id: a.arrival_ref_us for a in simulate_rupture(geometry, r, v_m_s)}


# a rupture at 14 m at 5000 m/s: sensor_1 = 1 pairs with sensor_2 = 2 for
# the speed, and the bracket pair 2, 3 is 10 m long
AT_14M = {1: 2800.0, 2: 800.0, 3: 1200.0, 4: 3200.0}


class TestSelectTriple:
    def test_rupture_at_14m_picks_expected_roles(self):
        times = arrival_times(FOUR_AT_10M, 14.0)
        est = localize(times, FOUR_AT_10M)
        assert est.triple == (1, 2, 3)
        assert est.dt_speed_us == times[1] - times[2]

    def test_end_span_rupture_swaps_to_far_side_of_s3(self):
        # sensor 4 is an end sensor, so the speed pair lies beyond sensor 3
        times = arrival_times(FOUR_AT_10M, 27.0)
        est = localize(times, FOUR_AT_10M)
        assert est.triple == (2, 4, 3)
        assert est.dt_speed_us == times[2] - times[3]

    def test_tie_resolves_to_lower_sensor_id(self):
        # rupture exactly midway: sensors 2 and 3 hear it simultaneously
        est = localize(arrival_times(FOUR_AT_10M, 15.0), FOUR_AT_10M)
        assert est.triple[1:] == (2, 3)

    def test_selection_depends_only_on_time_order(self):
        times = arrival_times(FOUR_AT_10M, 14.0)
        warped = {sid: 3.0 * t + 12345.0 for sid, t in times.items()}
        assert localize(times, FOUR_AT_10M).triple == localize(warped, FOUR_AT_10M).triple


class TestEstimateSpeed:
    def test_10m_in_2000us_is_5000_m_s(self):
        est = localize(AT_14M, FOUR_AT_10M)
        assert est.dt_speed_us == 2000.0
        assert est.v_est_m_s == pytest.approx(5000.0, rel=1e-12)

    def test_20m_in_4000us_is_5000_m_s(self):
        geometry = CableGeometry((1, 2, 3), (0.0, 20.0, 30.0))
        est = localize({1: 4000.0, 2: 0.0, 3: 1000.0}, geometry)
        assert est.triple == (1, 2, 3)
        assert est.v_est_m_s == pytest.approx(5000.0, rel=1e-12)

    def test_zero_lag_is_degenerate(self):
        # sensor 3 ties sensor 2, the speed anchor beyond the end sensor 1
        est = localize({1: 1000.0, 2: 1500.0, 3: 1500.0}, FOUR_AT_10M)
        assert est.flags == {FLAG_DEGENERATE_DT}
        assert est.triple == (3, 1, 2)
        assert est.dt_speed_us == 0.0
        assert math.isnan(est.v_est_m_s) and math.isnan(est.dt_position_us)

    def test_lag_too_short_for_a_finite_speed_is_degenerate(self):
        # a subnormal lag underflows to 0 s, which no speed can be divided by
        est = localize({1: 5e-324, 2: 0.0, 3: 0.0}, FOUR_AT_10M)
        assert est.flags == {FLAG_DEGENERATE_DT}
        assert est.dt_speed_us == 5e-324
        assert math.isnan(est.v_est_m_s) and math.isnan(est.x_est_m)


class TestEstimatePosition:
    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 10: the two earliest arrivals need not bracket"
    )
    def test_uneven_cable_rupture_outside_the_two_earliest_is_found(self):
        # the two earliest arrivals, at 82.6 and 86.9 m, lie on one side of a
        # rupture at 71.81 m; today the estimate is 80.857 m, OUT_OF_SPAN
        geometry = CableGeometry((1, 2, 3, 4, 5), (0.0, 34.4, 82.6, 86.9, 94.4))
        est = localize(arrival_times(geometry, 71.81), geometry)
        assert est.clean
        assert est.x_est_m == pytest.approx(71.81, rel=1e-9)

    def test_worked_case_4m_from_bracket_start(self):
        # rupture 4 m past the first bracket sensor of a 10 m span
        est = localize(AT_14M, FOUR_AT_10M)
        assert est.x_est_m - 10.0 == pytest.approx(4.0, rel=1e-12)

    def test_rupture_on_a_sensor_is_clean(self):
        # the bracket's near end: x_offset is exactly 0, inside the span
        est = localize(arrival_times(FOUR_AT_10M, 20.0), FOUR_AT_10M)
        assert FLAG_OUT_OF_SPAN not in est.flags
        assert est.clean
        assert est.x_est_m == 20.0

    def test_simultaneous_arrivals_mean_midspan(self):
        est = localize({1: 3000.0, 2: 1000.0, 3: 1000.0, 4: 3000.0}, FOUR_AT_10M)
        assert est.clean
        assert est.x_est_m == pytest.approx(15.0)

    def test_full_lag_means_rupture_at_first_sensor(self):
        # v * dt == L23: the whole span's travel time separates the arrivals
        est = localize({1: 2000.0, 2: 0.0, 3: 2000.0, 4: 4000.0}, FOUR_AT_10M)
        assert est.clean
        assert est.x_est_m == pytest.approx(10.0, abs=1e-12)

    def test_sensitivity_is_minus_half_v(self):
        # 6 us of dt23 error moves X by 1.5 cm at 5000 m/s
        base = localize(AT_14M, FOUR_AT_10M)
        moved = localize({**AT_14M, 3: 1206.0}, FOUR_AT_10M)
        assert moved.x_est_m - base.x_est_m == pytest.approx(-0.015, rel=1e-9)


class TestLocalize:
    def test_noiseless_14m_recovers_position_and_speed(self):
        est = localize(arrival_times(FOUR_AT_10M, 14.0), FOUR_AT_10M)
        assert est.clean
        assert est.x_est_m == pytest.approx(14.0, abs=1e-9)
        assert est.v_est_m_s == pytest.approx(5000.0, abs=1e-6)
        assert est.triple == (1, 2, 3)

    def test_end_span_fallback_recovers_position(self):
        est = localize(arrival_times(FOUR_AT_10M, 27.0), FOUR_AT_10M)
        assert est.clean
        assert est.x_est_m == pytest.approx(27.0, abs=1e-9)
        assert est.v_est_m_s == pytest.approx(5000.0, abs=1e-6)

    def test_first_span_fallback_recovers_position(self):
        est = localize(arrival_times(FOUR_AT_10M, 4.0), FOUR_AT_10M)
        assert est.clean
        assert est.x_est_m == pytest.approx(4.0, abs=1e-9)

    def test_quantized_timestamps_stay_within_15cm(self):
        # drift-free sensors, never synced: each counter reads reference time
        scenario = Scenario(geometry=FOUR_AT_10M, ruptures=(RuptureEvent(14.0, 137.0),))
        q = {}
        for sid, node in sensor_nodes(scenario).items():
            node.stamp_until(math.inf)
            q[sid] = float(node.detections[0].local_timestamp_ticks)
        est = localize(q, FOUR_AT_10M)
        assert abs(est.x_est_m - 14.0) <= 0.15

    def test_rupture_at_sensor_2_with_a_tied_pair(self):
        est = localize({1: 2000.0, 2: 0.0, 3: 2000.0, 4: 4000.0}, FOUR_AT_10M)
        assert (est.x_est_m, est.v_est_m_s, est.flags) == (10.0, 5000.0, frozenset())

    def test_two_sensors_flag_insufficient(self):
        est = localize({1: 100.0, 2: 200.0}, FOUR_AT_10M)
        assert est.flags == {FLAG_INSUFFICIENT_SENSORS}
        assert math.isnan(est.x_est_m)
        assert math.isnan(est.v_est_m_s)

    def test_zero_speed_lag_flags_degenerate(self):
        # bracket pair at 10/20 m, and the far sensor ties the anchor
        est = localize({1: 1000.0, 2: 1500.0, 3: 1500.0}, FOUR_AT_10M)
        assert FLAG_DEGENERATE_DT in est.flags
        assert math.isnan(est.x_est_m)

    def test_impossible_lag_flags_out_of_span_but_reports_estimate(self):
        est = localize({1: 0.0, 2: 1900.0, 3: 2000.0}, FOUR_AT_10M)
        assert FLAG_OUT_OF_SPAN in est.flags
        assert not math.isnan(est.x_est_m)

    def test_unknown_sensor_is_a_caller_bug(self):
        with pytest.raises(ValueError, match="unknown sensor"):
            localize({1: 0.0, 2: 1.0, 99: 2.0}, FOUR_AT_10M)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("sensor_id", [1, 2, 3, 4])
    def test_non_finite_time_is_a_caller_bug(self, sensor_id, value):
        with pytest.raises(ValueError, match=f"sensor {sensor_id}: .* finite"):
            localize({**AT_14M, sensor_id: value}, FOUR_AT_10M)

    def test_localize_cluster_uses_earliest_valid_per_sensor(self):
        times = arrival_times(FOUR_AT_10M, 14.0)
        events = []
        for sid, t in times.items():
            events.append(RetimedEvent(sid, 0, t, int(t), 1.0))
            # a later spurious echo on the same sensor must not matter
            events.append(RetimedEvent(sid, 0, t + 50_000.0, int(t) + 50_000, 0.9))
        events.append(RetimedEvent(1, 0, math.nan, 77, 0.9, flag="out_of_period"))
        est = localize_cluster(events, FOUR_AT_10M)
        assert est.clean
        assert est.x_est_m == pytest.approx(14.0, abs=1e-9)


uniform_geoms = st.tuples(
    st.integers(min_value=3, max_value=7),
    st.floats(min_value=2.0, max_value=40.0),
    st.floats(min_value=-50.0, max_value=50.0),
).map(
    lambda t: CableGeometry(
        tuple(range(1, t[0] + 1)), tuple(t[2] + i * t[1] for i in range(t[0]))
    )
)


class TestProperties:
    @settings(max_examples=200)
    @given(
        geom=uniform_geoms,
        frac=st.floats(min_value=0.02, max_value=0.98),
        v=st.floats(min_value=500.0, max_value=10_000.0),
        t0=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_exact_round_trip(self, geom, frac, v, t0):
        lo, hi = geom.extent_m
        x = lo + frac * (hi - lo)
        # at a sensor position the bracket degenerates; step off it
        if any(abs(x - p) < 1e-6 for p in geom.positions_m):
            x += 1e-3
        est = localize(arrival_times(geom, x, v, t0), geom)
        assert est.clean
        assert abs(est.x_est_m - x) <= 1e-9 * geom.span_m
        assert abs(est.v_est_m_s - v) <= 1e-9 * v

    @given(
        shift=st.floats(min_value=-1000.0, max_value=1000.0),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_translation_invariance(self, shift, frac):
        x = 0.5 + frac * 29.0
        g1 = CableGeometry(
            FOUR_AT_10M.sensor_ids, tuple(p + shift for p in FOUR_AT_10M.positions_m)
        )
        e0 = localize(arrival_times(FOUR_AT_10M, x), FOUR_AT_10M)
        e1 = localize(arrival_times(g1, x + shift), g1)
        assert e1.x_est_m - e0.x_est_m == pytest.approx(shift, abs=1e-6)
        assert e0.v_est_m_s == pytest.approx(e1.v_est_m_s, rel=1e-9)

    @given(
        times=st.dictionaries(
            st.sampled_from(FOUR_AT_10M.sensor_ids),
            st.floats(min_value=0.0, max_value=1e4),
            min_size=3,
        )
    )
    def test_speed_lag_is_never_negative(self, times):
        # sensor_1 is never among the two earliest arrivals, so only a zero
        # lag flags DEGENERATE_DT
        est = localize(times, FOUR_AT_10M)
        assert not est.dt_speed_us < 0

    @settings(max_examples=100)
    @given(frac=st.floats(min_value=0.02, max_value=0.98))
    def test_clean_estimates_lie_between_the_bracket_pair(self, frac):
        x = frac * 30.0
        if any(abs(x - p) < 1e-6 for p in FOUR_AT_10M.positions_m):
            x += 1e-3
        times = arrival_times(FOUR_AT_10M, x)
        est = localize(times, FOUR_AT_10M)
        assert est.clean
        _, s2, s3 = est.triple
        lo = min(FOUR_AT_10M.position_of(s2), FOUR_AT_10M.position_of(s3))
        hi = max(FOUR_AT_10M.position_of(s2), FOUR_AT_10M.position_of(s3))
        assert lo - 1e-9 <= est.x_est_m <= hi + 1e-9
