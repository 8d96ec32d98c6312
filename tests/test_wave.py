"""Wave arrival times, threshold detection, and the sampling grid a sensor
stamps on."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from cablewatch.scenario import Scenario, ScenarioError
from cablewatch.simulate import SensorNode
from cablewatch.wave import CableGeometry, RuptureEvent, WaveArrival, simulate_rupture


def travel_us(distance_m, speed_m_s) -> Fraction:
    """Exact travel time oracle, microseconds."""
    return Fraction(distance_m) / Fraction(speed_m_s) * 10**6


FOUR_AT_10M = CableGeometry(sensor_ids=(1, 2, 3, 4), positions_m=(0.0, 10.0, 20.0, 30.0))

# Frozen from the travel-time oracle: rupture at 14 m, 5000 m/s.
assert [travel_us(d, 5000) for d in (14, 4, 6, 16)] == [2800, 800, 1200, 3200]


def scan(geometry, rupture, speed, threshold, attenuation):
    """The wave rules as the paper states them, one sensor at a time: the
    wave reaches a sensor d meters away d / speed after the rupture, with
    amplitude peak * exp(-attenuation * d), and the sensor fires when that
    reaches the threshold."""
    arrivals = []
    for sid, p in zip(geometry.sensor_ids, geometry.positions_m):
        d = abs(p - rupture.position_m)
        amp = rupture.peak_amplitude_g * math.exp(-attenuation * d)
        if amp >= threshold:
            arrivals.append(WaveArrival(sid, rupture.time_ref_us + d / speed * 1e6, amp))
    return arrivals


def arrival_at(sensor_id, rupture, geometry=FOUR_AT_10M, speed=5000.0):
    """Reference time at which a wave no sensor misses reaches sensor_id."""
    hits = simulate_rupture(geometry, rupture, speed, threshold_g=1e-9)
    return {a.sensor_id: a.arrival_ref_us for a in hits}[sensor_id]


def stamp(counter_ticks, sampling_period_ticks):
    """The tick a drift-free sensor stamps a wave with that reaches it when
    its counter reads counter_ticks: before the first sync, the counter
    reads the reference time."""
    scenario = Scenario(geometry=FOUR_AT_10M, sampling_period_ticks=sampling_period_ticks)
    node = SensorNode(scenario, 1, [(counter_ticks, 1, 1.0, "spurious:0")])
    node.stamp_until(counter_ticks)
    [row] = node.detections
    assert node.protocol.clock.counter_ticks == counter_ticks
    return row.local_timestamp_ticks


class TestGeometry:
    def test_positions_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CableGeometry((1, 2, 3), (0.0, 10.0, 10.0))

    def test_ids_and_positions_must_pair_up(self):
        with pytest.raises(ValueError):
            CableGeometry((1, 2, 3), (0.0, 10.0))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CableGeometry((1, 1, 3), (0.0, 10.0, 20.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_position_is_rejected_by_index(self, bad):
        # an infinite span overflowed the run-length arithmetic downstream
        with pytest.raises(ValueError, match=rf"^positions_m\[3\] must be finite, got {bad!r}$"):
            CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, bad))

    @pytest.mark.parametrize("bad", [1.0, True, "1", None, [1]])
    def test_non_int_sensor_id_is_rejected_by_index(self, bad):
        # a float id was accepted here, and a run on it died with a
        # TypeError in the network draws
        with pytest.raises(ValueError, match=rf"^sensor_ids\[2\] must be an int, got {re.escape(repr(bad))}$"):
            CableGeometry((1, 2, bad, 4), (0.0, 10.0, 20.0, 30.0))

    def test_single_sensor_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            CableGeometry((1,), (0.0,))

    def test_lookups_and_neighbors(self):
        g = FOUR_AT_10M
        assert g.position_of(3) == 20.0
        assert g.extent_m == (0.0, 30.0)
        assert g.span_m == 30.0
        with pytest.raises(ValueError, match="unknown sensor"):
            g.position_of(99)

    @pytest.mark.parametrize("sensor_id, text", [(99, "99"), ([1], "[1]"), ({2: 3}, "{2: 3}")])
    def test_unknown_or_unhashable_id_is_a_value_error(self, sensor_id, text):
        with pytest.raises(ValueError) as e:
            FOUR_AT_10M.position_of(sensor_id)
        assert str(e.value) == f"unknown sensor id {text}"

    def test_index_follows_replace(self):
        # the id -> position index is rebuilt, not copied from the original
        g = replace(FOUR_AT_10M, sensor_ids=(4, 3, 2, 1))
        assert [g.position_of(sid) for sid in (1, 2, 3, 4)] == [30.0, 20.0, 10.0, 0.0]


class TestArrivalTime:
    def test_rupture_at_sensor_arrives_at_rupture_time(self):
        r = RuptureEvent(position_m=10.0, time_ref_us=500.0)
        assert arrival_at(2, r) == 500.0

    def test_ten_meters_at_5000_m_s_is_2000_us(self):
        r = RuptureEvent(position_m=10.0, time_ref_us=0.0)
        assert arrival_at(3, r) == pytest.approx(2000.0, rel=1e-12)

    def test_7_5_meters_is_1500_us(self):
        r = RuptureEvent(position_m=12.5, time_ref_us=0.0)
        assert arrival_at(3, r) == pytest.approx(1500.0, rel=1e-12)

    def test_nonpositive_speed_rejected(self):
        r = RuptureEvent(position_m=10.0, time_ref_us=0.0)
        for speed in (0.0, -5000.0):
            with pytest.raises(ValueError, match=rf"^wave speed must be > 0, got {speed!r}$"):
                simulate_rupture(FOUR_AT_10M, r, speed)


class TestDetect:
    def test_amplitude_at_threshold_fires(self):
        r = RuptureEvent(position_m=0.0, time_ref_us=100.0, peak_amplitude_g=0.8)
        hit = simulate_rupture(FOUR_AT_10M, r, threshold_g=0.8)[0]
        assert hit == (1, 100.0, 0.8)

    def test_amplitude_below_threshold_is_silent(self):
        r = RuptureEvent(position_m=0.0, time_ref_us=100.0, peak_amplitude_g=0.79999)
        assert simulate_rupture(FOUR_AT_10M, r, threshold_g=0.8) == []

    def test_flat_model_reports_incoming_amplitude_as_window_max(self):
        r = RuptureEvent(position_m=14.0, time_ref_us=0.0, peak_amplitude_g=1.7)
        assert [a.max_amplitude_g for a in simulate_rupture(FOUR_AT_10M, r)] == [1.7] * 4


class TestQuantize:
    """A sensor stamps a wave at the first sample at or after its counter:
    SensorNode.stamp_until."""

    @pytest.mark.parametrize(
        "value,period,expected",
        [(1999, 4, 2000), (2000, 4, 2000), (1, 4, 4), (0, 4, 0), (0.5, 1, 1), (2800.0, 4, 2800),
         # 5e-324 / 4 rounds to 0.0: the ceiling alone stamps at 0, before the wave
         (5e-324, 4, 4)],
    )
    def test_ceiling_to_grid(self, value, period, expected):
        assert stamp(value, period) == expected

    def test_negative_value_rejected(self):
        # no counter reads below 0: the clock refuses to run backwards
        with pytest.raises(ValueError, match="negative duration"):
            stamp(-1.0, 4)

    @pytest.mark.parametrize("period", [0, -4, 2.5])
    def test_bad_period_rejected(self, period):
        with pytest.raises(ScenarioError) as e:
            Scenario(geometry=FOUR_AT_10M, sampling_period_ticks=period)
        assert e.value.problems == [
            f"sampling_period_ticks must be a positive integer, got {period!r}"
        ]

    @given(
        value=st.floats(min_value=0, max_value=1e12, allow_nan=False),
        period=st.integers(min_value=1, max_value=1000),
    )
    def test_result_is_grid_aligned_and_not_early(self, value, period):
        q = stamp(value, period)
        assert q % period == 0
        assert q >= value
        # one grid step earlier would be before the wavefront
        assert q - period < value or q == value


class TestSimulateRupture:
    def test_rupture_at_14m_arrival_offsets(self):
        r = RuptureEvent(position_m=14.0, time_ref_us=0.0, peak_amplitude_g=1.0)
        arrivals = simulate_rupture(FOUR_AT_10M, r, wave_speed_m_s=5000.0)
        offsets = {a.sensor_id: a.arrival_ref_us for a in arrivals}
        assert offsets == {
            1: pytest.approx(2800.0, rel=1e-12),
            2: pytest.approx(800.0, rel=1e-12),
            3: pytest.approx(1200.0, rel=1e-12),
            4: pytest.approx(3200.0, rel=1e-12),
        }

    def test_offsets_shift_with_rupture_time(self):
        r = RuptureEvent(position_m=14.0, time_ref_us=2_500_000.0)
        arrivals = simulate_rupture(FOUR_AT_10M, r)
        assert arrivals[1].arrival_ref_us == pytest.approx(2_500_800.0, rel=1e-12)

    def test_quiet_wave_detected_nowhere(self):
        r = RuptureEvent(position_m=14.0, time_ref_us=0.0, peak_amplitude_g=0.5)
        assert simulate_rupture(FOUR_AT_10M, r, threshold_g=0.8) == []

    def test_rupture_outside_extent_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            simulate_rupture(FOUR_AT_10M, RuptureEvent(position_m=31.0, time_ref_us=0.0))
        with pytest.raises(ValueError, match="outside"):
            simulate_rupture(FOUR_AT_10M, RuptureEvent(position_m=-0.5, time_ref_us=0.0))

    def test_attenuation_silences_far_sensors_only(self):
        # exp(-0.05 * 4) = 0.819 >= 0.8 but exp(-0.05 * 6) = 0.741 < 0.8
        r = RuptureEvent(position_m=14.0, time_ref_us=0.0, peak_amplitude_g=1.0)
        arrivals = simulate_rupture(FOUR_AT_10M, r, attenuation_per_m=0.05)
        assert [a.sensor_id for a in arrivals] == [2]

    @given(
        x=st.floats(min_value=0.0, max_value=30.0),
        t0=st.floats(min_value=0.0, max_value=1e7),
        speed=st.floats(min_value=100.0, max_value=1e5),
        attenuation=st.sampled_from([0.0, 0.01, 0.05]),
        threshold=st.sampled_from([0.5, 0.8, 1.0]),
    )
    def test_equals_the_per_sensor_functions(self, x, t0, speed, attenuation, threshold):
        g, r = FOUR_AT_10M, RuptureEvent(position_m=x, time_ref_us=t0)
        assert simulate_rupture(g, r, speed, threshold, attenuation) == scan(
            g, r, speed, threshold, attenuation
        )

    def test_bad_speed_or_attenuation_rejected(self):
        r = RuptureEvent(position_m=14.0, time_ref_us=0.0)
        with pytest.raises(ValueError, match="wave speed must be > 0"):
            simulate_rupture(FOUR_AT_10M, r, wave_speed_m_s=0.0)
        with pytest.raises(ValueError, match="attenuation coefficient must be >= 0"):
            simulate_rupture(FOUR_AT_10M, r, attenuation_per_m=-0.1)
        # each of these gave nonsense: every sensor firing at amplitude NaN,
        # a NaN amplitude at the rupture (-inf * 0), every arrival at once
        with pytest.raises(ValueError, match=r"^attenuation coefficient must be finite, got nan$"):
            simulate_rupture(FOUR_AT_10M, r, attenuation_per_m=math.nan)
        with pytest.raises(ValueError, match=r"^attenuation coefficient must be finite, got inf$"):
            simulate_rupture(FOUR_AT_10M, RuptureEvent(10.0, 0.0), attenuation_per_m=math.inf)
        with pytest.raises(ValueError, match=r"^wave speed must be finite, got inf$"):
            simulate_rupture(FOUR_AT_10M, r, wave_speed_m_s=math.inf)
        # each of these fired all four sensors for a 0.1 g wave
        weak = RuptureEvent(position_m=14.0, time_ref_us=0.0, peak_amplitude_g=0.1)
        with pytest.raises(ValueError, match=r"^threshold must be finite, got nan$"):
            simulate_rupture(FOUR_AT_10M, weak, threshold_g=math.nan)
        with pytest.raises(ValueError, match=r"^threshold must be > 0, got -1\.0$"):
            simulate_rupture(FOUR_AT_10M, weak, threshold_g=-1.0)
        with pytest.raises(ValueError, match=r"^threshold must be > 0, got 0\.0$"):
            simulate_rupture(FOUR_AT_10M, weak, threshold_g=0.0)
        # and this one silently fired none
        with pytest.raises(ValueError, match=r"^threshold must be finite, got inf$"):
            simulate_rupture(FOUR_AT_10M, weak, threshold_g=math.inf)

    def test_amplitude_decay_values(self):
        r = RuptureEvent(position_m=0.0, time_ref_us=0.0, peak_amplitude_g=2.0)
        decayed = simulate_rupture(FOUR_AT_10M, r, threshold_g=1e-9, attenuation_per_m=0.1)
        assert decayed[0].max_amplitude_g == 2.0
        assert decayed[1].max_amplitude_g == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        flat = simulate_rupture(FOUR_AT_10M, r, threshold_g=1e-9)
        assert [a.max_amplitude_g for a in flat] == [2.0] * 4

    def test_nonpositive_peak_amplitude_rejected(self):
        with pytest.raises(ValueError, match="amplitude"):
            RuptureEvent(position_m=1.0, time_ref_us=0.0, peak_amplitude_g=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_peak_amplitude_rejected_by_name(self, bad):
        # an infinite amplitude overflowed the detection's milli-g rounding
        with pytest.raises(ValueError, match=rf"^peak_amplitude_g must be finite, got {bad!r}$"):
            RuptureEvent(position_m=1.0, time_ref_us=0.0, peak_amplitude_g=bad)


uniform_grids = st.tuples(
    st.integers(min_value=3, max_value=8),          # sensor count
    st.floats(min_value=1.0, max_value=50.0),       # spacing
    st.floats(min_value=-100.0, max_value=100.0),   # origin
)


class TestProperties:
    @given(
        grid=uniform_grids,
        frac=st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
        speed=st.floats(min_value=100.0, max_value=10000.0),
    )
    def test_first_two_arrivals_bracket_rupture_on_uniform_grid(self, grid, frac, speed):
        n, spacing, origin = grid
        geom = CableGeometry(
            tuple(range(1, n + 1)), tuple(origin + i * spacing for i in range(n))
        )
        # place the rupture strictly inside a random span
        span = int(frac * (n - 1))
        span = min(span, n - 2)
        inner = frac * (n - 1) - span
        x = origin + (span + inner) * spacing
        if inner in (0.0, 1.0):
            return  # exactly at a sensor: bracketing is not defined
        r = RuptureEvent(position_m=x, time_ref_us=0.0)
        arrivals = sorted(
            simulate_rupture(geom, r, wave_speed_m_s=speed, threshold_g=0.5),
            key=lambda a: (a.arrival_ref_us, a.sensor_id),
        )
        first_two = {arrivals[0].sensor_id, arrivals[1].sensor_id}
        assert first_two == {geom.sensor_ids[span], geom.sensor_ids[span + 1]}

    @given(
        shift=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
        x=st.floats(min_value=0.5, max_value=29.5),
    )
    def test_arrival_offsets_are_translation_invariant(self, shift, x):
        g0 = FOUR_AT_10M
        g1 = CableGeometry(g0.sensor_ids, tuple(p + shift for p in g0.positions_m))
        r0 = RuptureEvent(position_m=x, time_ref_us=0.0)
        r1 = RuptureEvent(position_m=x + shift, time_ref_us=0.0)
        for sid in g0.sensor_ids:
            assert arrival_at(sid, r0, g0) == pytest.approx(
                arrival_at(sid, r1, g1), rel=1e-9, abs=1e-6
            )

    @given(x=st.floats(min_value=10.0 + 1e-6, max_value=20.0 - 1e-6))
    def test_travel_times_across_spanning_pair_sum_to_span_time(self, x):
        # For sensors bracketing the rupture, offsets sum to spacing / speed.
        r = RuptureEvent(position_m=x, time_ref_us=0.0)
        t2, t3 = arrival_at(2, r), arrival_at(3, r)
        assert t2 + t3 == pytest.approx(10.0 / 5000.0 * 1e6, rel=1e-9)


@st.composite
def rupture_cases(draw):
    """An uneven geometry, a rupture on it (on a sensor, at times), the
    attenuation and the threshold: zero, tiny and large attenuation, and
    thresholds below, at and above the peak, or exactly some sensor's
    received amplitude, the edge of the attenuation reach."""
    gaps = draw(st.lists(
        st.one_of(st.floats(min_value=1e-9, max_value=1.0), st.floats(min_value=1.0, max_value=500.0)),
        min_size=1, max_size=15,
    ))
    origin = draw(st.floats(min_value=-1e4, max_value=1e4))
    positions = [origin]
    for gap in gaps:
        if positions[-1] + gap > positions[-1]:
            positions.append(positions[-1] + gap)
    assume(len(positions) >= 2)
    geometry = CableGeometry(tuple(range(1, len(positions) + 1)), tuple(positions))
    x = draw(st.one_of(
        st.sampled_from(positions), st.floats(min_value=positions[0], max_value=positions[-1])
    ))
    rupture = RuptureEvent(
        position_m=x,
        time_ref_us=draw(st.floats(min_value=0.0, max_value=1e7)),
        peak_amplitude_g=draw(st.floats(min_value=1e-3, max_value=1e3)),
    )
    attenuation = draw(st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-300, max_value=1e-6),
        st.floats(min_value=1e-6, max_value=10.0),
        st.floats(min_value=10.0, max_value=1e300),
    ))
    peak = rupture.peak_amplitude_g
    threshold = draw(st.one_of(
        st.sampled_from([peak / 2, peak, peak * 2]),
        st.floats(min_value=peak * 1e-6, max_value=peak),
        st.sampled_from(positions).map(lambda p: peak * math.exp(-attenuation * abs(p - x))),
    ))
    assume(threshold > 0)
    return geometry, rupture, attenuation, threshold


class TestAttenuationReach:
    @given(case=rupture_cases(), speed=st.floats(min_value=100.0, max_value=1e5))
    def test_equals_a_scan_of_every_sensor(self, case, speed):
        # simulate_rupture scans only the sensors within the attenuation
        # reach; a scan of every sensor must find exactly the same arrivals
        g, r, attenuation, threshold = case
        assert simulate_rupture(g, r, speed, threshold, attenuation) == scan(
            g, r, speed, threshold, attenuation
        )
