"""Clock counter behavior: drift arithmetic, reset atomicity, linearity."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cablewatch.clock import MAX_DRIFT_PPM, ClockState


def exact_ticks(ref_dt_us, drift_ppm) -> Fraction:
    """Exact-rational model of the linear counter, independent of the
    float implementation under test."""
    return Fraction(ref_dt_us) * (1 + Fraction(drift_ppm) / 10**6)


# Frozen from the exact-rational oracle above.
assert exact_ticks(1_000_000, 50) == 1_000_050
assert exact_ticks(2_000_000, -50) == 1_999_900
assert exact_ticks(500_000, 50) == 500_025


class TestAdvance:
    def test_zero_drift_counts_reference_time(self):
        c = ClockState(drift_ppm=0.0)
        c.advance_to(1_000_000)
        assert c.counter_ticks == 1_000_000.0

    def test_plus_50_ppm_gains_50_ticks_per_second(self):
        c = ClockState(drift_ppm=50.0)
        c.advance_to(1_000_000)
        assert c.counter_ticks == pytest.approx(1_000_050, rel=1e-12)

    def test_minus_50_ppm_loses_100_ticks_over_two_seconds(self):
        c = ClockState(drift_ppm=-50.0)
        c.advance_to(2_000_000)
        assert c.counter_ticks == pytest.approx(1_999_900, rel=1e-12)

    def test_zero_duration_is_a_no_op(self):
        c = ClockState(drift_ppm=37.0)
        c.advance_to(0)
        assert c.counter_ticks == 0.0

    def test_negative_duration_rejected(self):
        # an earlier reference time is a negative duration
        c = ClockState(drift_ppm=0.0)
        with pytest.raises(ValueError, match="negative duration -1.0"):
            c.advance_to(-1.0)

    def test_fractional_ticks_carried_between_calls(self):
        c = ClockState(drift_ppm=50.0)
        for i in range(1, 1001):
            c.advance_to(1000 * i)
        assert c.counter_ticks == pytest.approx(1_000_050, rel=1e-9)

    def test_advance_to_absolute_reference_time(self):
        c = ClockState(drift_ppm=0.0)
        c.advance_to(250.0)
        c.advance_to(1000.0)
        assert c.ref_now_us == 1000.0
        assert c.counter_ticks == 1000.0
        with pytest.raises(ValueError):
            c.advance_to(999.0)

    def test_advance_to_lands_exactly_on_the_target(self):
        # 1.84... + (t - 1.84...) rounds to one ulp above t; a second
        # advance to t must still be a zero-length step, not a negative one
        c = ClockState(drift_ppm=0.0)
        t = 524290.340132722
        for target in (1.8404889599769376, t, t):
            c.advance_to(target)
        assert c.ref_now_us == t
        assert c.counter_ticks == pytest.approx(t, rel=1e-15)

    def test_advance_by_a_duration_is_advance_to_now_plus_it(self):
        by_dt, by_to = ClockState(drift_ppm=37.0), ClockState(drift_ppm=37.0)
        for dt in (0.0, 1.8404889599769376, 524288.5, 1_000_000):
            by_dt.advance(dt)
            by_to.advance_to(by_to.ref_now_us + dt)
            assert (by_dt.counter_ticks, by_dt.ref_now_us) == (by_to.counter_ticks, by_to.ref_now_us)
        before = (by_dt.counter_ticks, by_dt.ref_now_us)
        with pytest.raises(ValueError, match="negative duration -1.0"):
            by_dt.advance(-1.0)
        assert (by_dt.counter_ticks, by_dt.ref_now_us) == before


class TestSaveAndReset:
    def test_returns_counter_and_zeroes_it(self):
        c = ClockState(drift_ppm=50.0)
        c.advance_to(1_000_000)
        saved = c.save_and_reset()
        assert saved == pytest.approx(1_000_050, rel=1e-12)
        assert c.counter_ticks == 0.0

    def test_reset_of_fresh_clock_returns_zero(self):
        c = ClockState(drift_ppm=-12.0)
        assert c.save_and_reset() == 0.0
        assert c.counter_ticks == 0.0

    def test_double_reset_second_returns_zero(self):
        c = ClockState(drift_ppm=50.0)
        c.advance_to(123_456)
        c.save_and_reset()
        assert c.save_and_reset() == 0.0

    def test_no_ticks_lost_across_reset(self):
        # Counting across a reset equals counting straight through.
        whole = ClockState(drift_ppm=817.0)
        split = ClockState(drift_ppm=817.0)
        whole.advance_to(2_000_000)
        split.advance_to(777_777)
        saved = split.save_and_reset()
        split.advance_to(2_000_000)
        assert saved + split.counter_ticks == pytest.approx(
            whole.counter_ticks, rel=1e-12
        )



class TestDriftBounds:
    def test_cap_accepted_at_limit(self):
        ClockState(drift_ppm=MAX_DRIFT_PPM)
        ClockState(drift_ppm=-MAX_DRIFT_PPM)

    @pytest.mark.parametrize("ppm", [1000.5, -2e4, float("nan")])
    def test_nonsense_drift_rejected(self, ppm):
        with pytest.raises(ValueError):
            ClockState(drift_ppm=ppm)


drifts = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
durations = st.floats(min_value=0, max_value=1e9, allow_nan=False)


class TestProperties:
    @given(drift=drifts, steps=st.lists(durations, min_size=1, max_size=20))
    def test_counter_never_decreases(self, drift, steps):
        c = ClockState(drift_ppm=drift)
        prev = c.counter_ticks
        for dt in steps:
            c.advance_to(c.ref_now_us + dt)
            assert c.counter_ticks >= prev
            prev = c.counter_ticks

    @given(drift=drifts, a=durations, b=durations)
    def test_advance_is_additive(self, drift, a, b):
        # a stop at a on the way to a + b counts what going straight there
        # does, up to float accumulation: ~1 tick per 1e9 ticks counted.
        split = ClockState(drift_ppm=drift)
        split.advance_to(a)
        split.advance_to(a + b)
        whole = ClockState(drift_ppm=drift)
        whole.advance_to(a + b)
        budget = max(1e-9 * whole.counter_ticks, 1e-6)
        assert abs(split.counter_ticks - whole.counter_ticks) <= budget

    @given(d1=drifts, d2=drifts, dt=durations)
    def test_divergence_matches_drift_difference(self, d1, d2, dt):
        # Two clocks advanced identically diverge by exactly the drift
        # difference times elapsed time (linear model).
        c1, c2 = ClockState(drift_ppm=d1), ClockState(drift_ppm=d2)
        c1.advance_to(dt)
        c2.advance_to(dt)
        expected = (d1 - d2) * 1e-6 * dt
        got = c1.counter_ticks - c2.counter_ticks
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @given(drift=drifts, dt=durations)
    def test_float_tracks_exact_rational_oracle(self, drift, dt):
        c = ClockState(drift_ppm=drift)
        c.advance_to(dt)
        oracle = exact_ticks(Fraction(dt), Fraction(drift))
        assert c.counter_ticks == pytest.approx(float(oracle), rel=1e-12, abs=1e-9)
