"""Transport delays, deterministic jitter, and event-loop ordering."""

import math

import pytest
from hypothesis import given, strategies as st

from cablewatch.network import (
    KIND_REPORT,
    KIND_SYNC,
    SUPERVISOR_NODE,
    EventLoop,
    rf_delay_us,
)
from cablewatch.scenario import DEFAULT_RF_SPEED_M_S, NetworkConfig, Scenario, ScenarioError
from cablewatch.wave import CableGeometry

GEOM = CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0))
POSITIONS = dict(zip(GEOM.sensor_ids, GEOM.positions_m))


def model(seed=42, **link):
    """The network model of a scenario on GEOM with these link fields."""
    config = dict(supervisor_position_m=0.0, latency_mean_us=20.0, latency_jitter_us=1.0)
    config.update(link)
    return Scenario(geometry=GEOM, network=NetworkConfig(**config), seed=seed).network_model()


def draw(m, kind, period_index, sensor_id):
    """(dropped, latency_us) of one receiver, through the one draw kernel."""
    return m._draw(m._prefix(kind, period_index), sensor_id)


class TestPropagationDelay:
    def test_1080m_at_rf_speed_is_6us(self):
        assert rf_delay_us(0.0, 1080.0, DEFAULT_RF_SPEED_M_S) == pytest.approx(6.0, rel=1e-12)

    def test_colocated_nodes_have_zero_delay(self):
        assert rf_delay_us(10.0, 10.0, DEFAULT_RF_SPEED_M_S) == 0.0
        # sensor 1 shares the supervisor's position: only the latency remains
        assert model(latency_jitter_us=0.0).report_delivery(0.0, 0, 1) == 20.0

    def test_300m_delay(self):
        expected = 300.0 / 180e6 * 1e6
        assert rf_delay_us(300.0, 0.0, 180e6) == pytest.approx(expected, rel=1e-12)
        assert rf_delay_us(0.0, 300.0, 180e6) == rf_delay_us(300.0, 0.0, 180e6)

    def test_unknown_node_rejected(self):
        m = model()
        with pytest.raises(ValueError, match="unknown node 99"):
            m.sync_receipt_at(0.0, 0, 99)
        with pytest.raises(ValueError, match="unknown node 99"):
            m.report_delivery(0.0, 0, 99)


class TestBroadcast:
    def test_zero_jitter_colocated_all_arrive_at_mean_latency(self):
        m = model(
            radio_positions_m={1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0},
            latency_mean_us=20.0,
            latency_jitter_us=0.0,
        )
        out = m.broadcast_sync(now_ref_us=1000.0, period_index=0)
        assert out == [(1020.0, 1), (1020.0, 2), (1020.0, 3), (1020.0, 4)]

    def test_radial_difference_of_1080m_gives_6us_receipt_skew(self):
        m = model(
            radio_positions_m={1: 60.0, 2: 1140.0, 3: 0.0, 4: 0.0},
            latency_jitter_us=0.0,
        )
        at = {sid: t for t, sid in m.broadcast_sync(now_ref_us=0.0, period_index=0)}
        skew = at[2] - at[1]
        assert skew == pytest.approx(6.0, rel=1e-9)

    def test_jitter_stays_within_half_width(self):
        m = model(latency_mean_us=20.0, latency_jitter_us=1.0)
        for k in range(50):
            for at, sid in m.broadcast_sync(0.0, k):
                latency = at - rf_delay_us(0.0, POSITIONS[sid], DEFAULT_RF_SPEED_M_S)
                assert 19.0 <= latency <= 21.0

    def test_draws_are_reproducible_across_instances(self):
        a = model(seed=7).broadcast_sync(0.0, 3)
        b = model(seed=7).broadcast_sync(0.0, 3)
        assert a == b

    def test_different_periods_draw_different_jitter(self):
        m = model()
        times = {
            k: tuple(at for at, _ in m.broadcast_sync(0.0, k))
            for k in range(10)
        }
        assert len(set(times.values())) > 1

    def test_drop_probability_one_loses_everything(self):
        m = model(drop_probability=1.0)
        assert m.broadcast_sync(0.0, 0) == []
        assert m.report_delivery(0.0, 0, 1) is None

    def test_report_goes_to_supervisor(self):
        m = model(latency_jitter_us=0.0)
        at = m.report_delivery(100.0, 0, 4)
        assert at == pytest.approx(100.0 + 30.0 / 180e6 * 1e6 + 20.0)

    def test_validation(self):
        # no model is built from a link the scenario refuses
        with pytest.raises(ScenarioError, match="rf_speed_m_s must be > 0"):
            model(rf_speed_m_s=0.0)
        with pytest.raises(ScenarioError, match="latency_mean_us must be >= latency_jitter_us"):
            model(latency_mean_us=0.5, latency_jitter_us=1.0)
        with pytest.raises(ScenarioError, match=r"drop_probability must be in \[0, 1\]"):
            model(drop_probability=1.5)

    @pytest.mark.parametrize("kw", [
        dict(latency_jitter_us=math.nan),
        dict(latency_mean_us=math.inf),
        dict(supervisor_position_m=math.nan),
        dict(radio_positions_m={1: 0.0, 2: math.nan, 3: 20.0, 4: 30.0}),
    ])
    def test_non_finite_values_rejected(self, kw):
        with pytest.raises(ScenarioError, match="must be finite"):
            model(**kw)


class TestKeyedDraws:
    """The counter-based generator behind every jitter and loss draw."""

    def test_drop_rate_and_jitter_moments_match_uniform(self):
        # 100k keys; each statistic within 5 sigma of its uniform value
        m = model(drop_probability=0.1, latency_mean_us=20.0, latency_jitter_us=1.0)
        n, drops, total, squares = 0, 0, 0.0, 0.0
        for kind in (KIND_SYNC, KIND_REPORT):
            for k in range(12_500):
                prefix = m._prefix(kind, k)
                for sid in (1, 2, 3, 4):
                    dropped, latency = m._draw(prefix, sid)
                    x = latency - 20.0  # uniform on [-1, 1]: mean 0, variance 1/3
                    n, drops, total, squares = n + 1, drops + dropped, total + x, squares + x * x
        assert n == 100_000
        assert abs(drops - 0.1 * n) <= 5 * math.sqrt(n * 0.1 * 0.9)
        assert abs(total / n) <= 5 * math.sqrt(1 / 3 / n)
        assert abs(squares / n - 1 / 3) <= 5 * math.sqrt((1 / 5 - 1 / 9) / n)

    def test_keys_differing_in_one_component_draw_differently(self):
        base = draw(model(seed=42), KIND_SYNC, 5, 3)
        assert draw(model(seed=43), KIND_SYNC, 5, 3) != base
        assert draw(model(seed=42), KIND_REPORT, 5, 3) != base
        assert draw(model(seed=42), KIND_SYNC, 6, 3) != base
        assert draw(model(seed=42), KIND_SYNC, 5, 4) != base

    def test_wide_and_negative_seeds_are_separated(self):
        draws = {draw(model(seed=s), KIND_SYNC, 0, 1) for s in (-1, 2**64 - 1, 2**64)}
        assert len(draws) == 3

    @given(
        seed=st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64)),
        period=st.integers(min_value=2**32),
        drop=st.floats(min_value=0.0, max_value=1.0),
        now=st.floats(min_value=0.0, max_value=1e12),
    )
    def test_broadcast_equals_each_receivers_own_draw(self, seed, period, drop, now):
        # one shared (kind, period) prefix per broadcast, the same draws as
        # keying each receiver on its own
        m = model(seed=seed, drop_probability=drop, latency_jitter_us=3.0)
        one_by_one = [(m.sync_receipt_at(now, period, sid), sid) for sid in (1, 2, 3, 4)]
        assert m.broadcast_sync(now, period) == [(at, sid) for at, sid in one_by_one if at is not None]

    def test_pinned_draw(self):
        # a change to the generator changes every run's outputs: make it loud
        m = model(seed=42, drop_probability=0.5)
        assert draw(m, KIND_SYNC, 5, 3) == (False, 19.92399990367404)
        assert draw(m, KIND_REPORT, 5, 3) == (False, 19.137441737333457)


class TestEventLoop:
    def test_dispatch_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(30.0, "timer", SUPERVISOR_NODE, lambda t: seen.append(("c", t)))
        loop.schedule(10.0, "timer", SUPERVISOR_NODE, lambda t: seen.append(("a", t)))
        loop.schedule(20.0, "timer", SUPERVISOR_NODE, lambda t: seen.append(("b", t)))
        assert loop.run() == 3
        assert seen == [("a", 10.0), ("b", 20.0), ("c", 30.0)]
        assert loop.now_ref_us == 30.0

    def test_report_dispatches_before_timer_at_same_instant(self):
        loop = EventLoop()
        seen = []
        loop.schedule(50.0, "timer", SUPERVISOR_NODE, lambda t: seen.append("timer"))
        loop.schedule(50.0, "report", SUPERVISOR_NODE, lambda t: seen.append("report"))
        loop.run()
        assert seen == ["report", "timer"]

    def test_same_kind_ties_break_by_node(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, "timer", 4, lambda t: seen.append(4))
        loop.schedule(5.0, "timer", 2, lambda t: seen.append(2))
        loop.schedule(5.0, "timer", 3, lambda t: seen.append(3))
        loop.schedule(5.0, "timer", SUPERVISOR_NODE, lambda t: seen.append(SUPERVISOR_NODE))
        loop.run()
        assert seen == [SUPERVISOR_NODE, 2, 3, 4]

    def test_actions_can_schedule_later_events(self):
        loop = EventLoop()
        seen = []

        def first(t):
            seen.append("first")
            loop.schedule(t + 10.0, "timer", 1, lambda t2: seen.append("second"))

        loop.schedule(0.0, "timer", 1, first)
        loop.run()
        assert seen == ["first", "second"]

    def test_scheduling_into_the_past_rejected(self):
        loop = EventLoop()
        loop.schedule(10.0, "timer", 1, lambda t: loop.schedule(5.0, "timer", 1, lambda t2: None))
        with pytest.raises(ValueError, match="before now"):
            loop.run()

    def test_unknown_kind_rejected(self):
        # sync receipts and detections are the sensors' own business
        for kind in ("gossip", "sync", "detection"):
            with pytest.raises(ValueError, match="kind"):
                EventLoop().schedule(0.0, kind, 1, lambda t: None)

    def test_empty_queue_terminates(self):
        assert EventLoop().run() == 0

    @given(times=st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=50))
    def test_dispatch_is_always_chronological(self, times):
        loop = EventLoop()
        seen = []
        for t in times:
            loop.schedule(t, "timer", 1, lambda now: seen.append(now))
        loop.run()
        assert seen == sorted(seen)
