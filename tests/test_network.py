"""Transport delays and deterministic jitter and loss."""

import math

import pytest
from hypothesis import given, strategies as st

from cablewatch.network import KIND_REPORT, KIND_SYNC, RF_SPEED_M_S, rf_delay_us
from cablewatch.scenario import NetworkConfig, Scenario, ScenarioError
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
        assert rf_delay_us(0.0, 1080.0, RF_SPEED_M_S) == pytest.approx(6.0, rel=1e-12)

    def test_colocated_nodes_have_zero_delay(self):
        assert rf_delay_us(10.0, 10.0, RF_SPEED_M_S) == 0.0
        # sensor 1 shares the supervisor's position: only the latency remains
        assert model(latency_jitter_us=0.0).report_delivery(0.0, 0, 1) == 20.0

    def test_300m_delay(self):
        expected = 300.0 / 180e6 * 1e6
        assert rf_delay_us(300.0, 0.0, 180e6) == pytest.approx(expected, rel=1e-12)
        assert rf_delay_us(0.0, 300.0, 180e6) == rf_delay_us(300.0, 0.0, 180e6)

    def test_unknown_node_rejected(self):
        m = model()
        with pytest.raises(ValueError, match="unknown node 99"):
            m.sync_receipt_at(0, 99)
        with pytest.raises(ValueError, match="unknown node 99"):
            m.report_delivery(0.0, 0, 99)


class TestBroadcast:
    def test_zero_jitter_colocated_all_arrive_at_mean_latency(self):
        # each radio sits at its sensor: the mean latency plus that sensor's
        # own RF delay, none for sensor 1 at the supervisor
        m = model(latency_mean_us=20.0, latency_jitter_us=0.0)
        out = m.broadcast_sync(period_index=0)
        assert out == [
            (rf_delay_us(0.0, POSITIONS[sid], RF_SPEED_M_S) + 20.0, sid)
            for sid in GEOM.sensor_ids
        ]
        assert out[0] == (20.0, 1)

    def test_frame_k_leaves_at_k_periods(self):
        # the model derives each frame's departure, k * T, from its index alone
        link = NetworkConfig(supervisor_position_m=0.0, latency_mean_us=20.0, latency_jitter_us=0.0)
        scenario = Scenario(geometry=GEOM, network=link, sync_period_T_us=250_000)
        m = scenario.network_model()
        for k in range(4):
            expected = [
                (k * 250_000 + rf_delay_us(0.0, POSITIONS[sid], RF_SPEED_M_S) + 20.0, sid)
                for sid in GEOM.sensor_ids
            ]
            assert m.broadcast_sync(k) == expected
            assert [(m.sync_receipt_at(k, sid), sid) for sid in GEOM.sensor_ids] == expected

    def test_radial_difference_of_1080m_gives_6us_receipt_skew(self):
        # sensors 1 and 2 sit 1080 m apart on the cable
        geometry = CableGeometry((1, 2, 3, 4), (60.0, 1140.0, 1150.0, 1160.0))
        link = NetworkConfig(latency_jitter_us=0.0)
        m = Scenario(geometry=geometry, network=link).network_model()
        at = {sid: t for t, sid in m.broadcast_sync(period_index=0)}
        skew = at[2] - at[1]
        assert skew == pytest.approx(6.0, rel=1e-9)

    def test_jitter_stays_within_half_width(self):
        m = model(latency_mean_us=20.0, latency_jitter_us=1.0)
        t_us = m.scenario.sync_period_T_us
        for k in range(50):
            for at, sid in m.broadcast_sync(k):
                latency = at - k * t_us - rf_delay_us(0.0, POSITIONS[sid], RF_SPEED_M_S)
                assert 19.0 <= latency <= 21.0

    def test_draws_are_reproducible_across_instances(self):
        a = model(seed=7).broadcast_sync(3)
        b = model(seed=7).broadcast_sync(3)
        assert a == b

    def test_different_periods_draw_different_jitter(self):
        m = model()
        times = {
            k: tuple(at - k * m.scenario.sync_period_T_us for at, _ in m.broadcast_sync(k))
            for k in range(10)
        }
        assert len(set(times.values())) > 1

    def test_drop_probability_one_loses_everything(self):
        m = model(drop_probability=1.0)
        assert m.broadcast_sync(0) == []
        assert m.report_delivery(0.0, 0, 1) is None

    def test_report_goes_to_supervisor(self):
        m = model(latency_jitter_us=0.0)
        at = m.report_delivery(100.0, 0, 4)
        assert at == pytest.approx(100.0 + 30.0 / 180e6 * 1e6 + 20.0)

    def test_validation(self):
        # no model is built from a link the scenario refuses
        with pytest.raises(ScenarioError, match="latency_mean_us must be >= latency_jitter_us"):
            model(latency_mean_us=0.5, latency_jitter_us=1.0)
        with pytest.raises(ScenarioError, match=r"drop_probability must be in \[0, 1\]"):
            model(drop_probability=1.5)

    @pytest.mark.parametrize("kw", [
        dict(latency_jitter_us=math.nan),
        dict(latency_mean_us=math.inf),
        dict(supervisor_position_m=math.nan),
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
    )
    def test_broadcast_equals_each_receivers_own_draw(self, seed, period, drop):
        # one shared (kind, period) prefix per broadcast, the same draws as
        # keying each receiver on its own
        m = model(seed=seed, drop_probability=drop, latency_jitter_us=3.0)
        one_by_one = [(m.sync_receipt_at(period, sid), sid) for sid in (1, 2, 3, 4)]
        assert m.broadcast_sync(period) == [(at, sid) for at, sid in one_by_one if at is not None]

    def test_pinned_draw(self):
        # a change to the generator changes every run's outputs: make it loud
        m = model(seed=42, drop_probability=0.5)
        assert draw(m, KIND_SYNC, 5, 3) == (False, 19.92399990367404)
        assert draw(m, KIND_REPORT, 5, 3) == (False, 19.137441737333457)
