"""Scenario validation and YAML loading."""

import collections
import dataclasses
import math
import textwrap
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

from cablewatch import scenario as scenario_module
from cablewatch.clock import MAX_DRIFT_PPM, ClockState
from cablewatch.live import LiveConfig
from cablewatch.network import RF_SPEED_M_S, rf_delay_us
from cablewatch.protocol import SensorProtocol
from cablewatch.scenario import (
    DEFAULT_LATENCY_MEAN_US,
    DEFAULT_SYNC_PERIOD_T_US,
    MAX_RUN_PERIODS,
    NetworkConfig,
    Scenario,
    ScenarioError,
    SpuriousEvent,
    load_scenario,
    read_dataclass,
)
from cablewatch.simulate import run
from cablewatch.wave import CableGeometry, RuptureEvent, is_integer, is_number
from cablewatch.wire import MAX_AMPLITUDE_MILLI_G

GEOM = CableGeometry((1, 2, 3, 4), (0.0, 4.0, 17.0, 27.0))
REFERENCE = CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0))
T_US = DEFAULT_SYNC_PERIOD_T_US

MINIMAL_YAML = textwrap.dedent(
    """
    geometry:
      sensor_ids: [1, 2, 3, 4]
      positions_m: [0.0, 4.0, 17.0, 27.0]
    """
)


@pytest.fixture
def load_text(tmp_path):
    """load_scenario on YAML text, written to a file first."""

    def load(text):
        p = tmp_path / "scene.yaml"
        p.write_text(text)
        return load_scenario(p)

    return load


class TestScenarioDefaults:
    def test_minimal_scenario_uses_documented_defaults(self):
        s = Scenario(geometry=GEOM)
        assert s.wave_speed_m_s == 5000.0
        assert s.threshold_g == 0.8
        assert s.sampling_period_ticks == 4
        assert s.sync_period_T_us == 1_000_000
        assert s.coincidence_window_us == 100_000.0
        assert s.attenuation_per_m == 0.0
        assert s.seed == 0
        assert s.run_duration_us is None
        assert s.drift_for(1) == 0.0

    def test_network_model_defaults_to_cable_positions(self):
        s = Scenario(geometry=GEOM, network=NetworkConfig(latency_jitter_us=0.0))
        net = s.network_model()
        assert net.scenario is s
        # supervisor co-located with the first sensor, sensor 3 at 17 m
        assert net.report_delivery(0.0, 0, 1) == DEFAULT_LATENCY_MEAN_US
        assert net.report_delivery(0.0, 0, 3) == (
            rf_delay_us(0.0, 17.0, RF_SPEED_M_S) + DEFAULT_LATENCY_MEAN_US
        )

    def test_network_model_honors_radio_overrides(self):
        # the supervisor placed off the cable; each sensor's radio stays at its sensor
        s = Scenario(
            geometry=GEOM,
            network=NetworkConfig(supervisor_position_m=-50.0, latency_jitter_us=0.0),
            seed=9,
        )
        net = s.network_model()
        assert s.rf_delays_us() == {
            sid: rf_delay_us(-50.0, pos, RF_SPEED_M_S)
            for sid, pos in zip(GEOM.sensor_ids, GEOM.positions_m)
        }
        for sid, pos in ((1, 0.0), (4, 27.0)):
            assert net.sync_receipt_at(0, sid) == (
                rf_delay_us(-50.0, pos, RF_SPEED_M_S) + DEFAULT_LATENCY_MEAN_US
            )


class TestScenarioValidation:
    def test_two_sensors_rejected(self):
        geom = CableGeometry((1, 2), (0.0, 5.0))
        with pytest.raises(ScenarioError, match="at least 3 sensors"):
            Scenario(geometry=geom)

    def test_unknown_drift_sensor_and_excess_drift(self):
        with pytest.raises(ScenarioError) as e:
            Scenario(geometry=GEOM, drift_ppm={9: 10.0, 1: 5000.0})
        msgs = e.value.problems
        assert any("unknown sensor id 9" in m for m in msgs)
        assert any("sensor 1" in m and "1000" in m for m in msgs)

    def test_rupture_outside_extent(self):
        with pytest.raises(ScenarioError, match=r"outside cable extent \[0.0, 27.0\]"):
            Scenario(geometry=GEOM, ruptures=(RuptureEvent(-5.0, 1000.0),))

    @pytest.mark.parametrize("t_us", [1.5, 0, True, 1e6, math.nan, math.inf])
    def test_period_must_be_an_int_the_wire_carries(self, t_us):
        # True once passed as a 1 us period, 1e6 as an int and inf raised
        # OverflowError; the supervisor refuses the same values
        with pytest.raises(ScenarioError) as e:
            Scenario(geometry=GEOM, sync_period_T_us=t_us)
        assert e.value.problems == [f"sync_period_T_us must be a positive integer, got {t_us!r}"]

    def test_duration_must_close_the_ruptures_last_arrival(self):
        # on the reference cable the wave reaches its last sensor in period
        # 2, whose reports ride frame 3: a run of 3 frames (0, T, 2T) left 3
        # of its 4 arrivals pending and gave only INSUFFICIENT_SENSORS
        def scenario(run_duration_us):
            return Scenario(
                geometry=REFERENCE,
                ruptures=(RuptureEvent(14.0, 1_999_000.0),),
                seed=20,
                run_duration_us=run_duration_us,
            )

        with pytest.raises(ScenarioError) as e:
            scenario(2_999_000.0)
        assert e.value.problems == [
            "ruptures[0]: run_duration_us gives a run of 3 sync frames; closing the period "
            "of its last arrival (time_ref_us + span travel) needs 4"
        ]
        report = run(scenario(3_000_000.0))
        assert report.summary["events_pending_at_end"] == 0
        # period 2's three arrivals localize it; sensor 2's hit, alone in
        # period 1, stays INSUFFICIENT_SENSORS (ROADMAP item 1)
        (estimate,) = [e for e in report.estimates if not e.estimate.flags]
        # the rupture is scored in period 1, its first arrival's, so the
        # clean estimate of period 2 locates nothing until the split
        # clusters are one (ROADMAP item 1a)
        assert estimate.matched == ""
        assert estimate.estimate.x_est_m == pytest.approx(14.008, abs=5e-4)

    def test_all_problems_reported_at_once(self):
        with pytest.raises(ScenarioError) as e:
            Scenario(
                geometry=GEOM,
                drift_ppm={7: 1.0},
                wave_speed_m_s=0.0,
                threshold_g=-1.0,
                sampling_period_ticks=0,
                ruptures=(RuptureEvent(99.0, -3.0),),
                spurious_events=(SpuriousEvent(8, -1.0, 0.0),),
                network=NetworkConfig(latency_mean_us=0.5, latency_jitter_us=2.0),
            )
        msgs = "\n".join(e.value.problems)
        for fragment in (
            "unknown sensor id 7",
            "wave_speed_m_s",
            "threshold_g",
            "sampling_period_ticks",
            "outside cable extent",
            "time must be >= 0",
            "spurious_events[0]: unknown sensor id 8",
            "amplitude must be > 0",
            "latency_mean_us",
        ):
            assert fragment in msgs, fragment
        assert len(e.value.problems) >= 9

    @pytest.mark.parametrize("name, kw", [
        ("run_duration_us", dict(run_duration_us=math.inf)),
        ("attenuation_per_m", dict(attenuation_per_m=math.nan)),
        ("network.latency_jitter_us", dict(network=NetworkConfig(latency_jitter_us=math.nan))),
        ("network.latency_mean_us", dict(network=NetworkConfig(latency_mean_us=math.inf))),
        ("network.supervisor_position_m",
         dict(network=NetworkConfig(supervisor_position_m=math.nan))),
        ("ruptures[1].time_ref_us", dict(ruptures=(
            RuptureEvent(14.0, 1_500_000.0), RuptureEvent(14.0, math.nan)))),
        ("spurious_events[0].time_ref_us", dict(spurious_events=(SpuriousEvent(1, math.nan),))),
        ("wave_speed_m_s", dict(wave_speed_m_s=math.inf)),
        ("threshold_g", dict(threshold_g=math.inf)),
        ("coincidence_window_us", dict(coincidence_window_us=math.inf)),
        ("spurious_events[0].amplitude_g",
         dict(spurious_events=(SpuriousEvent(1, 1_000_000.0, math.inf),))),
    ])
    def test_non_finite_value_is_rejected_by_name(self, name, kw):
        # each of these passed validation, then crashed, never ended a run
        # or, like an infinite wave speed, gave a wrong unflagged estimate
        with pytest.raises(ScenarioError) as e:
            Scenario(geometry=GEOM, **kw)
        assert f"{name} must be finite" in "\n".join(e.value.problems)

    @pytest.mark.parametrize("link, problem", [
        (dict(drop_probability=1.5), "network.drop_probability must be in [0, 1], got 1.5"),
        (dict(drop_probability=-0.1), "network.drop_probability must be in [0, 1], got -0.1"),
    ])
    def test_link_value_out_of_range_is_rejected_by_path(self, link, problem):
        with pytest.raises(ScenarioError) as e:
            Scenario(geometry=GEOM, network=NetworkConfig(**link))
        assert e.value.problems == [problem]

    @pytest.mark.parametrize("kw, problem", [
        (dict(drift_ppm={True: 5.0}), "drift_ppm: sensor id must be an int, got True"),
        (dict(drift_ppm={2: 1.0, "1": 5.0, 1.0: 2.0}),
         "drift_ppm: sensor id must be an int, got '1'\n"
         "drift_ppm: sensor id must be an int, got 1.0"),
        (dict(spurious_events=(SpuriousEvent(True, 1_500_000.0),)),
         "spurious_events[0].sensor_id must be an int, got True"),
        (dict(spurious_events=(SpuriousEvent(2, 1_000_000.0), SpuriousEvent(3.0, 1_500_000.0))),
         "spurious_events[1].sensor_id must be an int, got 3.0"),
        (dict(spurious_events=(SpuriousEvent([1], 1_500_000.0),)),
         "spurious_events[0].sensor_id must be an int, got [1]"),
    ])
    def test_non_int_sensor_id_is_rejected_by_path(self, kw, problem):
        # each of these equals or hashes like a real id, so it passed the
        # roster check: SpuriousEvent(True, ...) was exported as sensor True
        with pytest.raises(ScenarioError) as e:
            Scenario(geometry=GEOM, **kw)
        assert "\n".join(e.value.problems) == problem


class TestNumberRule:
    """Every numeric input goes through one integer rule and one number rule
    (wave.is_integer, wave.is_number): True is not a number, and 1.5 is not
    an integer, whether the value comes from a YAML file or from Python."""

    RUPTURE = RuptureEvent(14.0, 1_500_000.0)
    SPURIOUS = SpuriousEvent(2, 1_200_000.0)

    @classmethod
    def cases(cls):
        """(path, hint, build) for every int- or float-hinted field, Optional
        included; build(value) constructs the record with that field set,
        inside an otherwise valid scenario. An event with the field set
        follows a valid one, so that its path carries index 1."""
        rupture, spurious = cls.RUPTURE, cls.SPURIOUS

        def with_event(kind, valid):
            def build_for(name):
                def build(value):
                    bad = dataclasses.replace(valid, **{name: value})
                    return Scenario(geometry=GEOM, **{kind: (valid, bad)})
                return build
            return build_for

        records = [
            (Scenario, "{}", lambda name: lambda v: Scenario(geometry=GEOM, **{name: v})),
            (NetworkConfig, "network.{}",
             lambda name: lambda v: Scenario(geometry=GEOM, network=NetworkConfig(**{name: v}))),
            (LiveConfig, "{}", lambda name: lambda v: LiveConfig(**{
                "scenario": Scenario(geometry=GEOM, ruptures=(rupture,)), "periods": 5, name: v})),
            (RuptureEvent, "ruptures[1].{}", with_event("ruptures", rupture)),
            (SpuriousEvent, "spurious_events[1].{}", with_event("spurious_events", spurious)),
        ]
        for record, path, build_for in records:
            hints = typing.get_type_hints(record)
            for f in dataclasses.fields(record):
                hint = hints[f.name]
                if typing.get_origin(hint) is typing.Union:
                    (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
                if hint in (int, float):
                    yield path.format(f.name), hint, build_for(f.name)

    def test_every_numeric_field_refuses_a_bool_and_every_int_field_a_fraction(self):
        checked = []
        for path, hint, build in self.cases():
            bad_values = (True, 1.5) if hint is int else (True,)
            for bad in bad_values:
                with pytest.raises(ScenarioError) as e:
                    build(bad)
                assert any(p.startswith(f"{path} must be") for p in e.value.problems), (
                    path, bad, e.value.problems)
            checked.append(path)
        # the walk found every record's fields
        assert {"seed", "sampling_period_ticks", "network.drop_probability",
                "network.supervisor_position_m", "ruptures[1].position_m",
                "spurious_events[1].amplitude_g", "spurious_events[1].sensor_id",
                "report_port", "pace_s"} <= set(checked)

    @pytest.mark.parametrize("build, problem", [
        (lambda: Scenario(geometry=GEOM, drift_ppm={1: 5.0, 2: True}),
         "drift_ppm[2] must be a number, got True"),
        (lambda: LiveConfig(scenario=Scenario(geometry=GEOM), periods=5,
                            sync_ports={1: 0, 2: True, 3: 0, 4: 0}),
         "sync_ports[2] must be an integer, got True"),
    ], ids=["drift_ppm", "sync_ports"])
    def test_a_bool_map_value_is_refused_by_path(self, build, problem):
        # each passed as 1: a 1 ppm drift, a sensor on port 1
        with pytest.raises(ScenarioError) as e:
            build()
        assert e.value.problems == [problem]

    @pytest.mark.parametrize("bad, problem", [
        (RuptureEvent("4", 1_000.0), "ruptures[1].position_m must be a number, got '4'"),
        (RuptureEvent(math.nan, 1_000.0), "ruptures[1].position_m must be finite, got nan"),
        (RuptureEvent(99.0, 1_000.0),
         "ruptures[1]: position 99.0 m outside cable extent [0.0, 27.0] m"),
        (RuptureEvent(14.0, 10**400), f"ruptures[1].time_ref_us must be finite, got {10**400!r}"),
        (RuptureEvent(14.0, 1_000.0, -2.0), "ruptures[1]: amplitude must be > 0, got -2.0"),
        (SpuriousEvent(2, "4"), "spurious_events[1].time_ref_us must be a number, got '4'"),
        (SpuriousEvent(2, None), "spurious_events[1].time_ref_us must be a number, got None"),
        (SpuriousEvent(2, math.inf), "spurious_events[1].time_ref_us must be finite, got inf"),
        (SpuriousEvent(2, -1.0), "spurious_events[1]: time must be >= 0, got -1.0"),
        (SpuriousEvent(2, 1_000.0, 0.0), "spurious_events[1]: amplitude must be > 0, got 0.0"),
        (SpuriousEvent(2, 1_000.0, math.nan),
         "spurious_events[1].amplitude_g must be finite, got nan"),
        (SpuriousEvent(9, 1_000.0), "spurious_events[1]: unknown sensor id 9"),
    ], ids=["str_position", "nan_position", "outside_position", "huge_int_time",
            "negative_peak", "str_time", "none_time", "inf_time", "negative_time",
            "zero_amplitude", "nan_amplitude", "unknown_id"])
    def test_an_event_problem_is_named_by_its_path(self, bad, problem):
        kind = "ruptures" if isinstance(bad, RuptureEvent) else "spurious_events"
        valid = self.RUPTURE if kind == "ruptures" else self.SPURIOUS
        with pytest.raises(ScenarioError) as e:
            Scenario(geometry=GEOM, **{kind: (valid, bad)})
        assert e.value.problems == [problem]

    @staticmethod
    def finite_number(value):
        try:
            return is_number(value) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False

    @staticmethod
    def fits_wire(amplitude_g):
        # the milli-g a sensor queues for its report
        protocol = SensorProtocol(sensor_id=1, clock=ClockState(drift_ppm=0.0))
        try:
            protocol.on_detection(0, amplitude_g)
        except OverflowError:  # milli-g beyond the float range
            return False
        return protocol.pending[0].amplitude_milli_g <= MAX_AMPLITUDE_MILLI_G

    @settings(max_examples=300, deadline=None)
    @given(
        field=st.sampled_from(["position_m", "peak_amplitude_g", "sensor_id", "time_ref_us",
                               "amplitude_g"]),
        value=st.one_of(
            st.floats(), st.integers(), st.integers(min_value=2**1023, max_value=2**1100),
            st.booleans(), st.none(), st.text(max_size=2),
            # each side of a rule's bound: the extent, 0, the wire's u32 milli-g
            st.sampled_from([0.0, -0.0, 5e-324, 27.0, 27.000000000000004, 4294967.295499999,
                             4294967.2955, 1e306]),
        ),
    )
    def test_an_events_verdict_is_its_rule(self, field, value):
        # one field of one event takes any value: the scenario refuses it
        # just when the value breaks that field's rule, the amplitude's as
        # the wire rounds it, and every problem names the event
        if field in ("position_m", "peak_amplitude_g"):
            kind, event = "ruptures", dataclasses.replace(self.RUPTURE, **{field: value})
        else:
            kind, event = "spurious_events", dataclasses.replace(self.SPURIOUS, **{field: value})
        ok = {
            "position_m": lambda v: self.finite_number(v) and 0.0 <= v <= 27.0,
            "time_ref_us": lambda v: self.finite_number(v) and v >= 0,
            "sensor_id": lambda v: is_integer(v) and v in GEOM.sensor_ids,
        }.get(field, lambda v: self.finite_number(v) and v > 0 and self.fits_wire(v))
        try:
            # an explicit run: a spurious hit after its end is left pending
            Scenario(geometry=GEOM, run_duration_us=4e6, **{kind: (event,)})
            problems = []
        except ScenarioError as e:
            problems = e.problems
        assert (not problems) == ok(value), problems
        assert all(p.startswith(f"{kind}[0]") for p in problems), problems


class TestWireLimits:
    """Values that a sync frame or a report cannot carry are refused by
    path: each of these passed validation, then raised WireFormatError in
    the middle of a run."""

    @pytest.mark.parametrize("kw, problem", [
        (dict(geometry=CableGeometry((1, 2, 3, 70000), GEOM.positions_m)),
         "geometry.sensor_ids[3]: sensor id 70000 does not fit the wire's u16 sensor_id "
         "(0 to 65535)"),
        (dict(geometry=CableGeometry((-1, 2, 3, 4), GEOM.positions_m)),
         "geometry.sensor_ids[0]: sensor id -1 does not fit the wire's u16 sensor_id "
         "(0 to 65535)"),
        (dict(sync_period_T_us=5_000_000_000),
         "sync_period_T_us 5000000000 does not fit the wire's u32 period_T_us "
         "(at most 4294967295)"),
        (dict(ruptures=(RuptureEvent(14.0, 1_500_000.0, 5e6),)),
         "ruptures[0].peak_amplitude_g 5000000.0 does not fit the wire's u32 "
         "amplitude_milli_g (at most 4294967.295 g)"),
        (dict(spurious_events=(SpuriousEvent(2, 1_500_000.0), SpuriousEvent(1, 1_500_000.0, 5e6))),
         "spurious_events[1].amplitude_g 5000000.0 does not fit the wire's u32 "
         "amplitude_milli_g (at most 4294967.295 g)"),
        # its milli-g overflows a float: validation raised OverflowError
        (dict(spurious_events=(SpuriousEvent(2, 1_500_000.0, 1e306),)),
         "spurious_events[0].amplitude_g 1e+306 does not fit the wire's u32 "
         "amplitude_milli_g (at most 4294967.295 g)"),
        # a period's counter spans up to T + 2 * jitter: (1e6 + 2e20) * 1.001
        # and (1e6 + 1.844e19) * 1.001 ticks, both past 2**64 - 1
        (dict(ruptures=(RuptureEvent(14.0, 1_500_000.0),),
              network=NetworkConfig(latency_mean_us=1e20, latency_jitter_us=1e20)),
         "network.latency_jitter_us 1e+20 is too wide: a period's counter, up to "
         "(T + 2 * jitter) * (1 + 1000 ppm) ticks, does not fit the wire's u64 saved_counter "
         "(at most 18446744073709551615)"),
        (dict(network=NetworkConfig(latency_mean_us=9.22e18, latency_jitter_us=9.22e18)),
         "network.latency_jitter_us 9.22e+18 is too wide: a period's counter, up to "
         "(T + 2 * jitter) * (1 + 1000 ppm) ticks, does not fit the wire's u64 saved_counter "
         "(at most 18446744073709551615)"),
    ], ids=["sensor_id_70000", "sensor_id_-1", "period_5e9", "rupture_peak", "spurious_amplitude",
            "spurious_amplitude_1e306", "jitter_1e20", "jitter_9.22e18"])
    def test_value_the_wire_cannot_carry_is_refused_by_path(self, kw, problem):
        with pytest.raises(ScenarioError) as e:
            Scenario(**{"geometry": GEOM, **kw})
        assert e.value.problems == [problem]

    def test_the_widest_values_the_wire_carries_run(self):
        s = Scenario(
            geometry=CableGeometry((0, 2, 3, 65535), GEOM.positions_m),
            ruptures=(RuptureEvent(14.0, 1_500_000.0, 4294967.295),),
            spurious_events=(SpuriousEvent(65535, 1_200_000.0, 4294967.295),),
            seed=3,
        )
        report = run(s)
        amps = {e.amplitude_g for e in report.retimed}
        assert amps == {4294967.295}
        assert {e.sensor_id for e in report.retimed} == {0, 2, 3, 65535}

    def test_the_widest_jitter_the_wire_carries_runs(self):
        # (1e6 + 1.842e19) * 1.001 ticks fit in u64. Every sensor drifts as
        # fast as allowed, and of seeds 0-2999 seed 2984 draws the longest
        # reported period, 0.936 * 2**64 ticks
        s = Scenario(
            geometry=GEOM,
            drift_ppm={sid: 1000.0 for sid in GEOM.sensor_ids},
            ruptures=(RuptureEvent(14.0, 1_500_000.0),),
            network=NetworkConfig(latency_mean_us=9.21e18, latency_jitter_us=9.21e18),
            seed=2984,
        )
        report = run(s)
        assert report.summary["sync_frames_sent"] == s.sync_frames()


class TestEffectiveDuration:
    """A run's length, counted in the sync frames it sends."""

    def test_explicit_duration_wins(self):
        # frames at 0, T, ..., 7T
        s = Scenario(geometry=GEOM, run_duration_us=7_700_000.0)
        assert s.sync_frames() == 8

    def test_empty_scenario_runs_three_periods(self):
        s = Scenario(geometry=GEOM)
        assert s.sync_frames() == 4

    def test_rupture_extends_duration_to_cover_its_period(self):
        # rupture late in period 1; last arrival 1_900_000 + 27/5000 s
        s = Scenario(geometry=GEOM, ruptures=(RuptureEvent(0.0, 1_900_000.0),))
        assert s.sync_frames() == 4
        # arrivals spill past a period boundary: the count moves with them
        s2 = Scenario(geometry=GEOM, ruptures=(RuptureEvent(0.0, 1_999_000.0),))
        assert s2.sync_frames() == 5

    @pytest.mark.parametrize("kw, frames", [
        (dict(run_duration_us=math.nextafter(3e6, 0.0)), 3),
        (dict(run_duration_us=3e6), 4),
        (dict(run_duration_us=math.nextafter(3e6, math.inf)), 4),
        (dict(sync_period_T_us=100, run_duration_us=math.nextafter(6500.0, 0.0)), 65),
        (dict(sync_period_T_us=100, run_duration_us=math.nextafter(6500.0, math.inf)), 66),
        (dict(), 4),
        (dict(spurious_events=(SpuriousEvent(2, 0.0), SpuriousEvent(3, 0.0))), 4),
    ], ids=["3T-ulp", "3T", "3T+ulp", "65T-ulp", "65T+ulp", "no_activity", "activity_at_0"])
    def test_run_sends_sync_frames(self, kw, frames):
        # one frame at every k*T up to the end, the end included
        s = Scenario(geometry=GEOM, **kw)
        assert s.sync_frames() == frames
        assert run(s).summary["sync_frames_sent"] == frames


class TestClosingRule:
    @settings(max_examples=150)
    @given(
        geometry=st.sampled_from([REFERENCE, GEOM]),
        where=st.floats(0.0, 1.0),
        period=st.integers(0, 3),
        # anywhere in the period, and as often within the span's travel
        # time (5.4 or 6 ms) of its end, where the last arrival crosses into
        # the next period
        phase_us=st.one_of(
            st.floats(0.0, T_US, exclude_max=True),
            st.floats(T_US - 6000.0, T_US, exclude_max=True),
        ),
        # the run ends near the first or the second boundary after that period
        boundary=st.integers(1, 2),
        nudge_us=st.floats(-6000.0, 6000.0),
        drifts=st.lists(st.floats(-MAX_DRIFT_PPM, MAX_DRIFT_PPM), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    # a run of 3 frames took 1 of this rupture's 4 arrivals
    @example(geometry=REFERENCE, where=14.0 / 30.0, period=1, phase_us=999_000.0, boundary=2,
             nudge_us=-1000.0, drifts=[0.0] * 4, seed=20)
    def test_an_accepted_run_closes_every_arrival(
        self, geometry, where, period, phase_us, boundary, nudge_us, drifts, seed
    ):
        lo, hi = geometry.extent_m
        try:
            s = Scenario(
                geometry=geometry,
                drift_ppm=dict(zip(geometry.sensor_ids, drifts)),
                ruptures=(RuptureEvent(lo + where * (hi - lo), period * T_US + phase_us),),
                seed=seed,
                run_duration_us=(period + boundary) * T_US + nudge_us,
            )
        except ScenarioError:
            return
        assert run(s).summary["events_pending_at_end"] == 0


class TestRunLengthBound:
    @pytest.mark.parametrize("path, line", [
        ("ruptures[0].time_ref_us", "ruptures: [{position_m: 14.0, time_ref_us: 1e13}]"),
        ("spurious_events[0].time_ref_us", "spurious_events: [{sensor_id: 2, time_ref_us: 1e13}]"),
        ("run_duration_us", "run_duration_us: 1e13"),
    ], ids=["rupture", "spurious", "run_duration"])
    def test_far_time_is_rejected_by_name(self, load_text, path, line):
        # 1e13 us is 116 days: ten million periods
        with pytest.raises(ScenarioError) as e:
            load_text(MINIMAL_YAML + line + "\n")
        assert [p for p in e.value.problems if p.startswith(path)] == [
            f"{path} needs a run of {10**7 + (1 if path == 'run_duration_us' else 3)} "
            f"sync periods, more than MAX_RUN_PERIODS ({MAX_RUN_PERIODS})"
        ]

    def test_a_run_exactly_at_the_bound_is_accepted(self):
        t = DEFAULT_SYNC_PERIOD_T_US
        # the period holding the last activity and the next one close the run
        at = [
            Scenario(geometry=GEOM, run_duration_us=(MAX_RUN_PERIODS - 1) * t),
            Scenario(geometry=GEOM, ruptures=(RuptureEvent(14.0, (MAX_RUN_PERIODS - 3) * t),)),
            Scenario(geometry=GEOM, spurious_events=(SpuriousEvent(2, (MAX_RUN_PERIODS - 3) * t),)),
        ]
        assert [s.sync_frames() for s in at] == [MAX_RUN_PERIODS] * 3
        for kw in (
            dict(run_duration_us=MAX_RUN_PERIODS * t),
            dict(ruptures=(RuptureEvent(14.0, (MAX_RUN_PERIODS - 2) * t),)),
            dict(spurious_events=(SpuriousEvent(2, (MAX_RUN_PERIODS - 2) * t),)),
        ):
            with pytest.raises(ScenarioError, match=f"needs a run of {MAX_RUN_PERIODS + 1} sync"):
                Scenario(geometry=GEOM, **kw)

    def test_explicit_duration_alone_sets_the_run_length(self):
        # a late rupture inside an explicit duration needs no more periods
        # than the duration gives
        t = DEFAULT_SYNC_PERIOD_T_US
        s = Scenario(
            geometry=GEOM,
            ruptures=(RuptureEvent(14.0, (MAX_RUN_PERIODS - 2) * t),),
            run_duration_us=(MAX_RUN_PERIODS - 1) * t,
        )
        assert s.sync_frames() == MAX_RUN_PERIODS


class TestYamlLoading:
    def test_minimal_text_loads_with_defaults(self, load_text):
        s = load_text(MINIMAL_YAML)
        assert s.geometry == GEOM
        assert s.sync_period_T_us == DEFAULT_SYNC_PERIOD_T_US

    def test_file_path_loads(self, tmp_path):
        p = tmp_path / "scene.yaml"
        p.write_text(MINIMAL_YAML)
        s = load_scenario(p)
        assert s.geometry == GEOM
        assert load_scenario(str(p)).geometry == GEOM

    def test_missing_file_is_a_scenario_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")
        # a path without a YAML suffix is still a path, never YAML text
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario(str(tmp_path / "scenes" / "missing"))

    def test_type_hints_are_resolved_once_per_class(self, monkeypatch):
        # resolving them once per list item took most of the time of
        # reading a 12,000-event mapping
        calls = collections.Counter()

        def counting(cls):
            calls[cls] += 1
            return typing.get_type_hints(cls)

        monkeypatch.setattr(scenario_module, "get_type_hints", counting)
        s = read_dataclass(Scenario, {
            "geometry": {"sensor_ids": [1, 2, 3, 4], "positions_m": [0.0, 4.0, 17.0, 27.0]},
            "ruptures": [{"position_m": 14.0, "time_ref_us": 1e5 * i} for i in range(50)],
            "spurious_events": [{"sensor_id": 2, "time_ref_us": 1e5 * i} for i in range(50)],
        })
        assert len(s.ruptures) == len(s.spurious_events) == 50
        assert max(calls.values(), default=0) <= 1, calls

    def test_unknown_field_is_named_with_its_path(self, load_text):
        text = MINIMAL_YAML + "\nnetwork:\n  colour: blue\n"
        with pytest.raises(ScenarioError, match="unknown field 'network.colour'"):
            load_text(text)

    @pytest.mark.parametrize("line", [
        "radio_positions_m: {1: 0.0, 2: 4.0, 3: 17.0, 4: 27.0}",
        "rf_speed_m_s: 2.0e8",
    ])
    def test_a_retired_radio_input_is_an_unknown_field(self, load_text, line):
        # each radio sits at its sensor, and the RF speed is network.RF_SPEED_M_S
        name = line.split(":")[0]
        with pytest.raises(ScenarioError) as e:
            load_text(MINIMAL_YAML + f"\nnetwork:\n  {line}\n")
        assert e.value.problems == [f"unknown field 'network.{name}'"]

    def test_unknown_nested_geometry_field(self, load_text):
        text = textwrap.dedent(
            """
            geometry:
              sensor_ids: [1, 2, 3]
              positions_m: [0.0, 1.0, 2.0]
              colour: red
            """
        )
        with pytest.raises(ScenarioError, match="unknown field 'geometry.colour'"):
            load_text(text)

    def test_full_scenario_round_trip(self, load_text):
        text = textwrap.dedent(
            """
            geometry:
              sensor_ids: [1, 2, 3, 4]
              positions_m: [0.0, 4.0, 17.0, 27.0]
            drift_ppm: {1: 50, 2: -50, 3: 12.5, 4: 0}
            wave_speed_m_s: 5400
            threshold_g: 0.5
            sync_period_T_us: 500000
            network:
              latency_mean_us: 30
              latency_jitter_us: 3
              drop_probability: 0.05
            ruptures:
              - {position_m: 14.0, time_ref_us: 1500000, peak_amplitude_g: 2.0}
            spurious_events:
              - {sensor_id: 2, time_ref_us: 900000, amplitude_g: 1.1}
            seed: 42
            """
        )
        s = load_text(text)
        assert s.drift_ppm == {1: 50.0, 2: -50.0, 3: 12.5, 4: 0.0}
        assert s.wave_speed_m_s == 5400
        assert s.sync_period_T_us == 500_000
        assert s.network.drop_probability == 0.05
        assert s.ruptures[0] == RuptureEvent(14.0, 1_500_000.0, 2.0)
        assert s.spurious_events[0] == SpuriousEvent(2, 900_000.0, 1.1)
        assert s.seed == 42

    def test_drift_list_is_refused_as_not_a_mapping(self, load_text):
        # drift_ppm has one form, sensor id to drift, whatever the geometry
        text = MINIMAL_YAML + "\ndrift_ppm: [50, -50, 0, 10]\n"
        with pytest.raises(ScenarioError) as e:
            load_text(text)
        assert e.value.problems == [
            "field 'drift_ppm' must be a mapping, got [50, -50, 0, 10]"
        ]

    def test_unsigned_exponent_notation_accepted(self, load_text):
        # YAML 1.1 resolves 1.5e6 (no exponent sign) as a string; the loader
        # has to take it anyway because every YAML author writes it
        text = MINIMAL_YAML + textwrap.dedent(
            """
            drift_ppm: {1: 1e1, 2: -5e0, 3: 0, 4: 10}
            ruptures:
              - {position_m: 14.0, time_ref_us: 1.5e6}
            run_duration_us: 4e6
            """
        )
        s = load_text(text)
        assert s.ruptures[0].time_ref_us == 1_500_000.0
        assert s.run_duration_us == 4_000_000.0
        assert s.drift_ppm == {1: 10.0, 2: -5.0, 3: 0.0, 4: 10.0}

    def test_non_numeric_strings_still_rejected(self, load_text):
        text = MINIMAL_YAML + "\ndrift_ppm: {1: fast, 2: -50}\nthreshold_g: warm\n"
        with pytest.raises(ScenarioError) as e:
            load_text(text)
        msg = str(e.value)
        assert "field 'drift_ppm[1]' must be a number, got 'fast'" in msg
        assert "threshold_g' must be a number, got 'warm'" in msg

    def test_loader_collects_errors_from_every_section(self, load_text):
        text = textwrap.dedent(
            """
            geometry:
              sensor_ids: [1, 2, 3]
              positions_m: [0.0, 1.0, 2.0]
            bogus_top: 1
            wave_speed_m_s: fast
            ruptures:
              - {position_m: 1.0}
              - {position_m: 1.0, time_ref_us: 0, typo: 7}
            spurious_events:
              - {sensor_id: 1}
            """
        )
        with pytest.raises(ScenarioError) as e:
            load_text(text)
        msgs = "\n".join(e.value.problems)
        assert "unknown field 'bogus_top'" in msgs
        assert "'wave_speed_m_s' must be a number" in msgs
        assert "field 'ruptures[0].time_ref_us' is required" in msgs
        assert "unknown field 'ruptures[1].typo'" in msgs
        assert "field 'spurious_events[0].time_ref_us' is required" in msgs

    @pytest.mark.parametrize(
        "text, problem",
        [
            (MINIMAL_YAML + "ruptures: 5\n", "field 'ruptures' must be a list, got 5"),
            (
                "geometry: {sensor_ids: [1.5, 2, 3], positions_m: [0.0, 1.0, 2.0]}\n",
                "field 'geometry.sensor_ids[0]' must be an integer, got 1.5",
            ),
            (
                "geometry: {sensor_ids: [1, 2, 3], positions_m: [true, 1.0, 2.0]}\n",
                "field 'geometry.positions_m[0]' must be a number, got True",
            ),
            (
                MINIMAL_YAML + "drift_ppm: {1.5: 3.0}\n",
                "field 'drift_ppm' must be keyed by integers, got key 1.5",
            ),
            # YAML's .inf is a float; each record refuses it by name
            (
                "geometry: {sensor_ids: [1, 2, 3, 4], positions_m: [0.0, 10.0, 20.0, .inf]}\n"
                "ruptures: [{position_m: 14.0, time_ref_us: 1500000}]\n",
                "geometry: positions_m[3] must be finite, got inf",
            ),
            (
                MINIMAL_YAML
                + "ruptures: [{position_m: 14.0, time_ref_us: 1500000, peak_amplitude_g: .inf}]\n",
                "ruptures[0].peak_amplitude_g must be finite, got inf",
            ),
            (
                MINIMAL_YAML + "spurious_events: [{sensor_id: 2, time_ref_us: 1500000, amplitude_g: .inf}]\n",
                "spurious_events[0].amplitude_g must be finite, got inf",
            ),
            # an integer beyond the float range is no number a float field holds
            (
                MINIMAL_YAML + f"ruptures: [{{position_m: 14.0, time_ref_us: {10**400}}}]\n",
                f"field 'ruptures[0].time_ref_us' must be a number, got {10**400}",
            ),
            (
                MINIMAL_YAML + f"wave_speed_m_s: {10**400}\n",
                f"field 'wave_speed_m_s' must be a number, got {10**400}",
            ),
        ],
        ids=["ruptures_scalar", "fractional_sensor_id", "bool_position", "fractional_drift_key",
             "infinite_position", "infinite_peak_amplitude", "infinite_spurious_amplitude",
             "huge_int_time", "huge_int_wave_speed"],
    )
    def test_bad_value_is_named_by_its_path(self, load_text, text, problem):
        with pytest.raises(ScenarioError) as e:
            load_text(text)
        assert problem in e.value.problems

    def test_non_mapping_yaml_rejected(self, load_text):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            load_text("- 1\n- 2\n")

    def test_invalid_yaml_rejected(self, load_text):
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_text("geometry: [unclosed\n")

    def test_geometry_required(self):
        with pytest.raises(ScenarioError, match="'geometry' is required"):
            read_dataclass(Scenario, {})
