"""Scenario validation and YAML loading."""

import collections
import math
import textwrap
import typing

import pytest

from cablewatch import scenario as scenario_module
from cablewatch.scenario import (
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
from cablewatch.wave import CableGeometry, RuptureEvent

GEOM = CableGeometry((1, 2, 3, 4), (0.0, 4.0, 17.0, 27.0))

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
        s = Scenario(geometry=GEOM)
        net = s.network_model()
        assert net.node_position(3) == 17.0
        # supervisor co-located with the first sensor
        assert net.node_position("supervisor") == 0.0
        assert net.seed == 0

    def test_network_model_honors_radio_overrides(self):
        s = Scenario(
            geometry=GEOM,
            network=NetworkConfig(
                supervisor_position_m=-50.0,
                radio_positions_m={1: 0.0, 2: 4.0, 3: 17.0, 4: 1000.0},
            ),
            seed=9,
        )
        net = s.network_model()
        assert net.node_position(4) == 1000.0
        assert net.node_position("supervisor") == -50.0
        assert net.seed == 9


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

    def test_duration_must_cover_rupture_plus_one_period(self):
        with pytest.raises(ScenarioError, match="plus one full sync period"):
            Scenario(
                geometry=GEOM,
                ruptures=(RuptureEvent(14.0, 1_500_000.0),),
                run_duration_us=2_000_000.0,
            )
        # exactly rupture time + T is enough
        Scenario(
            geometry=GEOM,
            ruptures=(RuptureEvent(14.0, 1_500_000.0),),
            run_duration_us=2_500_000.0,
        )

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
        ("network.radio_positions_m[2]", dict(network=NetworkConfig(
            radio_positions_m={1: 0.0, 2: math.nan, 3: 17.0, 4: 27.0}))),
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
        (dict(network=NetworkConfig(radio_positions_m={True: 0.0, 2: 4.0, 3: 17.0, 4: 27.0})),
         "network.radio_positions_m: sensor id must be an int, got True\n"
         "network.radio_positions_m: missing sensors [1]"),
        (dict(network=NetworkConfig(radio_positions_m={"1": 0.0, 2: 4.0, 3: 17.0, 4: 27.0})),
         "network.radio_positions_m: sensor id must be an int, got '1'\n"
         "network.radio_positions_m: missing sensors [1]"),
    ])
    def test_non_int_sensor_id_is_rejected_by_path(self, kw, problem):
        # each of these equals or hashes like a real id, so it passed the
        # roster check: SpuriousEvent(True, ...) was exported as sensor True
        with pytest.raises(ScenarioError) as e:
            Scenario(geometry=GEOM, **kw)
        assert "\n".join(e.value.problems) == problem

    def test_radio_positions_must_match_roster(self):
        with pytest.raises(ScenarioError) as e:
            Scenario(
                geometry=GEOM,
                network=NetworkConfig(radio_positions_m={1: 0.0, 2: 4.0, 3: 17.0, 9: 1.0}),
            )
        msgs = "\n".join(e.value.problems)
        assert "missing sensors [4]" in msgs
        assert "network.radio_positions_m: unknown sensor id 9" in msgs


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
            "jitter_1e20", "jitter_9.22e18"])
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
        assert report.summary["sync_frames_sent"] == sync_frames(s)


class TestEffectiveDuration:
    def test_explicit_duration_wins(self):
        s = Scenario(geometry=GEOM, run_duration_us=7_700_000.0)
        assert s.effective_duration_us() == 7_700_000.0

    def test_empty_scenario_runs_three_periods(self):
        s = Scenario(geometry=GEOM)
        assert s.effective_duration_us() == 3_000_000.0

    def test_rupture_extends_duration_to_cover_its_period(self):
        # rupture late in period 1; last arrival 1_900_000 + 27/5000 s
        s = Scenario(geometry=GEOM, ruptures=(RuptureEvent(0.0, 1_900_000.0),))
        assert s.effective_duration_us() == 3_000_000.0
        # arrivals spill past a period boundary: floor moves with them
        s2 = Scenario(geometry=GEOM, ruptures=(RuptureEvent(0.0, 1_999_000.0),))
        assert s2.effective_duration_us() == 4_000_000.0


def sync_frames(scenario):
    """Sync frames a run of scenario sends: one at every k*T up to its end."""
    return math.floor(scenario.effective_duration_us() / scenario.sync_period_T_us) + 1


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
        assert [sync_frames(s) for s in at] == [MAX_RUN_PERIODS] * 3
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
        assert sync_frames(s) == MAX_RUN_PERIODS


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
                "ruptures[0]: peak_amplitude_g must be finite, got inf",
            ),
            (
                MINIMAL_YAML + "spurious_events: [{sensor_id: 2, time_ref_us: 1500000, amplitude_g: .inf}]\n",
                "spurious_events[0].amplitude_g must be finite, got inf",
            ),
        ],
        ids=["ruptures_scalar", "fractional_sensor_id", "bool_position", "fractional_drift_key",
             "infinite_position", "infinite_peak_amplitude", "infinite_spurious_amplitude"],
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
