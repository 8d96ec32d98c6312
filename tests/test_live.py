"""Live datagram mode: real sockets, modeled time."""

import dataclasses
import gc
import logging
import math
import socket
import threading
import time
import warnings

import pytest

from cablewatch import simulate
from cablewatch.live import (
    DEFAULT_REPORT_PORT,
    DEFAULT_SYNC_PORT,
    LiveConfig,
    LiveSupervisor,
    SensorAgent,
    default_sync_ports,
    load_live_config,
    run_live,
)
from cablewatch.scenario import (
    MAX_RUN_PERIODS, NetworkConfig, Scenario, ScenarioError, SpuriousEvent,
)
from cablewatch.simulate import export_csv, report_run, run, sensor_nodes
from cablewatch.wave import CableGeometry, RuptureEvent
from cablewatch.wire import (
    MAX_EVENTS_PER_REPORT, SyncFrame, decode_sensor_report, encode_sync_frame,
)

GEOM = CableGeometry((1, 2, 3, 4), (0.0, 4.0, 17.0, 27.0))


def live_scenario(**overrides):
    base = dict(
        geometry=GEOM,
        drift_ppm={1: 50.0, 2: -50.0, 3: 12.5, 4: -30.0},
        ruptures=(RuptureEvent(14.0, 1_500_000.0),),
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


def ephemeral_config(scenario, periods=5, **overrides):
    kwargs = dict(
        scenario=scenario,
        periods=periods,
        report_port=0,
        sync_ports={sid: 0 for sid in scenario.geometry.sensor_ids},
        timeout_s=10.0,
    )
    kwargs.update(overrides)
    return LiveConfig(**kwargs)


def agent_for(config, sensor_id, report_port=None):
    """One sensor's agent, with its node and network model built as
    `cablewatch agent` builds them."""
    scenario = config.scenario
    return SensorAgent(
        config, sensor_nodes(scenario)[sensor_id], scenario.network_model(), report_port
    )


def free_port():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestConfig:
    def test_default_sync_ports_skip_the_report_port(self):
        assert default_sync_ports((1, 2, 3, 4)) == {
            1: 47801, 2: 47803, 3: 47804, 4: 47805,
        }
        assert DEFAULT_SYNC_PORT == 47801
        assert DEFAULT_REPORT_PORT == 47802

    def test_rejects_single_period(self):
        with pytest.raises(ValueError, match="at least 2"):
            LiveConfig(scenario=live_scenario(), periods=1)

    def test_periods_share_the_scenario_run_length_bound(self):
        at_bound = LiveConfig(scenario=live_scenario(), periods=MAX_RUN_PERIODS)
        assert at_bound.periods == MAX_RUN_PERIODS
        with pytest.raises(ScenarioError, match="periods must be at most MAX_RUN_PERIODS"):
            LiveConfig(scenario=live_scenario(), periods=MAX_RUN_PERIODS + 1)

    def test_periods_must_close_every_ruptures_period(self):
        # a rupture at 5.5 s reaches its sensors in period 5, whose reports
        # ride frame 6, the seventh: fewer frames leave every event pending,
        # by the closing rule a scenario applies to run_duration_us
        s = live_scenario(ruptures=(RuptureEvent(14.0, 5_500_000.0),))
        for periods in (3, 6):
            with pytest.raises(ScenarioError) as e:
                LiveConfig(scenario=s, periods=periods)
            assert e.value.problems == [
                f"ruptures[0]: periods gives a run of {periods} sync frames; closing the "
                "period of its last arrival (time_ref_us + span travel) needs 7"
            ]
        assert run_live(ephemeral_config(s, periods=7)).summary["estimates_matched"] == 1
        # the twin holds at run's own frame count
        assert s.sync_frames() == 8
        assert run_live(ephemeral_config(s, periods=8)) == run(s)

    @pytest.mark.parametrize("time_ref_us", [1_500_000.0, 1_996_000.0, 5_999_000.0])
    def test_periods_close_ruptures_as_the_same_frames_of_a_scenario_do(self, time_ref_us):
        # n frames are what a run_duration_us of (n - 1)*T sends
        s = live_scenario(ruptures=(RuptureEvent(14.0, time_ref_us),))
        t_us = s.sync_period_T_us

        def accepted(make):
            try:
                make()
            except ScenarioError:
                return False
            return True

        live = [accepted(lambda: LiveConfig(scenario=s, periods=n)) for n in range(2, 11)]
        simulated = [
            accepted(lambda: dataclasses.replace(s, run_duration_us=float((n - 1) * t_us)))
            for n in range(2, 11)
        ]
        assert live == simulated
        assert True in live and False in live

    @pytest.mark.parametrize("periods", [3.0, 3.5, True, "5"])
    def test_periods_must_be_an_int(self, periods):
        # a float passed validation, then run_live raised TypeError after
        # binding its sockets
        with pytest.raises(ScenarioError) as e:
            LiveConfig(scenario=live_scenario(), periods=periods)
        assert e.value.problems == [f"periods must be an int, got {periods!r}"]

    def test_rejects_modeled_drops(self):
        s = live_scenario(network=NetworkConfig(drop_probability=0.5))
        with pytest.raises(ValueError, match="drop_probability"):
            LiveConfig(scenario=s, periods=5)

    def test_round_trip_reaching_the_period_deadline_is_refused(self):
        # simulate.run counts a report delivered after k*T + T/2 late; a
        # live supervisor would still file it, so the twins would differ
        def scenario(latency_mean_us):
            return live_scenario(
                network=NetworkConfig(latency_mean_us=latency_mean_us, latency_jitter_us=0.0),
                run_duration_us=3e6,
            )

        for latency_mean_us in (250_000.0, 600_000.0):
            with pytest.raises(ScenarioError) as e:
                ephemeral_config(scenario(latency_mean_us), periods=4)
            assert any("latency_mean_us" in p for p in e.value.problems)
        twin = scenario(249_999.0)
        assert run_live(ephemeral_config(twin, periods=4)) == run(twin)

    @pytest.mark.parametrize("refused_mean_us, network", [
        (249_999.0, dict(latency_jitter_us=1.0)),
        # the farthest radio sets the bound: the supervisor placed 180 km
        # from sensor 1, which is 1000 us of RF delay
        (249_000.0, dict(latency_jitter_us=0.0, supervisor_position_m=180_000.0)),
    ])
    def test_round_trip_counts_jitter_and_the_farthest_rf_delay(self, refused_mean_us, network):
        def config(latency_mean_us):
            s = live_scenario(network=NetworkConfig(latency_mean_us=latency_mean_us, **network))
            return LiveConfig(scenario=s, periods=5)

        with pytest.raises(ScenarioError, match="latency_jitter_us"):
            config(refused_mean_us)
        config(refused_mean_us - 1.0)

    def test_waits_must_be_finite_and_timeout_must_exceed_pace(self):
        with pytest.raises(ScenarioError) as e:
            LiveConfig(scenario=live_scenario(), periods=5, pace_s=math.nan, timeout_s=math.inf)
        assert e.value.problems == ["pace_s must be finite, got nan",
                                    "timeout_s must be finite, got inf"]
        # True passed as a 1 s wait
        with pytest.raises(ScenarioError) as e:
            LiveConfig(scenario=live_scenario(), periods=5, pace_s=True, timeout_s=5.0)
        assert e.value.problems == ["pace_s must be a number, got True"]
        # a remote agent would give up between two frames
        with pytest.raises(ScenarioError) as e:
            LiveConfig(scenario=live_scenario(), periods=5, pace_s=1.0, timeout_s=1.0)
        assert e.value.problems == [
            "need 0 <= pace_s < timeout_s, got {'pace_s': 1.0, 'timeout_s': 1.0}"
        ]

    def test_rejects_incomplete_port_map(self):
        with pytest.raises(ValueError, match=r"missing sensors \[3, 4\]"):
            LiveConfig(scenario=live_scenario(), periods=5, sync_ports={1: 0, 2: 0})

    def test_bool_port_key_is_refused_by_name(self):
        # True hashed like sensor 1, so the missing-sensor check passed and
        # sensor 1 listened on the port given for True
        with pytest.raises(ScenarioError) as e:
            LiveConfig(scenario=live_scenario(), periods=5,
                       sync_ports={True: 5010, 2: 5011, 3: 5012, 4: 5013})
        assert e.value.problems == [
            "sync_ports: sensor id must be an int, got True",
            "sync_ports missing sensors [1]",
        ]

    def test_broadcast_mode_shares_one_port(self):
        cfg = LiveConfig(
            scenario=live_scenario(), periods=5,
            broadcast_address="127.255.255.255", sync_port_base=49200,
        )
        assert cfg.resolved_sync_ports() == {1: 49200, 2: 49200, 3: 49200, 4: 49200}


class TestAgentLogic:
    """Socket-free protocol behavior, driven through handle_sync directly."""

    def setup_method(self):
        # zero jitter: saved counters become closed-form checkable
        self.cfg = ephemeral_config(
            live_scenario(network=NetworkConfig(latency_jitter_us=0.0))
        )
        self.rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.rx.bind(("127.0.0.1", 0))
        self.rx.settimeout(2.0)

    def teardown_method(self):
        self.rx.close()

    def make_agent(self, sensor_id=1):
        return agent_for(self.cfg, sensor_id, report_port=self.rx.getsockname()[1])

    def frame(self, k):
        return encode_sync_frame(SyncFrame(period_index=k, period_T_us=1_000_000))

    def test_first_sync_emits_no_report_second_closes_period_zero(self):
        agent = self.make_agent()
        agent.handle_sync(self.frame(0))
        assert agent.reports_sent == 0
        agent.handle_sync(self.frame(1))
        assert agent.reports_sent == 1
        report = decode_sensor_report(self.rx.recvfrom(65536)[0])
        assert report.sensor_id == 1
        assert report.period_index == 0
        # +50 ppm clock over one nominal second
        assert report.saved_counter_ticks == 1_000_050
        agent.sock.close()

    def test_duplicate_frame_is_ignored_without_reset(self):
        agent = self.make_agent()
        agent.handle_sync(self.frame(0))
        agent.handle_sync(self.frame(0))
        assert agent.node.protocol.duplicate_syncs == 1
        agent.handle_sync(self.frame(1))
        report = decode_sensor_report(self.rx.recvfrom(65536)[0])
        assert report.saved_counter_ticks == 1_000_050
        agent.sock.close()

    def test_frame_announcing_another_period_is_refused(self, caplog):
        # the agent's sensor runs on the scenario's T = 1 s; stamping and
        # retiming against any other T would put every event in the wrong place
        agent = self.make_agent()
        with caplog.at_level(logging.WARNING, logger="cablewatch.live"):
            for k in (0, 1):
                agent.handle_sync(encode_sync_frame(SyncFrame(k, 250_000)))
        assert [r.getMessage() for r in caplog.records if r.name == "cablewatch.live"] == [
            "sensor 1: sync frame announces T = 250000 us, configured for 1000000 us; refused",
        ] * 2
        assert agent.frames_seen == 0
        assert agent.reports_sent == 0
        assert agent.node.protocol.clock.ref_now_us == 0.0
        # the agent still takes the frames of its own T
        agent.handle_sync(self.frame(0))
        assert agent.frames_seen == 1
        agent.sock.close()

    def test_rupture_detection_rides_in_its_period_report(self):
        agent = self.make_agent(sensor_id=3)  # 3 m from the 14 m rupture
        agent.handle_sync(self.frame(0))
        agent.handle_sync(self.frame(1))
        self.rx.recvfrom(65536)  # empty period 0
        agent.handle_sync(self.frame(2))
        report = decode_sensor_report(self.rx.recvfrom(65536)[0])
        assert report.period_index == 1
        assert len(report.events) == 1
        agent.sock.close()

    def test_pre_sync_events_are_stripped_from_live_reports(self):
        cfg = ephemeral_config(
            live_scenario(
                ruptures=(),
                spurious_events=(SpuriousEvent(1, 5.0, 1.0),),
            )
        )
        agent = agent_for(cfg, 1, report_port=self.rx.getsockname()[1])
        # the event at 5 us predates the first sync receipt (~20 us)
        agent.handle_sync(self.frame(0))
        assert agent.node.protocol.discarded_events == 1
        agent.handle_sync(self.frame(1))
        report = decode_sensor_report(self.rx.recvfrom(65536)[0])
        assert report.events == ()
        agent.sock.close()

    def test_arrival_at_the_receipt_instant_rides_the_closing_report(self):
        scenario = self.cfg.scenario
        rx1 = scenario.network_model().sync_receipt_at(1, 3)
        cfg = ephemeral_config(
            live_scenario(network=scenario.network, ruptures=(),
                          spurious_events=(SpuriousEvent(3, rx1),))
        )
        agent = agent_for(cfg, 3, report_port=self.rx.getsockname()[1])
        agent.handle_sync(self.frame(0))
        agent.handle_sync(self.frame(1))
        report = decode_sensor_report(self.rx.recvfrom(65536)[0])
        assert report.period_index == 0
        assert len(report.events) == 1
        agent.sock.close()

    def test_agent_stops_after_the_last_period_not_after_n_datagrams(self):
        cfg = ephemeral_config(live_scenario(), periods=3)
        agent = agent_for(cfg, 1, report_port=self.rx.getsockname()[1])
        worker = threading.Thread(target=agent.run, daemon=True)
        worker.start()
        # a replayed frame 0 must not stand in for frame 2
        for k in (0, 0, 1, 2):
            self.rx.sendto(self.frame(k), ("127.0.0.1", agent.port))
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert agent.frames_seen == 4
        assert agent.reports_sent == 2
        periods = sorted(
            decode_sensor_report(self.rx.recvfrom(65536)[0]).period_index for _ in range(2)
        )
        assert periods == [0, 1]

    def test_agent_without_frames_waits_out_its_timeout(self):
        cfg = ephemeral_config(live_scenario(), timeout_s=0.2)
        agent = agent_for(cfg, 1, report_port=self.rx.getsockname()[1])
        start = time.monotonic()
        agent.run()
        assert time.monotonic() - start >= 0.2
        assert agent.frames_seen == 0
        assert agent.sock.fileno() == -1

    def test_agent_waits_out_its_timeout_after_its_last_frame(self):
        # the wait counts from the last datagram, not from the agent's start
        cfg = ephemeral_config(live_scenario(), timeout_s=0.5)
        agent = agent_for(cfg, 1, report_port=self.rx.getsockname()[1])
        returned = []
        worker = threading.Thread(
            target=lambda: (agent.run(), returned.append(time.monotonic())), daemon=True
        )
        worker.start()
        self.rx.sendto(self.frame(0), ("127.0.0.1", agent.port))
        time.sleep(0.25)
        sent_last = time.monotonic()
        self.rx.sendto(self.frame(1), ("127.0.0.1", agent.port))
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert returned[0] - sent_last >= 0.5
        assert agent.frames_seen == 2


def csv_bytes(report, out_dir):
    return {p.name: p.read_bytes() for p in export_csv(report, out_dir)}


def dense_scenario(run_duration_us):
    """32 sensors 10 m apart on an attenuating cable: ruptures 0 and 1 fall
    within one coincidence window, and three spurious hits ride along."""
    geometry = CableGeometry(tuple(range(1, 33)), tuple(10.0 * i for i in range(32)))
    return Scenario(
        geometry=geometry,
        drift_ppm={sid: (sid * 37) % 101 - 50.0 for sid in geometry.sensor_ids},
        attenuation_per_m=0.01,
        ruptures=(
            RuptureEvent(45.0, 1_200_000.0), RuptureEvent(203.0, 1_240_000.0),
            RuptureEvent(131.0, 2_500_000.0), RuptureEvent(288.0, 2_900_000.0),
        ),
        spurious_events=(
            SpuriousEvent(5, 1_700_000.0), SpuriousEvent(17, 2_050_000.0),
            SpuriousEvent(30, 3_600_000.0),
        ),
        run_duration_us=run_duration_us,
        seed=11,
    )


class TestEndToEnd:
    def test_live_run_matches_simulated_twin_exactly(self, tmp_path):
        periods = 5
        duration = (periods - 1) * 1_000_000.0

        def twins(scenario, name):
            live = run_live(ephemeral_config(scenario, periods=periods))
            sim = run(scenario)
            # the same bytes flowed through real sockets: detections,
            # reports, retimed events, scored estimates and summary are
            # identical, not merely close; a lost or undecodable report
            # would change completed_periods
            assert live == sim
            assert csv_bytes(live, tmp_path / f"live-{name}") == csv_bytes(
                sim, tmp_path / f"sim-{name}"
            )
            assert len(live.completed_periods) == periods - 1
            assert all(p.complete for p in live.completed_periods)
            return live

        for i, (spurious, pending, discarded) in enumerate([
            ((), 0, 0),
            # sensor 3 detects before its first sync receipt (~20 us)
            ((SpuriousEvent(3, 5.0),), 0, 1),
            # sensor 2 detects after its last sync receipt (~4 s)
            ((SpuriousEvent(2, 4_500_000.0),), 1, 0),
            # sensor 2 detects one event more in period 2 than a report carries
            (tuple(SpuriousEvent(2, 2_100_000.0 + 100.0 * j)
                   for j in range(MAX_EVENTS_PER_REPORT + 1)), 0, 1),
        ]):
            scenario = live_scenario(run_duration_us=duration, spurious_events=spurious)
            live = twins(scenario, str(i))
            assert live.summary["events_pending_at_end"] == pending
            assert live.summary["events_discarded"] == discarded

            est = [e for e in live.estimates if e.matched == "rupture:0"]
            assert len(est) == 1
            assert abs(est[0].estimate.x_est_m - 14.0) <= 0.15

        live = twins(dense_scenario(duration), "dense")
        assert live.summary["sensors"] == 32
        assert {d.source for d in live.detections} >= {f"rupture:{k}" for k in range(4)}

    def test_run_live_builds_the_model_once(self, monkeypatch):
        # one wave simulation per rupture and one network model per run,
        # however many agents there are
        calls = {"simulate_rupture": 0, "network_model": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            simulate, "simulate_rupture", counted("simulate_rupture", simulate.simulate_rupture)
        )
        monkeypatch.setattr(
            Scenario, "network_model", counted("network_model", Scenario.network_model)
        )
        scenario = live_scenario(
            ruptures=(RuptureEvent(14.0, 1_500_000.0), RuptureEvent(5.0, 2_300_000.0)),
            run_duration_us=4_000_000.0,
        )
        live = run_live(ephemeral_config(scenario))
        assert calls == {"simulate_rupture": 2, "network_model": 1}
        assert len(live.detections) == 8

    def test_live_broadcast_mode_completes_periods(self):
        scenario = live_scenario()
        cfg = LiveConfig(
            scenario=scenario,
            periods=3,
            report_port=0,
            broadcast_address="127.255.255.255",
            sync_port_base=free_port(),
            timeout_s=10.0,
        )
        result = run_live(cfg)
        assert len(result.completed_periods) == 2
        assert all(p.complete for p in result.completed_periods)

    def test_silent_sensor_times_out_every_period(self, caplog):
        # sensor 4's frames go to a bound socket that never answers, so no
        # period completes: each is released partial when the wait runs out
        periods = 4
        scenario = live_scenario(run_duration_us=(periods - 1) * 1_000_000.0)
        config = ephemeral_config(scenario, periods=periods, timeout_s=0.5)
        supervisor = LiveSupervisor(config)
        nodes, net = sensor_nodes(scenario), scenario.network_model()
        agents = [
            SensorAgent(config, nodes[sid], net, report_port=supervisor.port)
            for sid in (1, 2, 3)
        ]
        silent = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        silent.bind(("127.0.0.1", 0))
        supervisor.targets = {a.sensor_id: a.port for a in agents}
        supervisor.targets[4] = silent.getsockname()[1]
        try:
            with caplog.at_level(logging.WARNING, logger="cablewatch.live"):
                assert supervisor.run(agents) is supervisor
        finally:
            silent.close()

        closed = range(periods - 1)
        released = supervisor.protocol.released
        assert sorted(released) == list(closed)
        assert all(not released[k].complete and released[k].missing == (4,) for k in closed)
        twin = run(scenario).completed_periods
        assert [released[k].reports for k in closed] == [
            tuple(r for r in p.reports if r.sensor_id != 4) for p in twin
        ]
        assert supervisor.reports_received == 3 * len(closed)
        assert supervisor.decode_errors == 0
        assert [r.getMessage() for r in caplog.records if r.name == "cablewatch.live"] == [
            f"supervisor: period {k} timed out, releasing partial" for k in closed
        ]

    def test_wall_pacing_does_not_change_modeled_values(self):
        periods = 4
        scenario = live_scenario(run_duration_us=(periods - 1) * 1_000_000.0)
        start = time.monotonic()
        paced = run_live(ephemeral_config(scenario, periods=periods, pace_s=0.05))
        # every frame, the last included, is followed by its full pace
        assert time.monotonic() - start >= periods * 0.05
        quick = run_live(ephemeral_config(scenario, periods=periods))
        assert paced.retimed == quick.retimed

    def test_unpaced_long_run_loses_no_frame(self):
        # the supervisor serves its agents between frames, so frames sent
        # back to back never pile up in a socket until the kernel drops them
        periods = 300
        scenario = live_scenario(run_duration_us=(periods - 1) * 1_000_000.0)
        live = run_live(ephemeral_config(scenario, periods=periods, timeout_s=5.0))
        assert len(live.completed_periods) == periods - 1
        assert all(p.complete for p in live.completed_periods)
        assert live == run(scenario)

    def test_paced_agents_in_their_own_loops_see_every_frame(self):
        # agents serve themselves, as `cablewatch agent` processes do, and
        # the run lasts longer than timeout_s: each agent keeps waiting as
        # long as frames keep coming
        periods = 8
        scenario = live_scenario(run_duration_us=(periods - 1) * 1_000_000.0)
        config = ephemeral_config(scenario, periods=periods, pace_s=0.2, timeout_s=1.0)
        supervisor = LiveSupervisor(config)
        nodes, net = sensor_nodes(scenario), scenario.network_model()
        agents = [
            SensorAgent(config, nodes[sid], net, report_port=supervisor.port)
            for sid in (1, 2, 3, 4)
        ]
        supervisor.targets = {a.sensor_id: a.port for a in agents}
        workers = [threading.Thread(target=a.run, daemon=True) for a in agents]
        for w in workers:
            w.start()
        supervisor.run()
        for w in workers:
            w.join(timeout=10.0)
        assert not any(w.is_alive() for w in workers)

        assert [a.frames_seen for a in agents] == [periods] * 4
        released = supervisor.protocol.released
        assert sorted(released) == list(range(periods - 1))
        assert all(p.complete for p in released.values())
        assert [released[k] for k in sorted(released)] == run(scenario).completed_periods

    def test_run_live_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"run_live started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        scenario = live_scenario(run_duration_us=4_000_000.0)
        assert run_live(ephemeral_config(scenario)) == run(scenario)

    def test_undecodable_datagrams_are_logged_and_skipped(self, caplog):
        # one junk datagram waits at the supervisor and one at sensor 1 before
        # the first frame; each is dropped with a warning and the run goes on
        periods = 4
        scenario = live_scenario(run_duration_us=(periods - 1) * 1_000_000.0)
        config = ephemeral_config(scenario, periods=periods)
        supervisor = LiveSupervisor(config)
        nodes, net = sensor_nodes(scenario), scenario.network_model()
        agents = [
            SensorAgent(config, nodes[sid], net, report_port=supervisor.port)
            for sid in (1, 2, 3, 4)
        ]
        supervisor.targets = {a.sensor_id: a.port for a in agents}
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as junk:
            junk.sendto(b"junk", ("127.0.0.1", supervisor.port))
            junk.sendto(b"junk", ("127.0.0.1", agents[0].port))
        with caplog.at_level(logging.WARNING, logger="cablewatch.live"):
            supervisor.run(agents)

        assert supervisor.decode_errors == 1
        assert supervisor.reports_received == 4 * (periods - 1)
        messages = [r.getMessage() for r in caplog.records if r.name == "cablewatch.live"]
        assert len(messages) == 2
        assert sum(m.startswith("supervisor: undecodable report datagram: ") for m in messages) == 1
        assert sum(m.startswith("sensor 1: undecodable datagram: ") for m in messages) == 1
        live = report_run(scenario, (a.node for a in agents), supervisor.protocol)
        sim = run(scenario)
        assert len(live.completed_periods) == periods - 1
        assert all(p.complete for p in live.completed_periods)
        assert live == sim  # retimed events, estimates and summary alike


def caught_resource_warnings(fn):
    """Call fn, which must raise OSError, then collect garbage; return the
    ResourceWarnings seen, such as one per socket left unclosed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(OSError):
            fn()
        gc.collect()
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestFailedBind:
    def test_run_live_closes_every_socket_when_an_agent_cannot_bind(self):
        # sensor 3 asks for the port sensor 2 already holds, after the
        # supervisor and sensors 1 and 2 have bound theirs
        port = free_port()
        config = ephemeral_config(live_scenario(), sync_ports={1: 0, 2: port, 3: port, 4: 0})
        assert caught_resource_warnings(lambda: run_live(config)) == []

    def test_run_live_closes_its_socket_when_the_supervisor_cannot_bind(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
            holder.bind(("127.0.0.1", 0))
            config = ephemeral_config(live_scenario(), report_port=holder.getsockname()[1])
            assert caught_resource_warnings(lambda: run_live(config)) == []

    def test_agent_closes_its_socket_when_it_cannot_bind(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as holder:
            holder.bind(("127.0.0.1", 0))
            config = ephemeral_config(
                live_scenario(), sync_ports={1: holder.getsockname()[1], 2: 0, 3: 0, 4: 0}
            )
            assert caught_resource_warnings(lambda: agent_for(config, 1)) == []


class TestLiveConfigFile:
    def test_inline_scenario(self, tmp_path):
        p = tmp_path / "live.yaml"
        p.write_text(
            "periods: 4\n"
            "report_port: 48900\n"
            "pace_s: 0.01\n"
            "scenario:\n"
            "  geometry:\n"
            "    sensor_ids: [1, 2, 3]\n"
            "    positions_m: [0.0, 10.0, 20.0]\n"
        )
        cfg = load_live_config(p)
        assert cfg.periods == 4
        assert cfg.report_port == 48900
        assert cfg.pace_s == 0.01
        assert cfg.scenario.geometry.sensor_ids == (1, 2, 3)

    def test_scenario_by_relative_path(self, tmp_path):
        (tmp_path / "scene.yaml").write_text(
            "geometry:\n  sensor_ids: [1, 2, 3]\n  positions_m: [0.0, 1.0, 2.0]\n"
        )
        p = tmp_path / "live.yaml"
        p.write_text("periods: 2\nscenario: scene.yaml\n")
        cfg = load_live_config(p)
        assert cfg.scenario.geometry.span_m == 2.0

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "live.yaml"
        p.write_text("periods: 2\nscenario: {geometry: {sensor_ids: [1,2,3], positions_m: [0,1,2]}}\ncolour: red\n")
        with pytest.raises(ScenarioError, match="unknown field 'colour'"):
            load_live_config(p)

    BAD_SCENARIO = (
        "geometry: {sensor_ids: [1, 2, 3, 4], positions_m: [0.0, 10.0, 20.0, 30.0]}\n"
        "colour: red\n"
        "ruptures:\n  - {position_m: 99.0, time_ref_us: 1.5e6}\n"
    )
    BAD_SCENARIO_PROBLEMS = [
        "unknown field 'scenario.colour'",
        "scenario: ruptures[0]: position 99.0 m outside cable extent [0.0, 30.0] m",
        "field 'periods' must be an integer, got 'abc'",
        "field 'timeout_s' must be a number, got 'fast'",
    ]

    def test_scenario_file_problems_come_by_path_with_the_configs_own(self, tmp_path):
        # one diagnosis: the file's problems under 'scenario', and the
        # config's own problems in the same report
        (tmp_path / "scenario.yaml").write_text(self.BAD_SCENARIO)
        p = tmp_path / "live.yaml"
        p.write_text("periods: abc\ntimeout_s: fast\nscenario: scenario.yaml\n")
        with pytest.raises(ScenarioError) as e:
            load_live_config(p)
        assert e.value.problems == self.BAD_SCENARIO_PROBLEMS

    def test_inline_scenario_gives_the_same_diagnosis_as_its_file(self, tmp_path):
        inline = "".join(f"  {line}\n" for line in self.BAD_SCENARIO.splitlines())
        p = tmp_path / "live.yaml"
        p.write_text(f"periods: abc\ntimeout_s: fast\nscenario:\n{inline}")
        with pytest.raises(ScenarioError) as e:
            load_live_config(p)
        assert e.value.problems == self.BAD_SCENARIO_PROBLEMS

    def test_missing_required_fields(self, tmp_path):
        p = tmp_path / "live.yaml"
        p.write_text("host: 127.0.0.1\n")
        with pytest.raises(ScenarioError) as e:
            load_live_config(p)
        msgs = "\n".join(e.value.problems)
        assert "'scenario' is required" in msgs
        assert "'periods' is required" in msgs

    @pytest.mark.parametrize(
        "line, field",
        [
            ("sync_ports: [47801, 47803, 47804]", "sync_ports"),
            ("sync_ports: {one: 47801}", "sync_ports"),
            ("broadcast_address: 5", "broadcast_address"),
            ("periods: 2.7", "periods"),
            ("pace_s: true", "pace_s"),
        ],
        ids=[
            "sync_ports_list", "sync_ports_named_key", "broadcast_address_number",
            "periods_fraction", "pace_s_bool",
        ],
    )
    def test_bad_field_is_rejected_by_name(self, tmp_path, line, field):
        p = tmp_path / "live.yaml"
        p.write_text(
            "periods: 2\nscenario: {geometry: {sensor_ids: [1,2,3], positions_m: [0,1,2]}}\n"
            + line + "\n"
        )
        with pytest.raises(ScenarioError, match=f"field '{field}' must be"):
            load_live_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_live_config(tmp_path / "nope.yaml")

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("report_port: 70000", "report_port must be a port in 0-65535, got 70000"),
            ("sync_port_base: 65536", "sync_port_base must be a port in 0-65535, got 65536"),
            (
                "sync_ports: {1: -1, 2: 47803, 3: 47804}",
                "sync_ports[1] must be a port in 0-65535, got -1",
            ),
            # sensors 1-3 count up from the base: 65534, 65535, 65536
            ("sync_port_base: 65534", "sync_ports[3] must be a port in 0-65535, got 65536"),
        ],
        ids=["report_port", "sync_port_base", "sync_ports", "sync_port_counted_from_base"],
    )
    def test_port_out_of_range_is_rejected_by_name(self, tmp_path, line, problem):
        assert problem in self.problems_with(tmp_path, line)

    def test_port_of_an_unknown_sensor_is_refused_by_name(self, tmp_path):
        # was accepted, and no agent of the roster listens on that port
        line = "sync_ports: {1: 52712, 2: 52713, 3: 52714, 9: 52719}"
        assert self.problems_with(tmp_path, line) == ["sync_ports: unknown sensor id 9"]

    @pytest.mark.parametrize(
        "line, problem",
        [
            # YAML floats, which a selector cannot wait on
            ("pace_s: .inf", "pace_s must be finite, got inf"),
            ("pace_s: .nan", "pace_s must be finite, got nan"),
            ("timeout_s: .inf", "timeout_s must be finite, got inf"),
            ("timeout_s: .nan", "timeout_s must be finite, got nan"),
            # the default timeout_s is 5.0
            ("pace_s: 5.0", "need 0 <= pace_s < timeout_s, got {'pace_s': 5.0, 'timeout_s': 5.0}"),
            ("pace_s: -0.5", "need 0 <= pace_s < timeout_s, got {'pace_s': -0.5, 'timeout_s': 5.0}"),
        ],
        ids=["pace_s_inf", "pace_s_nan", "timeout_s_inf", "timeout_s_nan",
             "timeout_s_not_above_pace_s", "pace_s_negative"],
    )
    def test_bad_wait_is_rejected_by_name(self, tmp_path, line, problem):
        assert self.problems_with(tmp_path, line) == [problem]

    def problems_with(self, tmp_path, line):
        """The problems load_live_config finds in a minimal config plus line."""
        p = tmp_path / "live.yaml"
        p.write_text(
            "periods: 2\nscenario: {geometry: {sensor_ids: [1,2,3], positions_m: [0,1,2]}}\n"
            + line + "\n"
        )
        with pytest.raises(ScenarioError) as e:
            load_live_config(p)
        return e.value.problems
