"""Live datagram mode: the same protocol over real UDP sockets.

The supervisor and each sensor agent are separate endpoints exchanging the
simulator's wire bytes, served by one event loop per process (a selector on
one thread; run_live starts no thread). Time stays modeled: each agent
drives its sensor's SensorNode (the simulator's sensor driver) with receipt
instants drawn from the run's NetworkModel, keyed by (seed, period, sensor)
like the simulated transport, and run_live ends with the simulator's own
tail (simulate.report_run), so it returns the same RunReport as a simulated
run, equal field for field, when periods is that run's frame count,
Scenario.sync_frames(); other periods send other frames, so their report
differs. LiveConfig holds periods to the scenario's closing rule
(Scenario.closing_problems), and refuses what no live run can reproduce: a
modeled drop, and a modeled round trip that can reach the protocol's period
deadline, which a live report, carrying no modeled delivery instant, meets
only once every frame is sent (SupervisorProtocol.release_due). Wall pacing
only spaces frames out, never timestamps, and no endpoint waits out more
than timeout_s of silence.
"""

from __future__ import annotations

import logging
import math
import selectors
import socket
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

from .network import NetworkModel, rf_delay_us
from .protocol import PERIOD_TIMEOUT_FRACTION, SupervisorProtocol
from .scenario import (
    MAX_RUN_PERIODS, Scenario, ScenarioError, load_scenario, load_yaml_mapping, read_dataclass,
    roster_pairs,
)
from .simulate import RunReport, SensorNode, report_run, sensor_nodes
from .wire import (
    WireFormatError, decode_sensor_report, decode_sync_frame, encode_sensor_report,
    encode_sync_frame,
)

log = logging.getLogger(__name__)

DEFAULT_SYNC_PORT = 47801
DEFAULT_REPORT_PORT = 47802
_RECV_BYTES = 65536


def default_sync_ports(sensor_ids, base: int = DEFAULT_SYNC_PORT,
                       report_port: int = DEFAULT_REPORT_PORT) -> dict[int, int]:
    """One listening port per sensor: base upwards, skipping the report port."""
    ports = {}
    port = base
    for sid in sorted(sensor_ids):
        while port == report_port:
            port += 1
        ports[sid] = port
        port += 1
    return ports


@dataclass(frozen=True)
class LiveConfig:
    """Endpoint wiring for one live run.

    periods, an int, counts the sync frames sent, from 2 up to
    MAX_RUN_PERIODS, and must close every rupture by the rule a scenario
    applies to the frames of its run_duration_us (Scenario.closing_problems).
    sync_ports maps every roster sensor id, and no other key, to its
    listening port (the key rule is scenario.roster_pairs'); a port of 0
    binds an OS-assigned one (in-process runs resolve it automatically;
    separate processes need fixed ports). broadcast_address switches the
    supervisor to a single broadcast datagram per frame, with every agent
    sharing sync_port_base. Every port, given or counted up from sync_port_base,
    must lie in 0-65535. The scenario may model no drop, and no report round
    trip that can reach the protocol's period deadline (see the module
    docstring).

    pace_s is the least wall time between frames; timeout_s, the longest
    silence any endpoint waits out, must exceed it, or a remote agent would
    give up between two frames; both are finite. Any datagram counts, junk
    too: a steady stream of it keeps an endpoint waiting, but an agent still
    stops at its last frame, and the supervisor once every closing period
    is released.
    """

    scenario: Scenario
    periods: int
    host: str = "127.0.0.1"
    report_port: int = DEFAULT_REPORT_PORT
    sync_ports: Optional[Mapping[int, int]] = None
    sync_port_base: int = DEFAULT_SYNC_PORT
    broadcast_address: Optional[str] = None
    pace_s: float = 0.0
    timeout_s: float = 5.0

    def __post_init__(self) -> None:
        problems = []
        periods = self.periods
        if isinstance(periods, bool) or not isinstance(periods, int):
            problems.append(f"periods must be an int, got {periods!r}")
        elif periods < 2:
            problems.append(f"need at least 2 sync periods to close one, got {periods!r}")
        elif periods > MAX_RUN_PERIODS:
            problems.append(
                f"periods must be at most MAX_RUN_PERIODS ({MAX_RUN_PERIODS}), got {periods!r}"
            )
        else:
            problems.extend(self.scenario.closing_problems(periods, "periods"))
        network = self.scenario.network
        if network.drop_probability != 0.0:
            problems.append("live mode sends real datagrams; modeled drop_probability must be 0")
        sup, positions = self.scenario.radio_positions()
        rf_us = max(rf_delay_us(sup, p, network.rf_speed_m_s) for p in positions.values())
        round_trip_us = 2 * (rf_us + network.latency_mean_us + network.latency_jitter_us)
        deadline_us = PERIOD_TIMEOUT_FRACTION * self.scenario.sync_period_T_us
        if round_trip_us >= deadline_us:
            problems.append(
                "live mode has no modeled period timeout; modeled round trip "
                "2*(RF delay + latency_mean_us + latency_jitter_us) must be under "
                f"PERIOD_TIMEOUT_FRACTION*T = {deadline_us!r} us, got {round_trip_us!r}"
            )
        waits = {"pace_s": self.pace_s, "timeout_s": self.timeout_s}
        bad = [f"{k} must be finite, got {v!r}" for k, v in waits.items() if not math.isfinite(v)]
        problems.extend(bad)
        if not bad and not 0 <= self.pace_s < self.timeout_s:
            problems.append(f"need 0 <= pace_s < timeout_s, got {waits}")
        if self.sync_ports is not None:
            ids = set(self.scenario.geometry.sensor_ids)
            placed = roster_pairs("sync_ports", self.sync_ports, ids, problems)
            missing = ids - {sid for sid, _ in placed}
            if missing:
                problems.append(f"sync_ports missing sensors {sorted(missing)}")
            object.__setattr__(self, "sync_ports", dict(self.sync_ports))
        # resolved, so that ports counted up from sync_port_base are checked too
        ports = {"report_port": self.report_port, "sync_port_base": self.sync_port_base}
        ports.update((f"sync_ports[{sid}]", p) for sid, p in self.resolved_sync_ports().items())
        problems.extend(
            f"{name} must be a port in 0-65535, got {port!r}"
            for name, port in ports.items()
            if not 0 <= port <= 65535
        )
        if problems:
            raise ScenarioError(problems)

    def resolved_sync_ports(self) -> dict[int, int]:
        if self.sync_ports is not None:
            return dict(self.sync_ports)
        if self.broadcast_address is not None:
            return {sid: self.sync_port_base for sid in self.scenario.geometry.sensor_ids}
        return default_sync_ports(
            self.scenario.geometry.sensor_ids, self.sync_port_base, self.report_port
        )


def _bound_socket(host: str, port: int, reuse_port: bool = False) -> socket.socket:
    """A non-blocking UDP socket bound to (host, port), closed if binding fails."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        if reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    sock.setblocking(False)
    return sock


@contextmanager
def _socket_loop(endpoints: list):
    """Yield a selector over the endpoints' sockets; close them all on exit."""
    with selectors.DefaultSelector() as selector, ExitStack() as sockets:
        for e in endpoints:
            sockets.enter_context(e.sock)
            selector.register(e.sock, selectors.EVENT_READ, e.on_datagram)
        yield selector


def _serve(selector, timeout: float) -> int:
    """Hand one datagram to each endpoint ready within timeout seconds; count them."""
    ready = selector.select(timeout)
    for key, _ in ready:
        try:
            data = key.fileobj.recv(_RECV_BYTES)
        except BlockingIOError:
            continue
        key.data(data)
    return len(ready)


class SensorAgent:
    """One sensor endpoint: listens for sync frames, sends reports.

    Drives the given node, one of config.scenario's, with receipt instants
    drawn from net, the scenario's network model, which agents may share.
    Binds its socket at construction so callers can start the supervisor
    afterwards without losing frames; run() serves it alone until the last
    expected frame, or until timeout_s passes with no datagram.
    """

    def __init__(
        self,
        config: LiveConfig,
        node: SensorNode,
        net: NetworkModel,
        report_port: Optional[int] = None,
    ):
        self.config = config
        self.node = node
        self.net = net
        self.sensor_id = sensor_id = node.protocol.sensor_id
        self.report_port = report_port if report_port is not None else config.report_port
        self.frames_seen = 0
        self.reports_sent = 0
        self.sock = _bound_socket(
            config.host if config.broadcast_address is None else "",
            config.resolved_sync_ports()[sensor_id],
            reuse_port=config.broadcast_address is not None,
        )
        self.port = self.sock.getsockname()[1]

    def handle_sync(self, payload: bytes, out_sock: socket.socket) -> None:
        frame = decode_sync_frame(payload)
        t_us = self.config.scenario.sync_period_T_us
        modeled = self.net.sync_receipt_at(
            frame.period_index * t_us, frame.period_index, self.sensor_id
        )
        assert modeled is not None  # LiveConfig forbids modeled drops
        report = self.node.receive_sync(frame, modeled)
        self.frames_seen += 1
        if report is None:
            return
        out_sock.sendto(encode_sensor_report(report), (self.config.host, self.report_port))
        self.reports_sent += 1

    def on_datagram(self, data: bytes) -> None:
        try:
            self.handle_sync(data, self.sock)
        except WireFormatError as e:
            log.warning("sensor %d: undecodable datagram: %s", self.sensor_id, e)

    def run(self) -> None:
        # duplicates and replays count as frames; only the last period ends the run
        last = self.config.periods - 1
        with _socket_loop([self]) as selector:
            while (self.node.protocol.last_seen_period_index != last
                   and _serve(selector, self.config.timeout_s)):
                pass


class LiveSupervisor:
    """The central endpoint: broadcasts sync frames, collects reports.

    Frame k is stamped with modeled time k*T regardless of wall pacing, so
    agents reproduce the simulator's receipt instants exactly.
    """

    def __init__(self, config: LiveConfig):
        self.config = config
        scenario = config.scenario
        self.protocol = SupervisorProtocol(
            roster=scenario.geometry.sensor_ids,
            period_t_us=scenario.sync_period_T_us,
        )
        self.targets = config.resolved_sync_ports()
        self.reports_received = 0
        self.decode_errors = 0
        self.sock = _bound_socket(config.host, config.report_port)
        self.port = self.sock.getsockname()[1]

    def on_datagram(self, data: bytes) -> None:
        try:
            report = decode_sensor_report(data)
        except WireFormatError as e:
            self.decode_errors += 1
            log.warning("supervisor: undecodable report datagram: %s", e)
            return
        self.reports_received += 1
        self.protocol.on_report(report)

    def run(self, agents: Iterable[SensorAgent] = ()) -> LiveSupervisor:
        """Send every frame, then collect reports until periods 0 to
        periods - 2 are in self.protocol.released, or timeout_s passes with
        no datagram and the rest are released partial. One loop serves this
        endpoint and the given in-process agents, closing their sockets on
        return; after each frame it serves until no endpoint is ready and
        pace_s has passed. Frames leave from a blocking socket, which waits
        out a full send buffer."""
        config = self.config
        released = self.protocol.released
        closing = range(config.periods - 1)  # the last frame closes periods - 2
        with _socket_loop([self, *agents]) as selector, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
            if config.broadcast_address is not None:
                out.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            for _ in range(config.periods):
                payload = encode_sync_frame(self.protocol.tick())
                if config.broadcast_address is not None:
                    out.sendto(payload, (config.broadcast_address, config.sync_port_base))
                else:
                    for sid in sorted(self.targets):
                        out.sendto(payload, (config.host, self.targets[sid]))
                end = time.monotonic() + config.pace_s
                while _serve(selector, end - time.monotonic()) or time.monotonic() < end:
                    pass
            while not all(k in released for k in closing) and _serve(selector, config.timeout_s):
                pass
        for p in self.protocol.release_due(math.inf):
            log.warning("supervisor: period %d timed out, releasing partial", p.period_index)
        return self


def run_live(config: LiveConfig) -> RunReport:
    """Run supervisor and every agent in one process over real sockets, and
    report the run through simulate.report_run, as simulate.run does.

    The run's sensor nodes and network model are built once, before any
    socket is bound, and handed to the agents. Agents bind before the first
    frame and are served from the supervisor's loop. OS-assigned ports (0)
    are resolved automatically, which keeps parallel test runs from colliding.
    """
    scenario = config.scenario
    nodes = sensor_nodes(scenario)
    net = scenario.network_model()
    # every socket bound so far is closed if a later endpoint fails to bind
    with ExitStack() as bound:
        supervisor = LiveSupervisor(config)
        bound.enter_context(supervisor.sock)
        agents = []
        for sid in sorted(nodes):
            agents.append(SensorAgent(config, nodes[sid], net, report_port=supervisor.port))
            bound.enter_context(agents[-1].sock)
        supervisor.targets = {a.sensor_id: a.port for a in agents}
        supervisor.run(agents)
    return report_run(scenario, nodes.values(), supervisor.protocol)


def load_live_config(source: Union[str, Path]) -> LiveConfig:
    """Load a live-run config: scenario (inline mapping or file path) plus wiring.

    A scenario path is relative to the config file's directory.
    """
    path = Path(source)
    raw = load_yaml_mapping(path, "live config")
    given = {}
    if isinstance(raw.get("scenario"), str):
        given["scenario"] = load_scenario(path.parent / raw["scenario"])
    return read_dataclass(LiveConfig, raw, given)
