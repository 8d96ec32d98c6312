"""Live datagram mode: the same protocol over real UDP sockets.

The supervisor and each sensor agent are separate endpoints exchanging the
same wire bytes as the simulator, served by one event loop per process (a
selector on one thread; run_live starts no thread). Time stays modeled:
every agent derives its receipt instants from (scenario, seed, period,
sensor) like the simulated transport and hands each frame to the simulator's
sensor driver (simulate.SensorNode), which stamps the same arrivals and
returns the same report. run_live ends with the simulator's own tail
(simulate.report_run), so it returns the same RunReport as a simulated run,
equal field for field. Wall pacing only spaces frames out, never timestamps.
"""

from __future__ import annotations

import logging
import selectors
import socket
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Union

from .protocol import SupervisorProtocol
from .scenario import (
    Scenario, ScenarioError, load_scenario, load_yaml_mapping, read_dataclass,
)
from .simulate import RunReport, report_run, sensor_nodes
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

    sync_ports maps sensor id to its listening port; a port of 0 binds an
    OS-assigned one (in-process runs resolve it automatically; separate
    processes need fixed ports). broadcast_address switches the supervisor
    to a single broadcast datagram per frame, with every agent sharing
    sync_port_base. Every port, given or counted up from sync_port_base,
    must lie in 0-65535.
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
        if self.periods < 2:
            problems.append(
                f"need at least 2 sync periods to close one, got {self.periods!r}"
            )
        if self.scenario.network.drop_probability != 0.0:
            problems.append(
                "live mode sends real datagrams; modeled drop_probability must be 0"
            )
        if self.pace_s < 0 or self.timeout_s <= 0:
            problems.append("pace_s must be >= 0 and timeout_s > 0")
        if self.sync_ports is not None:
            missing = set(self.scenario.geometry.sensor_ids) - set(self.sync_ports)
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


def _serve_until(selector, done: Callable[[], bool], timeout_s: float) -> None:
    """Serve until done() holds or timeout_s seconds have passed."""
    deadline = time.monotonic() + timeout_s
    while not done() and (left := deadline - time.monotonic()) > 0:
        _serve(selector, left)


class SensorAgent:
    """One sensor endpoint: listens for sync frames, sends reports.

    Binds its socket at construction so callers can start the supervisor
    afterwards without losing frames; run() serves it alone until the last
    expected frame or the wall deadline.
    """

    def __init__(
        self,
        config: LiveConfig,
        sensor_id: int,
        sync_port: Optional[int] = None,
        report_port: Optional[int] = None,
    ):
        if sensor_id not in config.scenario.geometry.sensor_ids:
            raise ValueError(f"unknown sensor id {sensor_id}")
        self.config = config
        self.sensor_id = sensor_id
        self.report_port = report_port if report_port is not None else config.report_port
        scenario = config.scenario
        self.node = sensor_nodes(scenario)[sensor_id]
        self.net = scenario.network_model()
        self.frames_seen = 0
        self.reports_sent = 0
        port = sync_port if sync_port is not None else config.resolved_sync_ports()[sensor_id]
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        if config.broadcast_address is not None:
            self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        self.sock.bind((config.host if config.broadcast_address is None else "", port))
        self.sock.setblocking(False)
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
        try:
            payload_out = encode_sensor_report(report)
        except WireFormatError as e:
            log.error("sensor %d: report refused at send: %s", self.sensor_id, e)
            return
        out_sock.sendto(payload_out, (self.config.host, self.report_port))
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
            _serve_until(selector, lambda: self.node.protocol.last_seen_period_index == last,
                         self.config.timeout_s)


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
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((config.host, config.report_port))
        self.sock.setblocking(False)
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
        """Send every frame and collect reports until periods 0 to
        periods - 2 are released, by completion or timeout, into
        self.protocol.released. One loop serves this endpoint and the given
        in-process agents, closing their sockets on return; after each frame
        it serves until no endpoint is ready and pace_s has passed. Frames
        leave from a blocking socket, which waits out a full send buffer."""
        config = self.config
        t_us = config.scenario.sync_period_T_us
        released = self.protocol.released
        closing = range(config.periods - 1)  # the last frame closes periods - 2
        with _socket_loop([self, *agents]) as selector, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as out:
            if config.broadcast_address is not None:
                out.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
            for k in range(config.periods):
                frame = self.protocol.tick(k * t_us)
                assert frame is not None and frame.period_index == k
                payload = encode_sync_frame(frame)
                if config.broadcast_address is not None:
                    out.sendto(payload, (config.broadcast_address, config.sync_port_base))
                else:
                    for sid in sorted(self.targets):
                        out.sendto(payload, (config.host, self.targets[sid]))
                end = time.monotonic() + config.pace_s
                while _serve(selector, end - time.monotonic()) or time.monotonic() < end:
                    pass
            _serve_until(selector, lambda: all(k in released for k in closing), config.timeout_s)
        for k in closing:
            if self.protocol.expire(k) is not None:
                log.warning("supervisor: period %d timed out, releasing partial", k)
        return self


def run_live(config: LiveConfig) -> RunReport:
    """Run supervisor and every agent in one process over real sockets, and
    report the run through simulate.report_run, as simulate.run does.

    Agents bind before the first frame and are served from the supervisor's
    loop. OS-assigned ports (0) are resolved automatically, which keeps
    parallel test runs from colliding.
    """
    ports = config.resolved_sync_ports()
    supervisor = LiveSupervisor(config)
    agents = [
        SensorAgent(config, sid, sync_port=ports[sid], report_port=supervisor.port)
        for sid in sorted(config.scenario.geometry.sensor_ids)
    ]
    supervisor.targets = {a.sensor_id: a.port for a in agents}
    supervisor.run(agents)
    return report_run(config.scenario, (a.node for a in agents), supervisor.protocol)


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
