"""Per-module tracing, done entirely from the benchmark's side.

`instrumented(tracer)` replaces cablewatch's public callables with timing
wrappers for the duration of a `with` block and restores them afterwards.
A module-level function is replaced under every cablewatch module name that
binds it, since modules import each other's functions by name. Methods are
replaced on their class. The callables passed to `EventLoop.schedule` are
wrapped too, which times each event-loop action by kind.

Every wrapped call adds to a per-thread table of (calls, total ns, self ns),
where self time is total time minus that of wrapped calls nested inside it
on the same thread. Coarse calls (one op, one run, one postprocess) also
record a span: (name, start ns, end ns, span id, parent span id, op id).
Fine-grained calls get counts only. Wrappers do nothing while the tracer is
inactive, so the benchmark's own checks stay out of the figures.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from cablewatch.clock import ClockState
from cablewatch.live import LiveSupervisor, SensorAgent
from cablewatch.network import EventLoop, NetworkModel
from cablewatch.protocol import SensorProtocol, SupervisorProtocol
from cablewatch.scenario import Scenario


class _ThreadState:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child ns, span id]
        self.timers: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: dict[str, float] = {}


def _add(counts: dict, name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


class Tracer:
    def __init__(self):
        self.active = False
        self.op_id = None
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def timed(self, name: str, fn, span: bool = False, after=None):
        """fn wrapped to time each call under name; after(counts, args, result)
        runs once the call returns, to count what it did."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            parent = stack[-1][1] if stack else None
            sid = next(tracer._ids) if span else parent
            frame = [0, sid]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                rec = st.timers.get(name)
                if rec is None:
                    rec = st.timers[name] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if span:
                    tracer.spans.append((name, t0, t1, sid, parent, tracer.op_id))
            if after is not None:
                after(st.counts, args, result)
            return result

        return wrapper

    def totals(self) -> tuple[dict[str, list[int]], dict[str, float]]:
        """Timers and counts summed over every thread that ran traced code."""
        timers: dict[str, list[int]] = {}
        counts: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, rec in st.timers.items():
                acc = timers.setdefault(name, [0, 0, 0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, v in st.counts.items():
                _add(counts, name, v)
        return timers, counts

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, t0, t1, sid, parent, op in self.spans:
                f.write(json.dumps({
                    "name": name, "start_ns": t0, "end_ns": t1,
                    "id": sid, "parent": parent, "op": op,
                }) + "\n")


# --- what each wrapped call counts -------------------------------------------

def _count_encode(counts, args, payload):
    _add(counts, "wire.bytes", len(payload))


def _count_report_encode(counts, args, payload):
    _add(counts, "wire.bytes", len(payload))
    _add(counts, "wire.reports", 1)
    _add(counts, "wire.report_events", len(args[0].events))


def _count_align(counts, args, events):
    _add(counts, "retiming.events", len(events))
    _add(counts, "retiming.flagged", sum(1 for e in events if not e.valid))


def _count_localize(counts, args, estimate):
    _add(counts, "localization.clean", 1 if estimate.clean else 0)


def _count_export(counts, args, paths):
    _add(counts, "simulate.export_bytes", sum(p.stat().st_size for p in paths))


def _count_expire(counts, args, done):
    if done is not None:
        _add(counts, "protocol.periods_timed_out", 1)


def _count_live_result(counts, args, result):
    _add(counts, "live.reports_received", result.reports_received)
    _add(counts, "live.decode_errors", result.decode_errors)


# (module, attribute, timer name, span?, counter)
FUNCTIONS = [
    ("cablewatch.montecarlo", "run_trial", "montecarlo.run_trial", True, None),
    ("cablewatch.simulate", "run", "simulate.run", True, None),
    ("cablewatch.simulate", "postprocess_periods", "simulate.postprocess_periods", True, None),
    ("cablewatch.simulate", "export_csv", "simulate.export_csv", True, _count_export),
    ("cablewatch.wave", "simulate_rupture", "wave.simulate_rupture", False, None),
    ("cablewatch.retiming", "align_period", "retiming.align_period", False, _count_align),
    ("cablewatch.retiming", "cluster_events", "retiming.cluster_events", False, None),
    ("cablewatch.localization", "localize_cluster", "localization.localize_cluster", False, _count_localize),
    ("cablewatch.wire", "encode_sync_frame", "wire.encode", False, _count_encode),
    ("cablewatch.wire", "encode_sensor_report", "wire.encode", False, _count_report_encode),
    ("cablewatch.wire", "decode_sync_frame", "wire.decode", False, None),
    ("cablewatch.wire", "decode_sensor_report", "wire.decode", False, None),
    ("cablewatch.live", "run_live", "live.run_live", True, None),
]

# (class, method, timer name, span?, counter)
METHODS = [
    (Scenario, "__post_init__", "scenario.validate", False, None),
    (NetworkModel, "sync_receipt_at", "network.sync_receipt_at", False, None),
    (NetworkModel, "report_delivery", "network.report_delivery", False, None),
    (NetworkModel, "broadcast_sync", "network.broadcast_sync", False, None),
    (EventLoop, "run", "network.EventLoop.run", True, None),
    (ClockState, "advance", "clock.advance", False, None),
    (SensorProtocol, "on_sync", "protocol.on_sync", False, None),
    (SensorProtocol, "on_detection", "protocol.on_detection", False, None),
    (SupervisorProtocol, "expire", "protocol.expire", False, _count_expire),
    (LiveSupervisor, "run", "live.LiveSupervisor.run", True, _count_live_result),
    (SensorAgent, "handle_sync", "live.handle_sync", False, None),
]


@contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers into cablewatch; restore on exit."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "cablewatch" or n.startswith("cablewatch."))]
    try:
        for mod_name, attr, name, span, after in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = tracer.timed(name, original, span, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patch(mod, key, wrapped)
        for cls, attr, name, span, after in METHODS:
            patch(cls, attr, tracer.timed(name, vars(cls)[attr], span, after))

        original_on_report = vars(SupervisorProtocol)["on_report"]

        def on_report(supervisor, report):
            late = supervisor.late_reports
            done = original_on_report(supervisor, report)
            if tracer.active:
                _add(tracer._state().counts, "protocol.reports_late",
                     supervisor.late_reports - late)
            return done

        patch(SupervisorProtocol, "on_report", tracer.timed("protocol.on_report", on_report))

        original_schedule = EventLoop.schedule

        def schedule(loop, at_ref_us, kind, node, action):
            if tracer.active:
                action = tracer.timed(f"simulate.action.{kind}", action)
            return original_schedule(loop, at_ref_us, kind, node, action)

        patch(EventLoop, "schedule", schedule)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


ACTION_KINDS = ("detection", "sync", "report", "timer")


def layer_metrics(tracer: Tracer, ops: int, warnings: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run of `ops` ops, per op unless noted."""
    timers, counts = tracer.totals()

    def calls(name):
        return timers.get(name, (0, 0, 0))[0]

    def total_us(*names):
        return sum(timers.get(n, (0, 0, 0))[1] for n in names) / 1e3 / ops

    def self_us(*names):
        return sum(timers.get(n, (0, 0, 0))[2] for n in names) / 1e3 / ops

    def per_op(name):
        return counts.get(name, 0) / ops

    def ratio(num, den):
        return num / den if den else 0.0

    events = sum(calls(f"simulate.action.{k}") for k in ACTION_KINDS)
    loop_self_us = timers.get("network.EventLoop.run", (0, 0, 0))[2] / 1e3
    aligned = counts.get("retiming.events", 0)
    clusters = calls("localization.localize_cluster")
    m = {
        "montecarlo.trial_self_us": (self_us("montecarlo.run_trial"), "us/op"),
        "scenario.validate_us": (total_us("scenario.validate"), "us/op"),
        "network.draw_calls": (
            (calls("network.sync_receipt_at") + calls("network.report_delivery")) / ops,
            "count/op",
        ),
        "network.draw_us": (
            self_us("network.sync_receipt_at", "network.report_delivery",
                    "network.broadcast_sync"),
            "us/op",
        ),
        "network.loop_events": (events / ops, "count/op"),
        "network.loop_self_us_per_event": (ratio(loop_self_us, events), "us"),
    }
    for kind in ACTION_KINDS:
        m[f"simulate.action_us.{kind}"] = (total_us(f"simulate.action.{kind}"), "us/op")
    m.update({
        "clock.advance_calls": (calls("clock.advance") / ops, "count/op"),
        "protocol.on_sync_us": (total_us("protocol.on_sync"), "us/op"),
        "protocol.on_detection_us": (total_us("protocol.on_detection"), "us/op"),
        "protocol.on_report_us": (total_us("protocol.on_report"), "us/op"),
        "protocol.periods_timed_out": (per_op("protocol.periods_timed_out"), "count/op"),
        "protocol.reports_late": (per_op("protocol.reports_late"), "count/op"),
        "protocol.warnings": (warnings / ops, "count/op"),
        "wire.encode_us": (total_us("wire.encode"), "us/op"),
        "wire.decode_us": (total_us("wire.decode"), "us/op"),
        "wire.messages": (calls("wire.encode") / ops, "count/op"),
        "wire.bytes": (per_op("wire.bytes"), "B/op"),
        "wire.events_per_report": (
            ratio(counts.get("wire.report_events", 0), counts.get("wire.reports", 0)),
            "count",
        ),
        "wave.simulate_rupture_us": (total_us("wave.simulate_rupture"), "us/op"),
        "retiming.align_us": (total_us("retiming.align_period"), "us/op"),
        "retiming.cluster_us": (total_us("retiming.cluster_events"), "us/op"),
        "localization.localize_us": (total_us("localization.localize_cluster"), "us/op"),
        "simulate.postprocess_self_us": (self_us("simulate.postprocess_periods"), "us/op"),
        "simulate.run_self_us": (self_us("simulate.run"), "us/op"),
        "simulate.export_us": (total_us("simulate.export_csv"), "us/op"),
        "simulate.export_bytes": (per_op("simulate.export_bytes"), "B/op"),
        "retiming.events": (aligned / ops, "count/op"),
        "retiming.flagged_ratio": (ratio(counts.get("retiming.flagged", 0), aligned), "ratio"),
        "localization.clusters": (clusters / ops, "count/op"),
        "localization.clean_ratio": (ratio(counts.get("localization.clean", 0), clusters), "ratio"),
        "live.supervisor_wait_us": (self_us("live.LiveSupervisor.run"), "us/op"),
        "live.handle_sync_us": (total_us("live.handle_sync"), "us/op"),
        "live.reports_received": (per_op("live.reports_received"), "count/op"),
        "live.decode_errors": (per_op("live.decode_errors"), "count/op"),
    })
    return m
