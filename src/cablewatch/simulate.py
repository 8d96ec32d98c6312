"""End-to-end simulated runs: rupture to detection to sync to estimate.

The run is one deterministic event loop. Supervisor timers broadcast sync
frames on schedule; deliveries advance each sensor's drifting clock, stamp
detections on the local sampling grid, and close out periods with reports.
Completed periods are retimed, clustered, and localized after the loop
drains. Identical (scenario, seed) pairs produce identical output, down to
the exported CSV bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .clock import ClockState
from .localization import RuptureEstimate, localize_cluster
from .network import EventLoop, SUPERVISOR_NODE
from .protocol import CompletedPeriod, SensorProtocol, SupervisorProtocol
from .retiming import RetimedEvent, align_period, cluster_events
from .scenario import Scenario
from .wave import WaveArrival, detect, simulate_rupture
from .wire import decode_sensor_report, decode_sync_frame, encode_sensor_report, encode_sync_frame

# period timeout, as a fraction of T after the next broadcast
PERIOD_TIMEOUT_FRACTION = 0.5


@dataclass(frozen=True)
class DetectionRow:
    """One stamped detection, with the ground truth that produced it."""

    sensor_id: int
    period_index: int  # open period at stamp time, -1 before the first sync
    source: str  # "rupture:<i>" or "spurious:<i>"
    arrival_ref_us: float
    local_timestamp_ticks: int
    max_amplitude_g: float
    pre_sync: bool  # stamped before the first sync, so the sensor discards it


@dataclass(frozen=True)
class EstimateRow:
    """One cluster's localization outcome, matched back to its cause."""

    period_index: int
    cluster_index: int
    n_sensors: int
    estimate: RuptureEstimate
    matched: str  # "rupture:<i>" or ""
    x_true_m: float  # NaN when unmatched
    abs_error_m: float  # NaN when unmatched or estimate invalid


@dataclass
class RunReport:
    """Everything a run produced, plus bookkeeping for accounting checks."""

    scenario: Scenario
    detections: list[DetectionRow]
    retimed: list[RetimedEvent]
    estimates: list[EstimateRow]
    completed_periods: list[CompletedPeriod]
    summary: dict[str, object]


def scenario_arrivals(scenario: Scenario) -> list[tuple[str, WaveArrival]]:
    """Every detection the scenario's ground truth triggers, with its source.

    Each rupture's arrivals in geometry order, then each spurious hit, in
    scenario order. Simulated runs and live agents both stamp from this list.
    """
    out = []
    for i, rupture in enumerate(scenario.ruptures):
        for arr in simulate_rupture(
            scenario.geometry,
            rupture,
            wave_speed_m_s=scenario.wave_speed_m_s,
            threshold_g=scenario.threshold_g,
            attenuation_per_m=scenario.attenuation_per_m,
        ):
            out.append((f"rupture:{i}", arr))
    for i, sp in enumerate(scenario.spurious_events):
        hit = detect(sp.sensor_id, sp.time_ref_us, sp.amplitude_g, scenario.threshold_g)
        if hit is not None:
            out.append((f"spurious:{i}", hit))
    return out


def run(scenario: Scenario) -> RunReport:
    """Simulate one scenario end to end."""
    geom = scenario.geometry
    net = scenario.network_model()
    t_us = scenario.sync_period_T_us
    duration = scenario.effective_duration_us()

    sensors = {
        sid: SensorProtocol(sensor_id=sid, clock=ClockState(drift_ppm=scenario.drift_for(sid)))
        for sid in geom.sensor_ids
    }
    supervisor = SupervisorProtocol(roster=geom.sensor_ids, period_t_us=t_us)
    loop = EventLoop()

    detections: list[DetectionRow] = []
    completed: dict[int, CompletedPeriod] = {}
    clamped_events = 0

    def on_detection(source: str, arr: WaveArrival):
        def action(now: float) -> None:
            s = sensors[arr.sensor_id]
            ticks = s.stamp(now, arr.max_amplitude_g, scenario.sampling_period_ticks)
            detections.append(
                DetectionRow(
                    sensor_id=arr.sensor_id,
                    period_index=s.last_seen_period_index if s.synced else -1,
                    source=source,
                    arrival_ref_us=arr.arrival_ref_us,
                    local_timestamp_ticks=ticks,
                    max_amplitude_g=arr.max_amplitude_g,
                    pre_sync=not s.synced,
                )
            )
        return action

    def on_report_delivery(payload: bytes):
        def action(now: float) -> None:
            report = decode_sensor_report(payload)
            done = supervisor.on_report(report)
            if done is not None:
                completed[done.period_index] = done
        return action

    def on_sync_delivery(sid: int, payload: bytes):
        def action(now: float) -> None:
            nonlocal clamped_events
            s = sensors[sid]
            s.clock.advance_to(now)
            result = s.on_sync(decode_sync_frame(payload))
            if result.report is None:
                return
            clamped_events += result.clamped_events
            delivery = net.report_delivery(
                encode_sensor_report(result.report), now, sid, result.report.period_index
            )
            if delivery is not None:
                loop.schedule_delivery(delivery, on_report_delivery(delivery.payload))
        return action

    def on_broadcast_timer(now: float) -> None:
        frame = supervisor.tick(now)
        if frame is None:
            return
        payload = encode_sync_frame(frame)
        for d in net.broadcast_sync(payload, now, frame.period_index):
            loop.schedule_delivery(d, on_sync_delivery(d.destination, d.payload))
        if frame.period_index >= 1:
            closing = frame.period_index - 1
            loop.schedule(
                now + PERIOD_TIMEOUT_FRACTION * t_us,
                "timer",
                SUPERVISOR_NODE,
                lambda t, k=closing: _expire(k),
            )

    def _expire(period_index: int) -> None:
        done = supervisor.expire(period_index)
        if done is not None:
            completed[done.period_index] = done

    # schedule the whole broadcast calendar
    k = 0
    while k * t_us <= duration:
        loop.schedule(k * t_us, "timer", SUPERVISOR_NODE, on_broadcast_timer)
        k += 1

    for source, arr in scenario_arrivals(scenario):
        loop.schedule(arr.arrival_ref_us, "detection", arr.sensor_id, on_detection(source, arr))

    loop.run()

    retimed, estimates = postprocess_periods(scenario, completed)
    summary = _summarize(
        scenario, sensors, supervisor, detections, completed, retimed, estimates, clamped_events
    )
    return RunReport(
        scenario=scenario,
        detections=detections,
        retimed=retimed,
        estimates=estimates,
        completed_periods=[completed[k] for k in sorted(completed)],
        summary=summary,
    )


def postprocess_periods(
    scenario: Scenario, completed: dict[int, CompletedPeriod]
) -> tuple[list[RetimedEvent], list[EstimateRow]]:
    """Retime, cluster, and localize every released period, in index order."""
    geom = scenario.geometry
    t_us = scenario.sync_period_T_us
    retimed_all: list[RetimedEvent] = []
    estimates: list[EstimateRow] = []
    for k in sorted(completed):
        events = align_period(completed[k].reports, t_us)
        retimed_all.extend(events)
        clusters = cluster_events(events, scenario.coincidence_window_us)
        for ci, cluster in enumerate(clusters):
            est = localize_cluster(cluster, geom)
            matched, x_true = _match_rupture(scenario, k, cluster)
            err = math.nan
            if matched and not math.isnan(est.x_est_m):
                err = abs(est.x_est_m - x_true)
            estimates.append(
                EstimateRow(
                    period_index=k,
                    cluster_index=ci,
                    n_sensors=len({e.sensor_id for e in cluster}),
                    estimate=est,
                    matched=matched,
                    x_true_m=x_true,
                    abs_error_m=err,
                )
            )
    return retimed_all, estimates


def _match_rupture(
    scenario: Scenario, period_index: int, cluster: list[RetimedEvent]
) -> tuple[str, float]:
    """Attribute a cluster to the injected rupture nearest in absolute time."""
    if not scenario.ruptures:
        return "", math.nan
    t_abs = period_index * scenario.sync_period_T_us + min(e.retimed_us for e in cluster)
    best_i, best_gap = None, math.inf
    for i, r in enumerate(scenario.ruptures):
        gap = abs(t_abs - r.time_ref_us)
        if gap < best_gap:
            best_i, best_gap = i, gap
    # receipts lag arrivals by latency and travel; anything inside the
    # coincidence window is the same physical event
    travel = scenario.geometry.span_m / scenario.wave_speed_m_s * 1e6
    if best_gap <= scenario.coincidence_window_us + travel:
        return f"rupture:{best_i}", scenario.ruptures[best_i].position_m
    return "", math.nan


def _summarize(scenario, sensors, supervisor, detections, completed, retimed, estimates, clamped_events):
    errors = [e.abs_error_m for e in estimates if not math.isnan(e.abs_error_m)]
    pending = sum(len(s.pending) for s in sensors.values())
    summary: dict[str, object] = {
        "sensors": len(sensors),
        "sync_frames_sent": supervisor.frames_sent,
        "periods_completed": sum(1 for p in completed.values() if p.complete),
        "periods_timed_out": sum(1 for p in completed.values() if not p.complete),
        "reports_late": supervisor.late_reports,
        "reports_duplicate": supervisor.duplicate_reports,
        "reports_unknown": supervisor.unknown_reports,
        "detections_total": len(detections),
        "detections_pre_sync": sum(1 for d in detections if d.pre_sync),
        # sensor side: every detection is reported, pending or discarded;
        # reports lost or late on the way never reach retiming
        "events_reported": sum(s.reported_events for s in sensors.values()),
        "events_pending_at_end": pending,
        "events_discarded": sum(s.discarded_events for s in sensors.values()),
        "events_clamped_to_period_end": clamped_events,
        "events_retimed_valid": sum(1 for e in retimed if e.valid),
        "events_flagged": sum(1 for e in retimed if not e.valid),
        "clusters_total": len(estimates),
        "estimates_clean": sum(1 for e in estimates if e.estimate.clean),
        "estimates_flagged": sum(1 for e in estimates if not e.estimate.clean),
        "estimates_matched": sum(1 for e in estimates if e.matched),
        "mean_abs_error_m": (sum(errors) / len(errors)) if errors else math.nan,
        "max_abs_error_m": max(errors) if errors else math.nan,
    }
    return summary


def _fmt(value) -> str:
    """Full round-trip precision for floats; everything else as-is."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


DETECTIONS_HEADER = [
    "sensor_id", "period_index", "source", "arrival_ref_us",
    "local_timestamp_ticks", "max_amplitude_g", "pre_sync",
]
RETIMED_HEADER = [
    "period_index", "sensor_id", "retimed_us", "raw_ticks", "amplitude_g", "flag",
]
ESTIMATES_HEADER = [
    "period_index", "cluster_index", "n_sensors", "sensor_1", "sensor_2", "sensor_3",
    "v_est_m_s", "x_est_m", "flags", "matched", "x_true_m", "abs_error_m",
]
SUMMARY_HEADER = ["metric", "value"]


def export_csv(report: RunReport, out_dir) -> list[Path]:
    """Write detections.csv, retimed.csv, estimates.csv, summary.csv.

    Numeric cells use full double round-trip precision, so identical runs
    export byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    def write(name: str, header: list[str], rows) -> None:
        p = out / name
        with p.open("w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        paths.append(p)

    write(
        "detections.csv",
        DETECTIONS_HEADER,
        (
            [
                d.sensor_id, d.period_index, d.source, _fmt(d.arrival_ref_us),
                d.local_timestamp_ticks, _fmt(d.max_amplitude_g), _fmt(d.pre_sync),
            ]
            for d in report.detections
        ),
    )
    write(
        "retimed.csv",
        RETIMED_HEADER,
        (
            [
                e.period_index, e.sensor_id, _fmt(e.retimed_us), e.raw_ticks,
                _fmt(e.amplitude_g), e.flag or "",
            ]
            for e in report.retimed
        ),
    )
    write(
        "estimates.csv",
        ESTIMATES_HEADER,
        (
            [
                e.period_index, e.cluster_index, e.n_sensors,
                *(e.estimate.triple if len(e.estimate.triple) == 3 else ("", "", "")),
                _fmt(e.estimate.v_est_m_s), _fmt(e.estimate.x_est_m),
                "|".join(sorted(e.estimate.flags)), e.matched,
                _fmt(e.x_true_m), _fmt(e.abs_error_m),
            ]
            for e in report.estimates
        ),
    )
    write(
        "summary.csv",
        SUMMARY_HEADER,
        ([k, _fmt(v)] for k, v in report.summary.items()),
    )
    return paths
