"""End-to-end simulated runs: rupture to detection to sync to estimate.

Each sensor is a SensorNode, the socket-free driver live agents use too: a
sync receipt stamps every wave that reached the sensor by then and closes
the period; a stamp before the first sync has period -1 and is discarded
at the sensor. The run feeds each sensor its receipts in receipt-time order,
then hands the supervisor's protocol every delivered report in one pass in
delivery order, each after the protocol has released the periods whose
deadline that delivery passed (SupervisorProtocol.release_due). Then
report_run turns the sensors and the supervisor into a RunReport, the same
tail a live run ends with: postprocess_periods retimes the released periods
in index order, localize_events clusters and localizes all their events in
one call without looking at ground truth, and only then does score match
clean estimates to the injected ruptures, one to one by position.
Identical (scenario, seed) pairs produce identical output, down to the
exported CSV bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .clock import ClockState
from .localization import RuptureEstimate, localize_cluster
from .protocol import CompletedPeriod, SensorProtocol, SupervisorProtocol
from .retiming import RetimedEvent, align_period, cluster_events
from .scenario import Scenario
from .wave import simulate_rupture, tuple_record
from .wire import SensorReport, SyncFrame, decode_sensor_report, decode_sync_frame, encode_sensor_report, encode_sync_frame


class DetectionRow(NamedTuple):
    """One stamped detection, with the ground truth that produced it."""

    sensor_id: int
    period_index: int  # open period at stamp time; -1 (pre_sync) before the first sync
    source: str  # "rupture:<i>" or "spurious:<i>"
    arrival_ref_us: float
    local_timestamp_ticks: int
    max_amplitude_g: float


class EstimateRow(NamedTuple):
    """One cluster's localization outcome; only score fills in the rupture
    it located, if it is a clean estimate that located one."""

    period_index: int
    cluster_index: int
    n_sensors: int
    estimate: RuptureEstimate
    matched: str = ""  # "rupture:<i>" or ""
    x_true_m: float = math.nan  # NaN when unmatched
    abs_error_m: float = math.nan  # NaN when unmatched


_detection_row = tuple_record(DetectionRow)
_estimate_row = tuple_record(EstimateRow)

# a clean estimate locates a rupture that lies within this distance of it
LOCATE_TOLERANCE_M = 0.5


@dataclass
class RunReport:
    """Everything a run produced, plus bookkeeping for accounting checks."""

    scenario: Scenario
    detections: list[DetectionRow]
    retimed: list[RetimedEvent]
    estimates: list[EstimateRow]
    completed_periods: list[CompletedPeriod]
    summary: dict[str, object]


class SensorNode:
    """One sensor without sockets: its protocol and the waves that reach it.

    The only code that stamps arrivals, for simulated and live runs alike.
    Arrivals are plain (arrival_ref_us, sensor_id, amplitude_g, source)
    tuples, which the cyclic GC stops tracking, and each is dropped once
    stamped.
    """

    def __init__(self, scenario: Scenario, sensor_id: int, arrivals: list[tuple[float, int, float, str]]):
        self.protocol = SensorProtocol(
            sensor_id=sensor_id, clock=ClockState(drift_ppm=scenario.drift_for(sensor_id))
        )
        self.sampling_period_ticks = scenario.sampling_period_ticks
        # latest first, so the next to stamp pops off the end; the stable
        # sort keeps scenario order for simultaneous arrivals
        self._unstamped = sorted(arrivals, key=itemgetter(0))
        self._unstamped.reverse()
        self.detections: list[DetectionRow] = []

    def stamp_until(self, ref_us: float) -> None:
        """Stamp every arrival at or before ref_us not stamped yet: the clock
        runs up to the arrival and the digitizer stamps the first sample at
        or after it."""
        unstamped = self._unstamped
        if not unstamped or unstamped[-1][0] > ref_us:
            return
        s = self.protocol
        clock, on_detection, add = s.clock, s.on_detection, self.detections.append
        sampling = self.sampling_period_ticks
        # no sync arrives between two stamps of one call: the open period
        # is read once
        period = s.last_seen_period_index
        while unstamped and unstamped[-1][0] <= ref_us:
            at, sid, amp, source = unstamped.pop()
            clock.advance_to(at)
            # the first sample at or after the counter, which never runs
            # below 0: the least multiple of the sampling period >= counter.
            # The float division can round down across a grid line (a
            # subnormal counter); the loop's int-float comparisons are exact
            counter = clock.counter_ticks
            ticks = math.ceil(counter / sampling) * sampling
            while ticks < counter:
                ticks += sampling
            on_detection(ticks, amp)
            add(_detection_row((sid, period, source, at, ticks, amp)))

    def receive_sync(self, frame: SyncFrame, receipt_ref_us: float) -> Optional[SensorReport]:
        """Handle one sync receipt; a wave arriving at the receipt instant
        is stamped first, so it rides the report of the period it closes."""
        protocol = self.protocol
        clock = protocol.clock
        # a replayed or reordered frame may be received earlier than the
        # clock has advanced; the device's clock cannot run backwards
        if receipt_ref_us < clock.ref_now_us:
            receipt_ref_us = clock.ref_now_us
        unstamped = self._unstamped
        if unstamped and unstamped[-1][0] <= receipt_ref_us:
            self.stamp_until(receipt_ref_us)
        clock.advance_to(receipt_ref_us)
        return protocol.on_sync(frame)


def sensor_nodes(scenario: Scenario) -> dict[int, SensorNode]:
    """One SensorNode per sensor, holding the detections its ground truth
    triggers: each rupture's arrivals in geometry order, then each spurious
    hit, in scenario order."""
    shares = {sid: [] for sid in scenario.geometry.sensor_ids}
    for i, rupture in enumerate(scenario.ruptures):
        source = f"rupture:{i}"
        for sid, at, amp in simulate_rupture(
            scenario.geometry,
            rupture,
            wave_speed_m_s=scenario.wave_speed_m_s,
            threshold_g=scenario.threshold_g,
            attenuation_per_m=scenario.attenuation_per_m,
        ):
            shares[sid].append((at, sid, amp, source))
    threshold = scenario.threshold_g
    for i, sp in enumerate(scenario.spurious_events):
        # a hit fires at or above the threshold, as a wave does
        if not sp.amplitude_g < threshold:
            shares[sp.sensor_id].append((sp.time_ref_us, sp.sensor_id, sp.amplitude_g, f"spurious:{i}"))
    return {sid: SensorNode(scenario, sid, share) for sid, share in shares.items()}


def run(scenario: Scenario) -> RunReport:
    """Simulate one scenario end to end."""
    net = scenario.network_model()
    nodes = sensor_nodes(scenario)
    supervisor = SupervisorProtocol(roster=scenario.geometry.sensor_ids, period_t_us=scenario.sync_period_T_us)

    # the broadcast calendar: the model sends frame k at k*T
    frames, receipts = [], []
    for k in range(scenario.sync_frames()):
        # one datagram, so every receiver decodes the same frame
        frames.append(decode_sync_frame(encode_sync_frame(supervisor.tick())))
        receipts += [(at, sid, k) for at, sid in net.broadcast_sync(k)]

    # each sensor hears its frames in receipt-time order, which is not the
    # broadcast order when jitter spans more than half a period
    receipts.sort(key=itemgetter(0))
    deliveries = []
    for rx, sid, k in receipts:
        report = nodes[sid].receive_sync(frames[k], rx)
        if report is None:
            continue
        # encoded even if lost: every report crosses the codec once
        report_bytes = encode_sensor_report(report)
        at = net.report_delivery(rx, report.period_index, sid)
        if at is not None:
            deliveries.append((at, report_bytes))
    # the supervisor takes reports in delivery order, simultaneous ones in
    # send order, and releases each period that a delivery finds past due
    deliveries.sort(key=itemgetter(0))
    for at, report_bytes in deliveries:
        supervisor.release_due(at)
        supervisor.on_report(decode_sensor_report(report_bytes))
    supervisor.release_due(math.inf)
    return report_run(scenario, nodes.values(), supervisor)


def report_run(
    scenario: Scenario, nodes: Iterable[SensorNode], supervisor: SupervisorProtocol
) -> RunReport:
    """The report of a finished run, simulated or live: stamp the waves left
    pending after each sensor's last receipt, post-process the released
    periods, score the estimates against the scenario and summarize."""
    nodes = list(nodes)
    for node in nodes:
        node.stamp_until(math.inf)
    # by (arrival_ref_us, sensor_id): two stable sorts, no key tuple per row
    detections = [row for node in nodes for row in node.detections]
    detections.sort(key=itemgetter(0))
    detections.sort(key=itemgetter(3))
    released = supervisor.released
    periods = [released[k] for k in sorted(released)]
    retimed, estimates = postprocess_periods(scenario, periods)
    estimates = score(scenario, estimates)
    return RunReport(
        scenario=scenario,
        detections=detections,
        retimed=retimed,
        estimates=estimates,
        completed_periods=periods,
        summary=_summarize(nodes, supervisor, detections, retimed, estimates),
    )


def postprocess_periods(
    scenario: Scenario, periods: Iterable[CompletedPeriod]
) -> tuple[list[RetimedEvent], list[EstimateRow]]:
    """Retime each released period, given in index order, then localize
    the events of them all."""
    t_us = scenario.sync_period_T_us
    retimed: list[RetimedEvent] = []
    for period in periods:
        retimed += align_period(period.reports, t_us)
    return retimed, localize_events(scenario, retimed)


def localize_events(scenario: Scenario, events: Iterable[RetimedEvent]) -> list[EstimateRow]:
    """Cluster retimed events of any periods by the scenario's coincidence
    window and localize every cluster on its geometry; ground truth plays
    no part. A row's period is its earliest event's, and its cluster index
    counts within that period. Events of equal period, time and sensor keep
    the order given."""
    geometry = scenario.geometry
    rows: list[EstimateRow] = []
    for cluster in cluster_events(events, scenario.coincidence_window_us):
        # a cluster is in (period, retimed time) order, so its first event is its earliest
        k = cluster[0].period_index
        ci = rows[-1].cluster_index + 1 if rows and rows[-1].period_index == k else 0
        rows.append(_estimate_row((
            k, ci, len({e.sensor_id for e in cluster}),
            localize_cluster(cluster, geometry), "", math.nan, math.nan,
        )))
    return rows


def score(scenario: Scenario, estimates: list[EstimateRow]) -> list[EstimateRow]:
    """Match clean estimates to the injected ruptures one to one, by position.

    A rupture is scored in the sync period in which its wave first reaches
    a sensor, against the clean estimates of that period. Every pair within
    LOCATE_TOLERANCE_M is a candidate, and candidates are taken by (error,
    rupture order, estimate order), each rupture and each estimate at most
    once. A matched row gets the rupture's label, position and absolute
    error; every other row comes back as given.
    """
    ruptures = scenario.ruptures
    positions = scenario.geometry.positions_m
    v, t_us = scenario.wave_speed_m_s, scenario.sync_period_T_us
    by_period: dict[int, list[int]] = {}
    for i, r in enumerate(ruptures):
        nearest = min(abs(p - r.position_m) for p in positions)
        by_period.setdefault(int((r.time_ref_us + nearest / v * 1e6) // t_us), []).append(i)
    # a pair never crosses periods, so one sort serves them all
    pairs = []
    for j, row in enumerate(estimates):
        if row.estimate.flags:
            continue
        x_est = row.estimate.x_est_m
        for i in by_period.get(row.period_index, ()):
            error = abs(x_est - ruptures[i].position_m)
            if error <= LOCATE_TOLERANCE_M:
                pairs.append((error, i, j))
    pairs.sort()
    scored = list(estimates)
    located, locating = set(), set()
    for error, i, j in pairs:
        if i in located or j in locating:
            continue
        located.add(i)
        locating.add(j)
        k, ci, n, est = estimates[j][:4]
        scored[j] = _estimate_row((k, ci, n, est, f"rupture:{i}", ruptures[i].position_m, error))
    return scored


def _summarize(nodes, supervisor, detections, retimed, estimates):
    reported = pending = discarded = clamped = 0
    for node in nodes:
        s = node.protocol
        reported += s.reported_events
        pending += len(s.pending)
        discarded += s.discarded_events
        clamped += s.clamped_events
    released = supervisor.released.values()
    complete = sum(p.complete for p in released)
    valid = sum(e.flag is None for e in retimed)
    errors, clean, matched = [], 0, 0
    for e in estimates:
        clean += not e.estimate.flags
        matched += e.matched != ""
        if not math.isnan(e.abs_error_m):
            errors.append(e.abs_error_m)
    summary: dict[str, object] = {
        "sensors": len(nodes),
        "sync_frames_sent": supervisor.next_period_index,
        "periods_completed": complete,
        "periods_timed_out": len(released) - complete,
        "reports_late": supervisor.late_reports,
        "reports_duplicate": supervisor.duplicate_reports,
        "reports_unknown": supervisor.unknown_reports,
        "detections_total": len(detections),
        "detections_pre_sync": sum(d.period_index == -1 for d in detections),
        # sensor side: every detection is reported, pending or discarded;
        # reports lost or late on the way never reach retiming
        "events_reported": reported,
        "events_pending_at_end": pending,
        "events_discarded": discarded,
        "events_clamped_to_period_end": clamped,
        "events_retimed_valid": valid,
        "events_flagged": len(retimed) - valid,
        "clusters_total": len(estimates),
        "estimates_clean": clean,
        "estimates_flagged": len(estimates) - clean,
        "estimates_matched": matched,
        "mean_abs_error_m": (sum(errors) / len(errors)) if errors else math.nan,
        "max_abs_error_m": max(errors) if errors else math.nan,
    }
    return summary


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
# a detections.csv row is one % over the DetectionRow tuple; pre_sync,
# period_index -1, is written by picking the template
_DETECTION_ROW = "%s,%s,%s,%r,%s,%r,false\n"
_PRE_SYNC_ROW = "%s,%s,%s,%r,%s,%r,true\n"


def export_csv(report: RunReport, out_dir) -> list[Path]:
    """Write detections.csv, retimed.csv, estimates.csv, summary.csv.

    Each row is formatted directly, numbers as repr: a float's repr (which
    is also its str) is the shortest text that reads back as the same
    double, so identical runs export byte-identical files. No field ever
    needs CSV quoting: sources, flags and labels hold no comma, quote or
    line break. pre_sync is written true for period_index -1, else false.
    Each file is one write.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    def write(name: str, header: list[str], rows) -> None:
        p = out / name
        with p.open("w", newline="") as f:
            f.write("".join([",".join(header) + "\n", *rows]))
        paths.append(p)

    write("detections.csv", DETECTIONS_HEADER, [
        (_PRE_SYNC_ROW if d.period_index == -1 else _DETECTION_ROW) % d
        for d in report.detections
    ])
    # amplitudes are whole milli-g, so few distinct ones recur down the file
    amp_text = {amp: repr(amp) for amp in {e.amplitude_g for e in report.retimed}}
    write("retimed.csv", RETIMED_HEADER, [
        f"{k},{sid},{t!r},{ticks},{amp_text[amp]},{flag or ''}\n"
        for sid, k, t, ticks, amp, flag in report.retimed
    ])
    flag_text: dict[frozenset, str] = {}  # estimates share their flag sets
    rows = []
    for k, ci, n, (x, v, triple, flags, _, _), matched, x_true, error in report.estimates:
        text = flag_text.get(flags)
        if text is None:
            text = flag_text[flags] = "|".join(sorted(flags))
        sensors = "%s,%s,%s" % triple if len(triple) == 3 else ",,"
        rows.append(f"{k},{ci},{n},{sensors},{v!r},{x!r},{text},{matched},{x_true!r},{error!r}\n")
    write("estimates.csv", ESTIMATES_HEADER, rows)
    write("summary.csv", SUMMARY_HEADER, [f"{k},{v!r}\n" for k, v in report.summary.items()])
    return paths
