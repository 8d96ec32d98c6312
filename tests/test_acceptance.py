"""Acceptance gate: every release criterion, one pass/fail line each.

Run with plain pytest; the summary lines print outside the capture so they
are visible in any log. Each test pins the criterion's stated tolerance.
"""

import contextlib
import hashlib
import math
import random
import time

import pytest

from cablewatch.live import LiveConfig, run_live
from cablewatch.localization import localize
from cablewatch.montecarlo import run_study
from cablewatch.network import RF_SPEED_M_S as DEFAULT_RF_SPEED_M_S, rf_delay_us
from cablewatch.retiming import retime
from cablewatch.scenario import NetworkConfig, Scenario
from cablewatch.simulate import export_csv, run
from cablewatch.wave import CableGeometry, RuptureEvent
from cablewatch.wire import (
    ReportEvent,
    SensorReport,
    SyncFrame,
    WireFormatError,
    decode_sensor_report,
    decode_sync_frame,
    encode_sensor_report,
    encode_sync_frame,
)

from helpers import run_sensor_period

T_US = 1_000_000

CANONICAL_GEOMETRY = CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0))
CANONICAL_DRIFTS = {1: 37.0, 2: -12.0, 3: 50.0, 4: -50.0}


def canonical_scenario(**overrides):
    base = dict(
        geometry=CANONICAL_GEOMETRY,
        drift_ppm=dict(CANONICAL_DRIFTS),
        ruptures=(RuptureEvent(14.0, 1_500_000.0),),
        seed=20,
    )
    base.update(overrides)
    return Scenario(**base)


@contextlib.contextmanager
def criterion(capsys, num, name):
    """Prints ACCEPTANCE <n> PASS/FAIL <name>: <detail> past the capture."""
    info = {"detail": ""}
    status = "FAIL"
    try:
        yield info
        status = "PASS"
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {status} {name}: {info['detail']}")


def test_01_rf_propagation_skew(capsys):
    """1080 m of RF path at 180e6 m/s is 6.000000 us, to 1e-12 relative."""
    with criterion(capsys, 1, "rf-propagation-skew") as info:
        delay = rf_delay_us(0.0, 1080.0, DEFAULT_RF_SPEED_M_S)
        rel = abs(delay - 6.0) / 6.0
        info["detail"] = f"1080 m -> {delay:.6f} us (rel err {rel:.2e} <= 1e-12)"
        assert rel <= 1e-12


def test_02_localization_accuracy_envelope(capsys):
    """1000-trial study at +-3 us receipt noise, 4 us quantization,
    drifts uniform +-50 ppm: p99 error <= 0.15 m, in under 10 s."""
    with criterion(capsys, 2, "localization-accuracy-envelope") as info:
        t0 = time.perf_counter()
        res = run_study(trials=1000, master_seed=0, jitter_us=3.0)
        elapsed = time.perf_counter() - t0
        info["detail"] = (
            f"p50 {res.p50_m:.4f} m, p99 {res.p99_m:.4f} m <= 0.15 m, "
            f"max {res.max_m:.4f} m, {res.failures} failures, {elapsed:.1f} s"
        )
        assert res.failures == 0
        assert res.p99_m <= 0.15
        assert elapsed < 10.0


def test_03_ratiometric_cancellation(capsys):
    """Constant drift cancels: with simultaneous sync receipts the pairwise
    retimed disagreement of a shared event is <= 0.01 us, 10,000 cases."""
    with criterion(capsys, 3, "ratiometric-cancellation") as info:
        rng = random.Random("acceptance|cancellation")
        worst = 0.0
        for _ in range(10_000):
            t0 = rng.uniform(0.0, 10.0 * T_US)
            event = t0 + rng.uniform(1.0, T_US - 1.0)
            drifts = [rng.uniform(-50.0, 50.0) for _ in range(rng.randint(2, 4))]
            retimed = []
            for d in drifts:
                t_ev, t_i = run_sensor_period(d, t0, t0 + T_US, event)
                retimed.append(retime(t_ev, t_i, T_US))
            worst = max(worst, max(retimed) - min(retimed))
        info["detail"] = f"worst pairwise disagreement {worst:.2e} us <= 0.01 us"
        assert worst <= 0.01


def test_04_drift_necessity(capsys):
    """Without retiming, +50 and -50 ppm clocks disagree by 100 us about an
    event 1 s after reset (to +-0.1 us)."""
    with criterion(capsys, 4, "drift-necessity") as info:
        fast, _ = run_sensor_period(+50.0, 0.0, 2 * T_US, T_US)
        slow, _ = run_sensor_period(-50.0, 0.0, 2 * T_US, T_US)
        gap = fast - slow  # ticks are 1 us nominal
        info["detail"] = f"raw timestamps disagree by {gap:.6f} us (100 +- 0.1)"
        assert abs(gap - 100.0) <= 0.1


def _random_roundtrip_case(rng):
    """Random geometry and rupture whose two earliest arrivals bracket it.

    The bracketing premise is the method's stated applicability condition;
    positions whose two nearest sensors sit on the same side are flagged
    OUT_OF_SPAN by design and are resampled here.
    """
    while True:
        n = rng.randint(3, 6)
        pos = [rng.uniform(-50.0, 50.0)]
        for _ in range(n - 1):
            pos.append(pos[-1] + rng.uniform(2.0, 30.0))
        geom = CableGeometry(tuple(range(1, n + 1)), tuple(pos))
        v = rng.uniform(1000.0, 8000.0)
        seg = rng.randrange(n - 1)
        u = rng.uniform(0.05, 0.95)
        x_true = pos[seg] + u * (pos[seg + 1] - pos[seg])
        t0 = rng.uniform(0.0, 1e6)
        times = {
            sid: t0 + abs(geom.position_of(sid) - x_true) / v * 1e6
            for sid in geom.sensor_ids
        }
        first, second = sorted(times, key=lambda s: (times[s], s))[:2]
        lo, hi = sorted((geom.position_of(first), geom.position_of(second)))
        if lo < x_true < hi:
            return geom, v, x_true, times


def test_05_exact_roundtrip(capsys):
    """10,000 randomized (geometry, X_true, v) cases with exact arrival
    times: localize recovers both to <= 1e-9 relative."""
    with criterion(capsys, 5, "exact-roundtrip") as info:
        rng = random.Random("acceptance|roundtrip")
        worst_x = worst_v = 0.0
        for _ in range(10_000):
            geom, v, x_true, times = _random_roundtrip_case(rng)
            est = localize(times, geom)
            assert est.clean, est
            span = geom.span_m
            worst_x = max(worst_x, abs(est.x_est_m - x_true) / max(1.0, span))
            worst_v = max(worst_v, abs(est.v_est_m_s - v) / v)
        info["detail"] = (
            f"worst position err {worst_x:.2e} (rel span), "
            f"worst speed err {worst_v:.2e} (rel) <= 1e-9"
        )
        assert worst_x <= 1e-9
        assert worst_v <= 1e-9


def test_06_receipt_skew_bound(capsys):
    """Retimed disagreement under sync receipt skew delta in [0, 6] us stays
    <= 2*delta + 0.01 us, checked against the step-by-step clock oracle
    over 1,000 randomized cases."""
    with criterion(capsys, 6, "receipt-skew-bound") as info:
        rng = random.Random("acceptance|skew")
        worst_margin = -math.inf
        for _ in range(1_000):
            t0 = rng.uniform(0.0, 5.0 * T_US)
            d_open = rng.uniform(0.0, 6.0)
            d_close = rng.uniform(0.0, 6.0)
            delta = max(d_open, d_close)
            event = t0 + rng.uniform(10.0, T_US - 10.0)
            drift_a = rng.uniform(-50.0, 50.0)
            drift_b = rng.uniform(-50.0, 50.0)
            ta = retime(*run_sensor_period(drift_a, t0, t0 + T_US, event), T_US)
            tb = retime(
                *run_sensor_period(drift_b, t0 + d_open, t0 + T_US + d_close, event),
                T_US,
            )
            disagreement = abs(ta - tb)
            bound = 2.0 * delta + 0.01
            worst_margin = max(worst_margin, disagreement - bound)
            assert disagreement <= bound, (disagreement, delta)
        info["detail"] = (
            f"max (disagreement - bound) {worst_margin:.3f} us <= 0 over 1000 cases"
        )


def test_07_live_mode_equivalence(capsys):
    """Supervisor plus 4 sensor agents over loopback datagrams, 5 sync
    periods, one rupture: estimate within one sampling quantum (2 cm) of
    the simulated run of the same scenario."""
    with criterion(capsys, 7, "live-mode-equivalence") as info:
        periods = 5
        scenario = canonical_scenario(run_duration_us=float((periods - 1) * T_US))
        live = run_live(
            LiveConfig(
                scenario=scenario,
                periods=periods,
                report_port=0,
                sync_ports={sid: 0 for sid in scenario.geometry.sensor_ids},
                timeout_s=10.0,
            )
        )
        sim = run(scenario)
        live_x = [e.estimate.x_est_m for e in live.estimates if e.matched]
        sim_x = [e.estimate.x_est_m for e in sim.estimates if e.matched]
        assert len(live_x) == len(sim_x) == 1
        diff = abs(live_x[0] - sim_x[0])
        info["detail"] = (
            f"live {live_x[0]:.6f} m vs simulated {sim_x[0]:.6f} m, "
            f"|diff| {diff:.2e} m <= 0.02 m"
        )
        assert diff <= 0.02
        # modeled receipt times make the runs identical, not merely close
        assert live.retimed == sim.retimed


def test_08_wire_codec_roundtrip(capsys):
    """10,000 randomized frames/reports survive decode(encode(x)) == x;
    truncated, corrupt-magic, and trailing-garbage buffers are rejected."""
    with criterion(capsys, 8, "wire-codec-roundtrip") as info:
        rng = random.Random("acceptance|codec")
        for _ in range(5_000):
            frame = SyncFrame(
                period_index=rng.randrange(2**32),
                period_T_us=rng.randrange(1, 2**32),
            )
            assert decode_sync_frame(encode_sync_frame(frame)) == frame
        for _ in range(5_000):
            events = tuple(
                ReportEvent(
                    timestamp_ticks=rng.randrange(2**64),
                    amplitude_milli_g=rng.randrange(2**32),
                )
                for _ in range(rng.choice((0, 1, 2, 3, 5, 40)))
            )
            report = SensorReport(
                sensor_id=rng.randrange(2**16),
                period_index=rng.randrange(2**32),
                saved_counter_ticks=rng.randrange(2**64),
                events=events,
            )
            assert decode_sensor_report(encode_sensor_report(report)) == report

        good_frame = encode_sync_frame(SyncFrame(3, T_US))
        good_report = encode_sensor_report(
            SensorReport(1, 3, 1_000_050, (ReportEvent(500_000, 1000),))
        )
        rejected = 0
        for bad in (
            good_frame[:-1],                      # truncated
            b"XXXX" + good_frame[4:],             # corrupt magic
            good_frame + b"\x00",                 # trailing garbage
            good_report[:-3],
            good_report + b"junk",
            good_report[:8],
        ):
            with pytest.raises(WireFormatError):
                if len(bad) in (11, 12, 13):
                    decode_sync_frame(bad)
                else:
                    decode_sensor_report(bad)
            rejected += 1
        info["detail"] = (
            f"10,000 round-trips exact; {rejected} malformed buffers rejected"
        )


def test_09_determinism(capsys, tmp_path):
    """Two simulate runs of the same (scenario, seed) export byte-identical
    CSV files."""
    with criterion(capsys, 9, "byte-identical-reruns") as info:
        def digests(sub):
            paths = export_csv(run(canonical_scenario()), tmp_path / sub)
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}

        a, b = digests("a"), digests("b")
        assert a == b
        assert set(a) == {
            "detections.csv", "retimed.csv", "estimates.csv", "summary.csv"
        }
        info["detail"] = f"4 files, {len(set(a.values()))} distinct digests, identical across runs"


def test_canonical_scenario_reference_point(capsys):
    """The worked end-to-end reference: canonical geometry and drifts, zero
    receipt jitter, rupture at 14.0 m -> estimate within 0.15 m; and with
    zero drift plus 1-tick sampling, within 5e-3 m."""
    with criterion(capsys, 0, "canonical-reference-point") as info:
        quantized = run(
            canonical_scenario(network=NetworkConfig(latency_jitter_us=0.0))
        )
        err_q = quantized.estimates[0].abs_error_m
        exact = run(
            canonical_scenario(
                drift_ppm={},
                sampling_period_ticks=1,
                network=NetworkConfig(latency_jitter_us=0.0),
            )
        )
        err_e = exact.estimates[0].abs_error_m
        info["detail"] = (
            f"x_true 14.0 m: quantized err {err_q:.4f} m <= 0.15, "
            f"fine-grained err {err_e:.2e} m <= 5e-3"
        )
        assert quantized.estimates[0].matched == "rupture:0"
        assert err_q <= 0.15
        assert err_e <= 5e-3
