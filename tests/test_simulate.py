"""End-to-end simulated runs and CSV export."""

import hashlib
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from cablewatch.localization import FLAG_INSUFFICIENT_SENSORS, FLAG_OUT_OF_SPAN, RuptureEstimate
from cablewatch.montecarlo import EDGE_MARGIN_FRACTION, accuracy_study_scenario, percentile
from cablewatch.scenario import NetworkConfig, Scenario, SpuriousEvent
from cablewatch.simulate import (
    DETECTIONS_HEADER,
    ESTIMATES_HEADER,
    LOCATE_TOLERANCE_M,
    RETIMED_HEADER,
    SUMMARY_HEADER,
    EstimateRow,
    export_csv,
    postprocess_periods,
    run,
    score,
)
from cablewatch.wave import CableGeometry, RuptureEvent
from cablewatch.wire import MAX_EVENTS_PER_REPORT
from helpers import load_bench_module

WORKLOADS = load_bench_module("workloads")

GEOM = CableGeometry((1, 2, 3, 4), (0.0, 4.0, 17.0, 27.0))


def canonical_scenario(**overrides):
    base = dict(
        geometry=GEOM,
        drift_ppm={1: 50.0, 2: -50.0, 3: 12.5, 4: -30.0},
        ruptures=(RuptureEvent(14.0, 1_500_000.0),),
        seed=7,
    )
    base.update(overrides)
    return Scenario(**base)


def pre_sync_scenario():
    # sync 0 lands ~20 us after t=0; an event at t=5 us predates it
    return Scenario(
        geometry=GEOM,
        spurious_events=(SpuriousEvent(3, 5.0, 1.0),),
        run_duration_us=3_000_000.0,
    )


class TestCanonicalRun:
    def test_rupture_localized_within_budget(self):
        rep = run(canonical_scenario())
        assert len(rep.estimates) == 1
        est = rep.estimates[0]
        assert est.matched == "rupture:0"
        assert est.estimate.clean
        assert est.abs_error_m <= 0.15
        assert est.n_sensors == 4
        # wave speed recovered from the pure-propagation pair
        assert est.estimate.v_est_m_s == pytest.approx(5000.0, rel=0.01)

    def test_event_accounting_balances(self):
        lossy = canonical_scenario(network=NetworkConfig(drop_probability=0.3), seed=3)
        for scenario in (canonical_scenario(), pre_sync_scenario(), lossy):
            s = run(scenario).summary
            assert s["detections_total"] == (
                s["events_reported"] + s["events_pending_at_end"] + s["events_discarded"]
            )
        s = run(canonical_scenario()).summary
        assert s["detections_total"] == 4
        assert s["events_reported"] == s["events_retimed_valid"] + s["events_flagged"]
        assert s["periods_completed"] == 3
        assert s["periods_timed_out"] == 0
        assert s["sync_frames_sent"] == 4
        assert s["reports_late"] == 0

    def test_over_limit_report_is_cut_to_the_datagram_limit(self):
        # one spurious hit too many on sensor 2 in period 2: the run goes on,
        # the excess is discarded at the sensor and every period completes
        scenario = canonical_scenario(spurious_events=tuple(
            SpuriousEvent(2, 2_100_000.0 + 100.0 * i) for i in range(MAX_EVENTS_PER_REPORT + 1)
        ))
        rep = run(scenario)
        s = rep.summary
        assert s["events_discarded"] == 1
        assert s["events_reported"] == s["detections_total"] - 1
        assert s["periods_timed_out"] == 0
        period_2 = rep.completed_periods[2].reports
        assert [len(r.events) for r in period_2] == [0, MAX_EVENTS_PER_REPORT, 0, 0]

    def test_noise_free_run_is_exact(self):
        rep = run(
            canonical_scenario(
                drift_ppm={},
                sampling_period_ticks=1,
                network=NetworkConfig(latency_jitter_us=0.0),
            )
        )
        assert rep.estimates[0].abs_error_m <= 5e-3

    def test_detection_rows_carry_ground_truth(self):
        rep = run(canonical_scenario())
        by_sensor = {d.sensor_id: d for d in rep.detections}
        assert set(by_sensor) == {1, 2, 3, 4}
        # nearest sensor (3, at 17 m) hears it 3 m / 5000 m/s = 600 us in
        assert by_sensor[3].arrival_ref_us == pytest.approx(1_500_600.0)
        assert all(d.source == "rupture:0" for d in rep.detections)
        assert all(d.period_index == 1 for d in rep.detections)  # none pre-sync


class TestQuietAndDegradedRuns:
    def test_empty_scenario_produces_no_estimates(self):
        rep = run(Scenario(geometry=GEOM))
        assert rep.detections == []
        assert rep.estimates == []
        assert rep.summary["periods_completed"] == 3
        assert rep.summary["sync_frames_sent"] == 4

    def test_single_sensor_spurious_event_is_flagged_not_localized(self):
        rep = run(
            Scenario(
                geometry=GEOM,
                spurious_events=(SpuriousEvent(2, 1_400_000.0, 1.2),),
            )
        )
        assert len(rep.detections) == 1
        assert rep.detections[0].source == "spurious:0"
        assert len(rep.estimates) == 1
        est = rep.estimates[0]
        assert est.matched == ""
        assert FLAG_INSUFFICIENT_SENSORS in est.estimate.flags
        assert math.isnan(est.estimate.x_est_m)

    def test_sub_threshold_spurious_event_never_triggers(self):
        rep = run(
            Scenario(
                geometry=GEOM,
                spurious_events=(SpuriousEvent(2, 1_400_000.0, 0.5),),
            )
        )
        assert rep.detections == []
        assert rep.estimates == []

    def test_attenuation_silences_distant_sensors(self):
        # e^-0.05d: sensors at 0 and 4 m stay above 0.8 g, 17 and 27 m fall under
        rep = run(
            canonical_scenario(
                ruptures=(RuptureEvent(0.0, 1_500_000.0),),
                attenuation_per_m=0.05,
            )
        )
        assert {d.sensor_id for d in rep.detections} == {1, 2}
        est = rep.estimates[0]
        assert FLAG_INSUFFICIENT_SENSORS in est.estimate.flags

    def test_total_packet_loss_times_out_every_period(self):
        rep = run(canonical_scenario(network=NetworkConfig(drop_probability=1.0)))
        s = rep.summary
        assert s["periods_completed"] == 0
        assert s["periods_timed_out"] == 3
        # sensors never hear a sync: everything stays pending and pre-sync
        assert s["detections_pre_sync"] == 4
        assert s["events_pending_at_end"] == 4
        assert rep.estimates == []
        assert all(d.period_index == -1 for d in rep.detections)
        assert all(p.reports == () for p in rep.completed_periods)

    def test_partial_loss_still_releases_every_period(self):
        rep = run(canonical_scenario(network=NetworkConfig(drop_probability=0.3), seed=3))
        s = rep.summary
        assert s["periods_completed"] + s["periods_timed_out"] == 3
        assert s["detections_total"] == 4

    def test_pre_sync_detection_is_discarded_at_the_sensor(self):
        rep = run(pre_sync_scenario())
        assert rep.summary["detections_pre_sync"] == 1
        assert rep.summary["events_discarded"] == 1
        assert rep.detections[0].period_index == -1  # pre-sync
        assert rep.retimed == []
        assert rep.estimates == []

    def test_valid_detection_sharing_a_tick_with_a_pre_sync_one_is_retimed(self):
        # both events stamp tick 8: the first on the power-on counter, the
        # second 6 us after sync 0 reset it; only the first is unretimeable
        rx = Scenario(geometry=GEOM).network_model().sync_receipt_at(0, 3)
        rep = run(
            Scenario(
                geometry=GEOM,
                spurious_events=(SpuriousEvent(3, 5.0), SpuriousEvent(3, rx + 6.0)),
            )
        )
        assert [d.local_timestamp_ticks for d in rep.detections] == [8, 8]
        assert [(e.period_index, e.raw_ticks, e.flag) for e in rep.retimed] == [(0, 8, None)]
        assert rep.summary["events_discarded"] == 1

    def test_simultaneous_detections_at_one_sensor_are_both_stamped(self):
        # the first stamp's clock advance used to overshoot the arrival by
        # one ulp, so advancing to the same instant again raised
        t = 2863.040669159211
        rep = run(
            Scenario(
                geometry=CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0)),
                spurious_events=(SpuriousEvent(1, t), SpuriousEvent(1, t)),
                seed=2561,
                run_duration_us=3e6,
            )
        )
        assert [d.arrival_ref_us for d in rep.detections] == [t, t]
        assert [(e.period_index, e.sensor_id) for e in rep.retimed] == [(0, 1), (0, 1)]

    def test_two_ruptures_in_different_periods_both_localized(self):
        rep = run(
            canonical_scenario(
                ruptures=(
                    RuptureEvent(14.0, 1_500_000.0),
                    RuptureEvent(20.0, 2_400_000.0),
                ),
            )
        )
        matched = {e.matched: e for e in rep.estimates}
        assert set(matched) == {"rupture:0", "rupture:1"}
        assert matched["rupture:0"].abs_error_m <= 0.15
        assert matched["rupture:1"].abs_error_m <= 0.15
        assert matched["rupture:0"].period_index == 1
        assert matched["rupture:1"].period_index == 2

    def test_unbracketed_rupture_is_flagged_out_of_span(self):
        # at 5.0 m the two nearest sensors (4.0 and 0.0 m) are on the same
        # side, so the bracketing premise fails; the estimate comes back
        # flagged instead of silently wrong
        rep = run(
            Scenario(geometry=GEOM, ruptures=(RuptureEvent(5.0, 1_500_000.0),))
        )
        est = rep.estimates[0]
        # a flagged estimate locates nothing
        assert est.matched == ""
        assert FLAG_OUT_OF_SPAN in est.estimate.flags
        assert not est.estimate.clean


    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: cluster_events groups by time alone")
    @pytest.mark.parametrize("second_us", [1_500_000.0, 1_540_000.0], ids=["same_time", "40ms_apart"])
    def test_ruptures_far_apart_on_the_cable_are_each_localized(self, second_us):
        # with 0.01/m attenuation each rupture reaches only the sensors within
        # ~22 m, so the two hit disjoint sensor groups inside one window
        geometry = CableGeometry(tuple(range(1, 17)), tuple(10.0 * i for i in range(16)))
        ruptures = (RuptureEvent(25.0, 1_500_000.0), RuptureEvent(125.0, second_us))
        rep = run(Scenario(geometry=geometry, attenuation_per_m=0.01, ruptures=ruptures, seed=3))
        for r in ruptures:
            near = [
                e for e in rep.estimates
                if e.estimate.clean and abs(e.estimate.x_est_m - r.position_m) <= 0.15
            ]
            assert len(near) == 1

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1a: cluster_events groups each period's hits apart, so "
        "a rupture whose arrivals straddle a sync splits into two clusters"
    ))
    def test_rupture_straddling_a_sync_is_localized_once(self):
        # at 998 ms sensors 2 and 3 hear it in period 0, sensors 1 and 4 in
        # period 1
        scenario = replace(accuracy_study_scenario(), ruptures=(RuptureEvent(14.0, 998_000.0),))
        clean = [e for e in run(scenario).estimates if e.estimate.clean]
        assert len(clean) == 1
        assert abs(clean[0].estimate.x_est_m - 14.0) <= 0.15


class TestWholePeriodAccuracy:
    def test_ruptures_anywhere_in_a_period_hold_the_papers_bound(self):
        # ROADMAP item 1: run_trial, which the study runs, draws rupture
        # times only from [1.2T, 1.8T]; here they span [T, 3T), on the
        # study's cable, drift range and J = 3 us link
        base = accuracy_study_scenario()
        t_us = base.sync_period_T_us
        lo, hi = base.geometry.extent_m
        margin = (hi - lo) * EDGE_MARGIN_FRACTION
        link = replace(base.network, latency_mean_us=max(base.network.latency_mean_us, 3.0),
                       latency_jitter_us=3.0)
        rng = random.Random(101)
        errors, split = [], 0
        for _ in range(1000):
            scenario = replace(
                base,
                drift_ppm={sid: rng.uniform(-50.0, 50.0) for sid in base.geometry.sensor_ids},
                ruptures=(RuptureEvent(rng.uniform(lo + margin, hi - margin),
                                       rng.uniform(t_us, 3 * t_us)),),
                network=link,
                seed=rng.getrandbits(32),
            )
            rep = run(scenario)
            located = [row.abs_error_m for row in rep.estimates if row.matched]
            if located:
                errors += located
                continue
            # the one known way to lose a lone rupture (item 1a): its
            # arrivals straddle a sync, and each period holds too few
            periods = {d.period_index for d in rep.detections if d.source == "rupture:0"}
            assert len(periods) > 1, scenario
            split += 1
        assert len(errors) + split == 1000
        assert percentile(sorted(errors), 99.0) <= 0.15


class TestSensorDriver:
    def test_arrival_at_the_receipt_instant_rides_the_closing_report(self):
        rx1 = Scenario(geometry=GEOM).network_model().sync_receipt_at(1, 3)
        rep = run(Scenario(geometry=GEOM, spurious_events=(SpuriousEvent(3, rx1),)))
        assert [(d.arrival_ref_us, d.period_index) for d in rep.detections] == [(rx1, 0)]
        assert [(e.period_index, e.sensor_id, e.flag) for e in rep.retimed] == [(0, 3, None)]

    def test_each_sensor_hears_its_frames_in_receipt_order(self):
        # jitter wider than T/2: with this seed sensor 2 hears frame 1 before
        # frame 0, so frame 0 is a regression and frame 2 a gap; in broadcast
        # order the event at 120 us would be pre-sync and the one at 135 us
        # would ride period 1's report
        scenario = Scenario(
            geometry=CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0)),
            sync_period_T_us=100,
            coincidence_window_us=50.0,
            network=NetworkConfig(latency_mean_us=80.0, latency_jitter_us=80.0),
            spurious_events=(SpuriousEvent(2, 120.0), SpuriousEvent(2, 135.0)),
            seed=2,
            run_duration_us=300.0,
        )
        net = scenario.network_model()
        rx = [net.sync_receipt_at(k, 2) for k in range(4)]
        assert rx[1] < 120.0 < rx[0] < 135.0 < rx[2] < rx[3]
        rep = run(scenario)
        assert [(d.arrival_ref_us, d.period_index) for d in rep.detections] == [
            (120.0, 1), (135.0, 0),
        ]
        assert rep.summary["events_discarded"] == 2
        assert rep.retimed == []


class TestSupervisorOrder:
    @pytest.mark.parametrize("latency_mean_us, completed, timed_out, late, released", [
        (250_000.0, 0, 3, 9, [[1], [1], [1]]),
        (250_001.0, 0, 3, 12, [[], [], []]),
    ])
    def test_report_landing_at_the_timeout_instant_is_taken_first(
        self, latency_mean_us, completed, timed_out, late, released
    ):
        # sensor 1 sits at the supervisor and there is no jitter: a sync
        # lands there T/4 after it leaves, and its report T/4 later, at
        # k*T + T/2, the instant period k-1 times out, and is filed; the
        # other sensors' RF delays make theirs late, and one microsecond
        # more makes sensor 1's late too
        scenario = Scenario(
            geometry=GEOM,
            ruptures=(RuptureEvent(14.0, 1_500_000.0),),
            network=NetworkConfig(latency_mean_us=latency_mean_us, latency_jitter_us=0.0),
        )
        report = run(scenario)
        summary = report.summary
        assert (
            summary["periods_completed"], summary["periods_timed_out"], summary["reports_late"]
        ) == (completed, timed_out, late)
        assert [
            [r.sensor_id for r in p.reports] for p in report.completed_periods
        ] == released

    @given(seed=st.integers(0, 2**32), jitter_us=st.floats(0.0, 400_000.0))
    def test_supervisor_takes_reports_and_timeouts_in_time_order(self, seed, jitter_us):
        # frames never overtake one another here, so sync k draws one report
        # for period k-1 from every sensor; period k-1 times out at
        # k*T + T/2, and a report is late exactly when it lands after that
        scenario = Scenario(
            geometry=GEOM,
            ruptures=(RuptureEvent(14.0, 1_500_000.0),),
            network=NetworkConfig(latency_mean_us=400_000.0, latency_jitter_us=jitter_us),
            seed=seed,
        )
        net = scenario.network_model()
        summary = run(scenario).summary
        t_us = scenario.sync_period_T_us
        on_time = []
        for k in range(1, summary["sync_frames_sent"]):
            landed = [
                net.report_delivery(net.sync_receipt_at(k, sid), k - 1, sid)
                for sid in GEOM.sensor_ids
            ]
            on_time.append(sum(at <= k * t_us + t_us / 2 for at in landed))
        assert summary["periods_completed"] == on_time.count(4)
        assert summary["periods_timed_out"] == len(on_time) - on_time.count(4)
        assert summary["reports_late"] == 4 * len(on_time) - sum(on_time)


class TestGroundTruthStaysOutOfThePipeline:
    def test_postprocessing_ignores_the_injected_ruptures(self):
        scenario = canonical_scenario(
            ruptures=(RuptureEvent(14.0, 1_500_000.0), RuptureEvent(20.0, 2_400_000.0)),
            spurious_events=(SpuriousEvent(2, 2_700_000.0),),
        )
        periods = run(scenario).completed_periods
        got = postprocess_periods(scenario, periods)
        assert len(got[1]) == 3
        assert got == postprocess_periods(replace(scenario, ruptures=()), periods)
        assert all(not row.matched for row in got[1])


def estimate_row(period_index, x_est_m, flags=frozenset()):
    """An unscored row holding one estimate at x_est_m."""
    return EstimateRow(period_index, 0, 3, RuptureEstimate(x_est_m, 5000.0, (1, 2, 3), flags))


def matches(scenario, rows):
    """(label, error) of each scored row; an unmatched row must come back as given."""
    scored = score(scenario, rows)
    assert all(got == row for row, got in zip(rows, scored) if not got.matched)
    return [(r.matched, r.abs_error_m) if r.matched else UNMATCHED for r in scored]


UNMATCHED = ("", None)


class TestRuptureMatching:
    # on GEOM the wave from 14.0 m reaches the sensor at 17.0 m after 600 us,
    # so a rupture there at 1.5 s is scored in period 1
    scenario = canonical_scenario()

    def test_a_flagged_estimate_never_matches(self):
        rows = [estimate_row(1, 14.0, frozenset({FLAG_OUT_OF_SPAN})), estimate_row(1, 14.25)]
        assert matches(self.scenario, rows) == [UNMATCHED, ("rupture:0", 0.25)]

    def test_the_tolerance_is_half_a_metre_inclusive(self):
        assert LOCATE_TOLERANCE_M == 0.5
        for x in (14.5, 13.5):
            assert matches(self.scenario, [estimate_row(1, x)]) == [("rupture:0", 0.5)]
        for x in (math.nextafter(14.5, math.inf), math.nextafter(13.5, -math.inf)):
            assert matches(self.scenario, [estimate_row(1, x)]) == [UNMATCHED]

    def test_the_nearer_of_two_clean_estimates_wins(self):
        rows = [estimate_row(1, 14.25), estimate_row(1, 13.875)]
        assert matches(self.scenario, rows) == [UNMATCHED, ("rupture:0", 0.125)]

    def test_an_estimate_outside_the_first_arrival_period_stays_unmatched(self):
        # at 999.8 ms the rupture is in period 0, but its wave first reaches
        # a sensor at 1000.4 ms, in period 1
        scenario = canonical_scenario(ruptures=(RuptureEvent(14.0, 999_800.0),))
        rows = [estimate_row(0, 14.0), estimate_row(2, 14.0), estimate_row(1, 14.0)]
        assert matches(scenario, rows) == [UNMATCHED, UNMATCHED, ("rupture:0", 0.0)]

    def test_ties_go_by_rupture_order_then_estimate_order(self):
        scenario = canonical_scenario(ruptures=(
            RuptureEvent(14.25, 1_500_000.0), RuptureEvent(13.75, 1_400_000.0),
            RuptureEvent(14.25, 1_600_000.0),
        ))
        # one estimate midway between ruptures 0 and 1 goes to rupture 0
        assert matches(scenario, [estimate_row(1, 14.0)]) == [("rupture:0", 0.25)]
        # two estimates equally near rupture 0: the first takes it, the
        # second takes rupture 1, and rupture 2 is left over
        rows = [estimate_row(1, 14.0), estimate_row(1, 14.0)]
        assert matches(scenario, rows) == [("rupture:0", 0.25), ("rupture:1", 0.25)]

    def test_a_matched_row_carries_the_ruptures_label_position_and_error(self):
        row = estimate_row(1, 13.875)
        [got] = score(self.scenario, [row])
        assert got == row._replace(matched="rupture:0", x_true_m=14.0, abs_error_m=0.125)

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, 3.0, 14.0, 14.25, 14.5, 26.0]),
                      st.sampled_from([0.0, 500.0, 999.0, 1000.0, 2500.0])),
            max_size=8,
        ),
        st.lists(
            st.tuples(st.integers(0, 7),
                      st.sampled_from([2.5, 3.0, 3.25, 13.5, 13.75, 14.0, 14.25, 14.5, 15.0, 26.5]),
                      st.booleans()),
            max_size=8,
        ),
    )
    def test_matches_are_the_benchmarks_per_period_matching(self, ruptures, estimates):
        scenario = Scenario(
            geometry=GEOM,
            sync_period_T_us=1000,
            ruptures=tuple(RuptureEvent(x, t) for x, t in ruptures),
        )
        rows = [estimate_row(k, x, frozenset() if clean else frozenset({FLAG_OUT_OF_SPAN}))
                for k, x, clean in estimates]
        scored = score(scenario, rows)
        period_of = [WORKLOADS.first_arrival_period(scenario, r) for r in scenario.ruptures]
        located = []
        for row, got in zip(rows, scored):
            if not got.matched:
                assert got == row
                continue
            i = int(got.matched.removeprefix("rupture:"))
            located.append(i)
            assert got.estimate.clean
            assert got.period_index == period_of[i]
            assert got.x_true_m == scenario.ruptures[i].position_m
            assert got.abs_error_m == abs(got.estimate.x_est_m - got.x_true_m) <= 0.5
        assert len(located) == len(set(located))
        for k in set(period_of):
            truth = [r.position_m for r, p in zip(scenario.ruptures, period_of) if p == k]
            found = [r.estimate.x_est_m for r in rows if r.period_index == k and r.estimate.clean]
            errors = [r.abs_error_m for r in scored if r.matched and r.period_index == k]
            assert sorted(errors) == sorted(WORKLOADS.match_errors(truth, found))

    def test_matches_agree_with_the_benchmarks_score_on_ae_burst(self, tmp_path):
        for scenario in WORKLOADS.AeBurst(tmp_path).build(7919, 3):
            estimates = run(scenario).estimates
            _, _, want = WORKLOADS.score_run(scenario, estimates)
            assert sorted(e.abs_error_m for e in estimates if e.matched) == sorted(want)


class TestDeterminism:
    def test_same_seed_same_everything(self):
        r1 = run(canonical_scenario())
        r2 = run(canonical_scenario())
        assert r1.summary == r2.summary
        assert r1.detections == r2.detections
        assert r1.retimed == r2.retimed
        assert [e.estimate for e in r1.estimates] == [e.estimate for e in r2.estimates]

    def test_different_seed_changes_jitter_draws(self):
        # sampling quantization can absorb sub-us latency shifts in the raw
        # timestamps; the continuous retimed values always move
        r1 = run(canonical_scenario(seed=7))
        r2 = run(canonical_scenario(seed=8))
        assert [e.retimed_us for e in r1.retimed] != [e.retimed_us for e in r2.retimed]

    def test_csv_export_is_byte_identical_across_runs(self, tmp_path):
        def digests(sub):
            paths = export_csv(run(canonical_scenario()), tmp_path / sub)
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}

        assert digests("a") == digests("b")


class TestCsvExport:
    def test_files_and_headers(self, tmp_path):
        rep = run(canonical_scenario())
        paths = export_csv(rep, tmp_path)
        names = [p.name for p in paths]
        assert names == ["detections.csv", "retimed.csv", "estimates.csv", "summary.csv"]
        expected = {
            "detections.csv": DETECTIONS_HEADER,
            "retimed.csv": RETIMED_HEADER,
            "estimates.csv": ESTIMATES_HEADER,
            "summary.csv": SUMMARY_HEADER,
        }
        for p in paths:
            header = p.read_text().splitlines()[0]
            assert header == ",".join(expected[p.name])

    def test_row_counts_match_report(self, tmp_path):
        rep = run(canonical_scenario())
        paths = {p.name: p for p in export_csv(rep, tmp_path)}
        assert len(paths["detections.csv"].read_text().splitlines()) == 1 + len(rep.detections)
        assert len(paths["retimed.csv"].read_text().splitlines()) == 1 + len(rep.retimed)
        assert len(paths["estimates.csv"].read_text().splitlines()) == 1 + len(rep.estimates)

    def test_floats_round_trip_exactly(self, tmp_path):
        rep = run(canonical_scenario())
        paths = {p.name: p for p in export_csv(rep, tmp_path)}
        rows = paths["estimates.csv"].read_text().splitlines()[1:]
        cells = rows[0].split(",")
        x_est = float(cells[ESTIMATES_HEADER.index("x_est_m")])
        assert x_est == rep.estimates[0].estimate.x_est_m
