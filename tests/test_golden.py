"""Pinned outputs: the four exported CSVs of two scenarios, by sha256.

A refactor that claims to keep every output byte-identical must leave these
digests as they are. A change that means to alter an output updates the
digest and says why.
"""

import hashlib

import pytest

from cablewatch import CableGeometry, RuptureEvent, Scenario, export_csv, run
from cablewatch.scenario import NetworkConfig, SpuriousEvent

GEOM = CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0))


def quick_start():
    """The README quick-start scenario."""
    return Scenario(
        geometry=GEOM,
        drift_ppm={1: +37.0, 2: -12.0, 3: +50.0, 4: -50.0},
        ruptures=(RuptureEvent(position_m=14.0, time_ref_us=1_500_000.0),),
        seed=20,
    )


def stress():
    """Every protocol fault at once: T = 100 us against 80 +- 80 us latency
    and 10% loss, so periods time out, reports arrive late, sync frames are
    lost, events predate the first sync or are discarded, and one boundary
    sample is clamped to its period end; one event still reaches retiming
    and one cluster. The values were drawn once from random.Random(46) and
    are written at full precision, since rounding them loses the clamp."""
    return Scenario(
        geometry=GEOM,
        drift_ppm={
            1: 38.826807645248806, 2: -10.000560402898707,
            3: 8.86201827742321, 4: 35.97866735427614,
        },
        sync_period_T_us=100,
        coincidence_window_us=50.0,
        network=NetworkConfig(latency_mean_us=80.0, latency_jitter_us=80.0, drop_probability=0.1),
        ruptures=(RuptureEvent(position_m=6.856176100938019, time_ref_us=464.14555562116783),),
        spurious_events=(
            SpuriousEvent(1, 30.390501536009197, 1.761471864969228),
            SpuriousEvent(1, 843.1495877420078, 1.0489302978182777),
            SpuriousEvent(3, 527.7693445209782, 1.9646862528070241),
            SpuriousEvent(1, 397.96724896404055, 1.6757426748172852),
            SpuriousEvent(3, 156.1111395859973, 1.4121693649418234),
            SpuriousEvent(1, 459.58514324482167, 1.6661082759414971),
            SpuriousEvent(1, 432.66374041407494, 1.2702905800732187),
            SpuriousEvent(4, 778.4954586353174, 1.202576645230132),
        ),
        seed=46,
        run_duration_us=1000.0,
    )


GOLDEN = {
    "quick_start": (quick_start, {
        "detections.csv": "ecbe2b906a45d51d3f609b4f5e204c718da6ad40c91bb55a995f68c3b358ccfb",
        "retimed.csv": "87ea0ca2d696c134d2e8641a0c98c7e8dbb2435079ba1fda9f60fa31f80ce1d3",
        "estimates.csv": "d08bdc9bf79c6ce39877c6ae42cbe5439aa8ee1b9f39b2ae85e354e7334d1291",
        "summary.csv": "d0e4bcbbd659eba67b9e10b83f073dd9bab7b1c961af95342edbaed4687ec71e",
    }),
    "stress": (stress, {
        "detections.csv": "dd291e3a08d55cb5ca3e1c1eb230d1591d2bb2ab9b74b536482f872ead889bbd",
        "retimed.csv": "02067fb7fb9207d830d806de91c4c39aff8fbf18cde91608b447a5eaeb2bf083",
        "estimates.csv": "e9987974ad3c511562ea3445b271304e04581ed2e029cdb26b70a923659be116",
        "summary.csv": "6bc6548c4148cb8b463d4618403ccd8cb25008ec01e27035cdb7b3b32f81ed25",
    }),
}


def digests(scenario, out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in export_csv(run(scenario), out_dir)}


def test_stress_scenario_exercises_every_fault():
    s = run(stress()).summary
    for key in ("periods_timed_out", "reports_late", "detections_pre_sync",
                "events_discarded", "events_clamped_to_period_end",
                "events_retimed_valid", "clusters_total"):
        assert s[key] > 0, key


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_csvs_match_pinned_digests(name, tmp_path):
    make, expected = GOLDEN[name]
    assert digests(make(), tmp_path) == expected
