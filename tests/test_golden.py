"""Pinned outputs: the four exported CSVs of three scenarios and every
trial of one Monte-Carlo study, by sha256.

A refactor that claims to keep every output byte-identical must leave these
digests as they are. A change that means to alter an output updates the
digest and says why.
"""

import hashlib
import random

import pytest

from cablewatch import CableGeometry, RuptureEvent, Scenario, export_csv, run
from cablewatch.montecarlo import run_study
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
    and one cluster. The drifts and the rupture were drawn once from
    random.Random(46), the spurious hits from random.Random(44) as
    (randint(1, 4), uniform(0, 1000), uniform(1, 2)); all are written at
    full precision, since rounding them loses the clamp. The run is the
    shortest that closes the rupture: 66 frames, the last at 6500 us."""
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
            SpuriousEvent(4, 520.0204889623225, 1.7016142223927126),
            SpuriousEvent(1, 176.66564419544383, 1.2251595205781467),
            SpuriousEvent(1, 224.68644467480868, 1.5686891973674717),
            SpuriousEvent(1, 156.69033508336383, 1.5137132085026757),
            SpuriousEvent(3, 693.5102614314382, 1.3784265711232808),
            SpuriousEvent(4, 766.0959190972866, 1.6700338000515094),
            SpuriousEvent(3, 73.55343057826825, 1.8415228969062092),
            SpuriousEvent(2, 112.00982712964758, 1.0700666873799172),
        ),
        seed=46,
        run_duration_us=6500.0,
    )


def dense():
    """A dense, lossy run: 16 sensors, 41 ruptures, 60 spurious hits, 1%
    loss. Rupture times are whole milliseconds and the last rupture repeats
    the first one's time; score matches by position, so neither shared
    times nor flagged and far-off estimates earn a match."""
    rng = random.Random(6)
    geometry = CableGeometry(tuple(range(1, 17)), tuple(10.0 * i for i in range(16)))
    times = [1000.0 * rng.randrange(3000) for _ in range(40)]
    times.append(times[0])
    return Scenario(
        geometry=geometry,
        ruptures=tuple(
            RuptureEvent(position_m=rng.uniform(0.0, 150.0), time_ref_us=t) for t in times
        ),
        spurious_events=tuple(
            SpuriousEvent(rng.choice(geometry.sensor_ids), rng.uniform(0.0, 3e6)) for _ in range(60)
        ),
        drift_ppm={sid: rng.uniform(-50.0, 50.0) for sid in geometry.sensor_ids},
        attenuation_per_m=0.01,
        coincidence_window_us=5000.0,
        network=NetworkConfig(drop_probability=0.01),
        seed=6,
        run_duration_us=4e6,
    )


GOLDEN = {
    "quick_start": (quick_start, {
        "detections.csv": "ecbe2b906a45d51d3f609b4f5e204c718da6ad40c91bb55a995f68c3b358ccfb",
        "retimed.csv": "92648bdf3c8ee9cd29ddd4e582c0e7cfb023bc47db8b6a5e88ad78bd27f48499",
        "estimates.csv": "1ece1ae68e20ee076606a9616edce64444a571fd1b98e33d090a192843a96645",
        "summary.csv": "40f01b264175466989b874d737ddb7d2413a295af61a86f4a1422ed4e0ab0377",
    }),
    "stress": (stress, {
        "detections.csv": "0df785c024bd6591085ee494939b47aff051e53f5b795a866ee8caec54146e60",
        "retimed.csv": "e8ea465e2bf6ed5658ee168e4e05c860a7d6b44876e94664d226b3b9e5a3ea75",
        "estimates.csv": "dd9febc20ee8b612f355d6a81d5f5d019f1ce3d2cb6f21a86d2bb40620d478c9",
        "summary.csv": "4a2a06436e450d39f7ff12d22ce477f8fda831ef1ddb514508de6b7ad79b9e1d",
    }),
    "dense": (dense, {
        "detections.csv": "ca7f14a872391da5c7c212ddd7b145c78e0ec37272e83d3255896b0ed6cab0d5",
        "retimed.csv": "a5693564acda643363069099410ed375bb36f184d16d286aeb453f0c0a384e66",
        "estimates.csv": "09e9c974ee484a71195b3ea934ef4d5a035f4d8b3e5829a191e39206bcc0cb5d",
        "summary.csv": "50a34e53afdab779f5b3c412bbd696bfb000357b4bfe104bab89036fd7b67d85",
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


def test_dense_scenario_is_lossy():
    summary = run(dense()).summary
    assert summary["periods_timed_out"] > 0
    assert summary["events_discarded"] > 0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_exported_csvs_match_pinned_digests(name, tmp_path):
    make, expected = GOLDEN[name]
    assert digests(make(), tmp_path) == expected


# sha256 over every trial of run_study(trials=200, master_seed=1), one line
# per trial: each field's repr, the flags sorted so that no hash seed moves it
STUDY_DIGEST = "213ba8695a69777be453c08c51f667abea7e69e83f583b830fbf115781d6fd1a"


def study_digest(trials, master_seed):
    h = hashlib.sha256()
    for t in run_study(trials=trials, master_seed=master_seed).trials:
        fields = (t.trial, t.x_true_m, t.x_est_m, t.v_est_m_s, t.abs_error_m, sorted(t.flags))
        h.update((repr(fields) + "\n").encode())
    return h.hexdigest()


def test_monte_carlo_trials_match_pinned_digest():
    assert study_digest(trials=200, master_seed=1) == STUDY_DIGEST


if __name__ == "__main__":
    # re-pinning after an intended output change starts from the current
    # digests: PYTHONPATH=src python tests/test_golden.py
    import tempfile

    for name, (make, _) in GOLDEN.items():
        with tempfile.TemporaryDirectory() as out:
            for file, digest in digests(make(), out).items():
                print(name, file, digest)
    print("STUDY_DIGEST", study_digest(trials=200, master_seed=1))
