"""The benchmark's three workloads.

Each workload makes its inputs from the benchmark seed, runs one op on one
input, checks the op's output and scores it against ground truth that the
benchmark itself holds. Ops look cablewatch functions up through their
modules at call time, so the tracer's patches (tracing.py) see every call.
"""

from __future__ import annotations

import random
from pathlib import Path

from cablewatch import live, montecarlo, simulate
from cablewatch.scenario import NetworkConfig, Scenario, SpuriousEvent
from cablewatch.wave import CableGeometry, RuptureEvent

T_US = 1_000_000
# an injected rupture counts as located when a clean estimate of the same
# sync period lies within this distance; each estimate locates one rupture
LOCATE_TOLERANCE_M = 0.5

def match_errors(true_xs, est_xs) -> list[float]:
    """Greedy one-to-one matching, nearest pairs first, within the tolerance.

    Returns the absolute error of every located rupture.
    """
    pairs = sorted(
        (abs(x - t), ti, ei)
        for ti, t in enumerate(true_xs)
        for ei, x in enumerate(est_xs)
        if abs(x - t) <= LOCATE_TOLERANCE_M
    )
    used_t, used_e, errors = set(), set(), []
    for err, ti, ei in pairs:
        if ti in used_t or ei in used_e:
            continue
        used_t.add(ti)
        used_e.add(ei)
        errors.append(err)
    return errors


def first_arrival_period(scenario: Scenario, rupture: RuptureEvent) -> int:
    """Sync period in which the wave first reaches a sensor."""
    nearest = min(abs(p - rupture.position_m) for p in scenario.geometry.positions_m)
    first = rupture.time_ref_us + nearest / scenario.wave_speed_m_s * 1e6
    return int(first // scenario.sync_period_T_us)


def score_run(scenario: Scenario, estimates) -> tuple[int, int, list[float]]:
    """(injected, located, errors of the located) ruptures of one run's estimates."""
    truth: dict[int, list[float]] = {}
    for r in scenario.ruptures:
        truth.setdefault(first_arrival_period(scenario, r), []).append(r.position_m)
    found: dict[int, list[float]] = {}
    for row in estimates:
        if row.estimate.clean:
            found.setdefault(row.period_index, []).append(row.estimate.x_est_m)
    errors: list[float] = []
    for k, xs in truth.items():
        errors.extend(match_errors(xs, found.get(k, [])))
    return len(scenario.ruptures), len(errors), errors


class McStudy:
    """One `montecarlo.run_trial` per op: the paper's reference accuracy study.

    Inputs are trials 0..n-1 of the master seed on the reference 4-sensor,
    30 m cable with 3 us receipt jitter and +/-50 ppm drift.
    """

    name = "mc_study"
    pass_ops = 4000
    # the paper's accuracy envelope: p99 error over every trial of the study
    p99_envelope_m = 0.15
    jitter_us = 3.0
    drift_range_ppm = 50.0

    def __init__(self, out_dir: Path):
        self.base = None
        self.seed = 0

    def build(self, seed: int, n: int) -> list[tuple[int, float]]:
        self.base = montecarlo.accuracy_study_scenario()
        self.seed = seed
        return [(trial, self._true_position(trial)) for trial in range(n)]

    def _true_position(self, trial: int) -> float:
        # the trial's key and draw order are part of the workload definition
        rng = random.Random(f"{self.seed}|trial|{trial}")
        for _ in self.base.geometry.sensor_ids:
            rng.uniform(-self.drift_range_ppm, self.drift_range_ppm)
        lo, hi = self.base.geometry.extent_m
        margin = (hi - lo) * montecarlo.EDGE_MARGIN_FRACTION
        return rng.uniform(lo + margin, hi - margin)

    def warm_up(self, inputs) -> None:
        self.op(inputs[0])

    def op(self, inp):
        return montecarlo.run_trial(
            self.base, inp[0], master_seed=self.seed,
            jitter_us=self.jitter_us, drift_range_ppm=self.drift_range_ppm,
        )

    def check(self, k: int, inp, result) -> bool:
        # a trial without a matched estimate is a failure
        return not result.failed and result.x_true_m == inp[1]

    def score(self, inp, result) -> tuple[int, int, list[float]]:
        # as in run_study, every trial with an estimate has an error, flagged
        # or not and however far off; only a clean, near one is located
        if result is None or result.failed:
            return 1, 0, []
        error = abs(result.x_est_m - inp[1])
        located = not result.flags and error <= LOCATE_TOLERANCE_M
        return 1, int(located), [error]


class AeBurst:
    """`simulate.run` + `export_csv` on a dense, lossy, multi-event scenario.

    32 sensors at 10 m spacing; ruptures arrive as a Poisson process at
    20/s and spurious single-sensor hits at 100/s over the first 9 of 10
    sync periods, with uniform positions and times; 1% frame loss.
    """

    name = "ae_burst"
    pass_ops = 200
    p99_envelope_m = None
    periods = 10
    rupture_rate_per_s = 20.0
    spurious_rate_per_s = 100.0

    def __init__(self, out_dir: Path):
        self.csv_dir = out_dir / "csv-ae_burst"
        self.reference_csv = None

    def build(self, seed: int, n: int) -> list[Scenario]:
        return [self._scenario(random.Random(f"{seed}|ae_burst|{i}")) for i in range(n)]

    def _scenario(self, rng: random.Random) -> Scenario:
        geometry = CableGeometry(tuple(range(1, 33)), tuple(10.0 * i for i in range(32)))
        lo, hi = geometry.extent_m
        active_us = (self.periods - 1) * T_US
        ruptures = tuple(
            RuptureEvent(position_m=rng.uniform(lo, hi), time_ref_us=t)
            for t in _poisson_times(rng, self.rupture_rate_per_s, active_us)
        )
        spurious = tuple(
            SpuriousEvent(sensor_id=rng.choice(geometry.sensor_ids), time_ref_us=t)
            for t in _poisson_times(rng, self.spurious_rate_per_s, active_us)
        )
        return Scenario(
            geometry=geometry,
            drift_ppm={sid: rng.uniform(-50.0, 50.0) for sid in geometry.sensor_ids},
            attenuation_per_m=0.01,
            coincidence_window_us=5000.0,
            network=NetworkConfig(drop_probability=0.01),
            ruptures=ruptures,
            spurious_events=spurious,
            seed=rng.getrandbits(32),
            run_duration_us=float(self.periods * T_US),
        )

    def warm_up(self, inputs) -> None:
        self.op(inputs[0])
        self.reference_csv = self._csv_bytes()

    def _csv_bytes(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(self.csv_dir.glob("*.csv"))}

    def op(self, scenario: Scenario):
        report = simulate.run(scenario)
        simulate.export_csv(report, self.csv_dir)
        return report

    def check(self, k: int, scenario: Scenario, report) -> bool:
        if len(report.completed_periods) != self.periods:
            return False
        # every rerun of input 0 must export the warm-up's bytes exactly
        return k != 0 or self._csv_bytes() == self.reference_csv

    def score(self, scenario: Scenario, report) -> tuple[int, int, list[float]]:
        if report is None:
            return len(scenario.ruptures), 0, []
        return score_run(scenario, report.estimates)


class LiveLoopback:
    """One `run_live` over loopback UDP per op.

    The canonical live run: reference geometry, rupture at 14 m at 1.5 s,
    5 sync periods, OS-assigned ports, no pacing. Drifts (+/-50 ppm) and
    the network seed are drawn per input from the benchmark seed.
    """

    name = "live_loopback"
    pass_ops = 1000
    p99_envelope_m = None
    periods = 5

    def __init__(self, out_dir: Path):
        self._twins: dict[int, list] = {}

    def build(self, seed: int, n: int):
        self._twins.clear()
        geometry = montecarlo.accuracy_study_scenario().geometry
        configs = []
        for i in range(n):
            rng = random.Random(f"{seed}|live_loopback|{i}")
            scenario = Scenario(
                geometry=geometry,
                drift_ppm={sid: rng.uniform(-50.0, 50.0) for sid in geometry.sensor_ids},
                ruptures=(RuptureEvent(14.0, 1_500_000.0),),
                seed=rng.getrandbits(32),
                run_duration_us=float((self.periods - 1) * T_US),
            )
            configs.append(live.LiveConfig(
                scenario=scenario,
                periods=self.periods,
                report_port=0,
                sync_ports={sid: 0 for sid in scenario.geometry.sensor_ids},
                pace_s=0.0,
            ))
        return configs

    def warm_up(self, inputs) -> None:
        self.op(inputs[0])

    def op(self, config):
        return live.run_live(config)

    def check(self, k: int, config, result) -> bool:
        closed = result.completed_periods
        if len(closed) != self.periods - 1 or not all(p.complete for p in closed):
            return False
        if k not in self._twins:
            self._twins[k] = simulate.run(config.scenario).retimed
        return result.retimed == self._twins[k]

    def score(self, config, result) -> tuple[int, int, list[float]]:
        if result is None:
            return len(config.scenario.ruptures), 0, []
        return score_run(config.scenario, result.estimates)


def _poisson_times(rng: random.Random, rate_per_s: float, span_us: float) -> list[float]:
    """Event instants of a Poisson process over [0, span_us)."""
    times, t = [], 0.0
    while True:
        t += rng.expovariate(rate_per_s) * 1e6
        if t >= span_us:
            return times
        times.append(t)


WORKLOADS = {w.name: w for w in (McStudy, AeBurst, LiveLoopback)}
