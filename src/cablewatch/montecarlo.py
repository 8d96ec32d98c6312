"""Monte-Carlo accuracy study: randomized ruptures through the full pipeline.

Each trial draws fresh drifts, a rupture position, and network noise, runs
the complete simulation, and records the localization error. Trials are pure
functions of (base scenario, master seed, trial index), so reruns reproduce
exactly and trials could run in parallel.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .clock import MAX_DRIFT_PPM
from .scenario import Scenario
from .simulate import run
from .wave import CableGeometry, RuptureEvent, frozen_slotted, is_integer, is_number

DEFAULT_TRIALS = 1000
DEFAULT_JITTER_US = 3.0
DEFAULT_DRIFT_RANGE_PPM = 50.0
# ruptures land inside the cable, away from the exact ends
EDGE_MARGIN_FRACTION = 0.01


@frozen_slotted
class TrialResult:
    trial: int
    x_true_m: float
    x_est_m: float
    v_est_m_s: float
    abs_error_m: float
    flags: frozenset[str]

    @property
    def failed(self) -> bool:
        return math.isnan(self.abs_error_m)


@dataclass(frozen=True)
class StudyResult:
    trials: tuple[TrialResult, ...]
    p50_m: float
    p99_m: float
    max_m: float
    failures: int

    def summary_lines(self) -> list[str]:
        return [
            f"trials:     {len(self.trials)}",
            f"failures:   {self.failures}",
            f"p50 error:  {self.p50_m:.6f} m",
            f"p99 error:  {self.p99_m:.6f} m",
            f"max error:  {self.max_m:.6f} m",
        ]


def accuracy_study_scenario() -> Scenario:
    """The reference accuracy setup: four sensors at 10 m spacing."""
    return Scenario(
        geometry=CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0)),
    )


def run_trial(
    base: Scenario,
    trial: int,
    master_seed: int = 0,
    jitter_us: float = DEFAULT_JITTER_US,
    drift_range_ppm: float = DEFAULT_DRIFT_RANGE_PPM,
) -> TrialResult:
    """One randomized rupture through the full pipeline. The trial fails,
    with NaN estimate and error, when no clean estimate lies within 0.5 m of
    the rupture in the period of its first arrival (simulate.score)."""
    if not is_integer(master_seed):
        raise ValueError(f"master_seed must be an int, got {master_seed!r}")
    if not (is_number(drift_range_ppm) and 0 <= drift_range_ppm <= MAX_DRIFT_PPM):
        raise ValueError(f"drift_range_ppm must be a drift range in [0, {MAX_DRIFT_PPM:g}] ppm")
    if not (is_number(jitter_us) and 0 <= jitter_us < math.inf):
        raise ValueError(f"jitter_us must be a finite number >= 0, got {jitter_us!r}")
    rng = random.Random(f"{master_seed}|trial|{trial}")
    drifts = {sid: rng.uniform(-drift_range_ppm, drift_range_ppm) for sid in base.geometry.sensor_ids}
    lo, hi = base.geometry.extent_m
    margin = (hi - lo) * EDGE_MARGIN_FRACTION
    x_true = rng.uniform(lo + margin, hi - margin)
    t_us = base.sync_period_T_us
    rupture_time = rng.uniform(1.2 * t_us, 1.8 * t_us)
    mean = max(base.network.latency_mean_us, jitter_us)
    scenario = replace(
        base,
        drift_ppm=drifts,
        ruptures=(RuptureEvent(position_m=x_true, time_ref_us=rupture_time),),
        spurious_events=(),
        network=replace(base.network, latency_mean_us=mean, latency_jitter_us=jitter_us),
        seed=rng.getrandbits(32),
        run_duration_us=None,
    )
    # score matches at most one row, a clean one, to the one rupture
    for row in run(scenario).estimates:
        if row.matched:
            x_est, v_est, _, flags, _, _ = row.estimate
            return TrialResult(trial, x_true, x_est, v_est, row.abs_error_m, flags)
    return TrialResult(trial, x_true, math.nan, math.nan, math.nan, frozenset())


def percentile(sorted_values: list[float], q: float) -> float:
    """The q-th percentile of an ascending list by linear interpolation
    between closest ranks, bit-equal to numpy.percentile's default method."""
    pos = (len(sorted_values) - 1) * (q / 100)
    i = math.floor(pos)
    frac = pos - i
    a = sorted_values[i]
    b = sorted_values[min(i + 1, len(sorted_values) - 1)]
    # numpy interpolates from the nearer end, which rounds differently
    if frac >= 0.5:
        return b - (b - a) * (1 - frac)
    return a + (b - a) * frac


def run_study(
    base: Scenario | None = None,
    trials: int = DEFAULT_TRIALS,
    master_seed: int = 0,
    jitter_us: float = DEFAULT_JITTER_US,
    drift_range_ppm: float = DEFAULT_DRIFT_RANGE_PPM,
) -> StudyResult:
    """Run the study and reduce errors to p50/p99/max.

    Failed trials (no clean estimate within 0.5 m, see run_trial) are
    excluded from the percentiles and counted separately; at default
    settings none occur.
    """
    if not (is_integer(trials) and trials >= 1):
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if base is None:
        base = accuracy_study_scenario()
    results = tuple(
        run_trial(base, t, master_seed=master_seed, jitter_us=jitter_us,
                  drift_range_ppm=drift_range_ppm)
        for t in range(trials)
    )
    errors = sorted(t.abs_error_m for t in results if not t.failed)
    failures = len(results) - len(errors)
    if errors:
        p50, p99, mx = percentile(errors, 50.0), percentile(errors, 99.0), errors[-1]
    else:
        p50 = p99 = mx = math.nan
    return StudyResult(
        trials=results,
        p50_m=p50,
        p99_m=p99,
        max_m=mx,
        failures=failures,
    )
