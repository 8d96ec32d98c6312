"""Monte-Carlo study mechanics: determinism, reduction, knobs."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cablewatch
from cablewatch.montecarlo import (
    accuracy_study_scenario,
    percentile,
    run_study,
    run_trial,
)
from cablewatch.scenario import Scenario
from cablewatch.wave import CableGeometry


class TestTrial:
    def test_trial_is_reproducible(self):
        base = accuracy_study_scenario()
        a = run_trial(base, 3, master_seed=11)
        b = run_trial(base, 3, master_seed=11)
        assert a == b

    def test_trials_differ_from_each_other(self):
        base = accuracy_study_scenario()
        a = run_trial(base, 0, master_seed=11)
        b = run_trial(base, 1, master_seed=11)
        assert a.x_true_m != b.x_true_m

    def test_master_seed_changes_draws(self):
        base = accuracy_study_scenario()
        a = run_trial(base, 0, master_seed=1)
        b = run_trial(base, 0, master_seed=2)
        assert a.x_true_m != b.x_true_m

    def test_trial_succeeds_at_defaults(self):
        t = run_trial(accuracy_study_scenario(), 0)
        assert not t.failed
        assert t.abs_error_m == abs(t.x_est_m - t.x_true_m)
        assert t.flags == frozenset()

    def test_drift_range_validated(self):
        with pytest.raises(ValueError, match="drift range"):
            run_trial(accuracy_study_scenario(), 0, drift_range_ppm=5000.0)

    @pytest.mark.parametrize("drift", [True, "5", None])
    def test_drift_range_must_be_a_number(self, drift):
        with pytest.raises(ValueError, match="drift_range_ppm"):
            run_trial(accuracy_study_scenario(), 0, drift_range_ppm=drift)

    @pytest.mark.parametrize("seed", [True, 1.0, "1"])
    def test_master_seed_must_be_an_integer(self, seed):
        # True and 1.0 would key other trial streams than 1
        with pytest.raises(ValueError, match="master_seed"):
            run_trial(accuracy_study_scenario(), 0, master_seed=seed)

    @pytest.mark.parametrize("jitter", ["3", math.nan, math.inf, -1.0, True])
    def test_jitter_must_be_a_finite_number_at_least_zero(self, jitter):
        # refused by its own name, not by the link path the trial builds
        with pytest.raises(ValueError, match=r"^jitter_us must be a finite number >= 0, got "):
            run_trial(accuracy_study_scenario(), 0, jitter_us=jitter)


class TestStudy:
    def test_study_reduces_and_orders_percentiles(self):
        res = run_study(trials=40, master_seed=5)
        assert len(res.trials) == 40
        assert res.failures == 0
        assert 0 <= res.p50_m <= res.p99_m <= res.max_m
        assert res.max_m < 0.15

    def test_study_reproducible(self):
        a = run_study(trials=10, master_seed=5)
        b = run_study(trials=10, master_seed=5)
        assert a == b

    def test_zero_jitter_tightens_the_error_tail(self):
        # the median is dominated by sampling quantization either way; the
        # tail is where receipt jitter shows up
        noisy = run_study(trials=100, master_seed=5, jitter_us=3.0)
        quiet = run_study(trials=100, master_seed=5, jitter_us=0.0)
        assert quiet.max_m < noisy.max_m

    def test_summary_lines_report_every_statistic(self):
        res = run_study(trials=5, master_seed=5)
        text = "\n".join(res.summary_lines())
        for key in ("trials:", "failures:", "p50 error:", "p99 error:", "max error:"):
            assert key in text
        assert "5" in text
        # only clean estimates are scored, so a flagged count would always read 0
        assert "flagged:" not in text

    @pytest.mark.parametrize("jitter_us, within", [(20.0, True), (50.0, False)])
    def test_receipt_jitter_the_p99_envelope_allows(self, jitter_us, within):
        # the 0.15 m p99 envelope holds up to about 37 us of uniform +/-J
        # receipt jitter (0.082 m at 20 us, 0.122 m at 30 us, 0.199 m at 50 us)
        res = run_study(trials=1000, master_seed=4242, jitter_us=jitter_us)
        assert (res.p99_m <= 0.15) is within

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError, match="trials"):
            run_study(trials=0)

    @pytest.mark.parametrize("trials", [True, 2.5, "3"])
    def test_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="trials"):
            run_study(trials=trials)

    def test_master_seed_checked_for_the_study(self):
        with pytest.raises(ValueError, match="master_seed"):
            run_study(trials=1, master_seed=1.0)

    def test_custom_base_scenario(self):
        base = Scenario(
            geometry=CableGeometry((1, 2, 3), (0.0, 5.0, 10.0)),
            sync_period_T_us=500_000,
        )
        res = run_study(base=base, trials=10, master_seed=5)
        assert res.failures == 0
        assert all(0 <= t.x_true_m <= 10.0 for t in res.trials)


class TestPercentile:
    def test_matches_numpy_on_the_acceptance_study(self):
        res = run_study(trials=1000, master_seed=0, jitter_us=3.0)
        errors = [t.abs_error_m for t in res.trials if not t.failed]
        assert res.p50_m == float(np.percentile(errors, 50.0))
        assert res.p99_m == float(np.percentile(errors, 99.0))
        assert res.max_m == max(errors)

    def test_one_value_is_every_percentile(self):
        assert percentile([0.25], 50.0) == percentile([0.25], 99.0) == 0.25
        res = run_study(trials=1, master_seed=5)
        assert res.p50_m == res.p99_m == res.max_m

    def test_import_leaves_numpy_out(self):
        src = str(Path(cablewatch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, cablewatch; assert 'numpy' not in sys.modules, 'numpy imported'"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
