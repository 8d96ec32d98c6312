"""Smoke test of the benchmark itself, with a handful of ops per workload.

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is reported with its
unit, that the seed-determined values repeat exactly under one seed and
change under another, and that lossy runs count their warnings instead of
printing them.
"""

from __future__ import annotations

import json

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_OPS = {"mc_study": 30, "ae_burst": 2, "live_loopback": 8}
# metrics fixed by the seed and the op count; timings and memory are not
DETERMINISTIC_E2E = ["loc_err_p50_m", "loc_err_p99_m", "located_ratio", "op_ok_ratio"]
TIMING_UNITS = {"s", "1/s", "ms", "us", "us/op", "%", "MiB"}


def bench(workload, seed, trace):
    line, _ = run.run_benchmark(workload, seed, seconds=0, trace=trace, ops=TINY_OPS[workload])
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == TINY_OPS[workload] * (2 if trace else 1)
    return line


def values(line, names):
    return [line["metrics"][n]["value"] for n in names]


def assert_reports(line, spec_metrics):
    assert set(line["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", sorted(TINY_OPS))
def test_end_to_end_metrics_follow_the_seed(workload):
    a, b, c = bench(workload, 1, 0), bench(workload, 1, 0), bench(workload, 2, 0)
    assert_reports(a, SPEC["end_to_end"])
    assert values(a, DETERMINISTIC_E2E) == values(b, DETERMINISTIC_E2E)
    assert values(a, DETERMINISTIC_E2E) != values(c, DETERMINISTIC_E2E)


@pytest.mark.parametrize("workload", sorted(TINY_OPS))
def test_per_layer_counts_repeat(workload):
    a, b = bench(workload, 1, 1), bench(workload, 1, 1)
    assert_reports(a, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in TIMING_UNITS]
    assert counts
    assert values(a, counts) == values(b, counts)


def test_per_layer_counts_follow_the_seed():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] not in TIMING_UNITS]
    a, c = bench("ae_burst", 1, 1), bench("ae_burst", 2, 1)
    assert values(a, counts) != values(c, counts)


def test_lossy_run_counts_warnings_silently(capfd):
    line = bench("ae_burst", 1, 1)
    assert line["metrics"]["protocol.warnings"]["value"] > 0
    assert capfd.readouterr().err == ""


def test_mc_study_errors_count_flagged_and_far_trials():
    run.import_cablewatch()
    import workloads
    from cablewatch.montecarlo import TrialResult

    study = workloads.McStudy(run.OUT_DIR)
    far = TrialResult(0, 10.0, 11.0, 1.0, 1.0, frozenset())
    flagged = TrialResult(0, 10.0, 10.01, 1.0, 0.01, frozenset({"OUT_OF_SPAN"}))
    failed = TrialResult(0, 10.0, float("nan"), float("nan"), float("nan"), frozenset())
    assert study.score((0, 10.0), far) == (1, 0, [1.0])
    assert study.score((0, 10.0), flagged) == (1, 0, [abs(10.01 - 10.0)])
    assert study.score((0, 10.0), failed) == (1, 0, [])
