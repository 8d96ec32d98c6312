"""cablewatch benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mc_study --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports cablewatch from its
src/ directory. Ops run one at a time from this single process (a closed
loop with one caller). Every op's output is checked; accuracy is scored
over one pass of the workload's inputs against the benchmark's own ground
truth. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
is split into an untraced and a traced half and the metrics are the
per-layer ones from the traced half, plus the tracing overhead. Results
with run metadata, and the spans of a traced run, go to bench/out/.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# figures for gain claims are confirmed on this seed, which is never used
# while a change is being written
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


class WarningCounter(logging.Handler):
    """Counts cablewatch WARNING+ records instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def import_cablewatch():
    src = ROOT / "src"
    if not (src / "cablewatch" / "__init__.py").is_file():
        raise SetupError(f"no cablewatch sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import cablewatch

    if Path(cablewatch.__file__).resolve().parent != (src / "cablewatch").resolve():
        raise SetupError(f"imported cablewatch from {cablewatch.__file__}, not {src}")
    return cablewatch


@contextmanager
def counting_warnings():
    """Count cablewatch warnings instead of printing them; yields the counter."""
    log = logging.getLogger("cablewatch")
    counter = WarningCounter()
    saved = (log.level, log.propagate)
    log.addHandler(counter)
    log.setLevel(logging.WARNING)
    log.propagate = False
    try:
        yield counter
    finally:
        log.removeHandler(counter)
        log.setLevel(saved[0])
        log.propagate = saved[1]


def set_up(workload_name, seed, pass_ops):
    """Everything a run does before its first timed op: import cablewatch,
    build and validate every input, and run one untimed warm-up op."""
    import_cablewatch()
    import workloads

    with counting_warnings():
        workload = workloads.WORKLOADS[workload_name](OUT_DIR)
        inputs = workload.build(seed, pass_ops)
        workload.warm_up(inputs)
    return workload, inputs


def setup_seconds(workload_name, seed, pass_ops) -> float:
    """Wall time from starting a fresh interpreter to the end of `set_up`."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
            f"run.set_up({workload_name!r}, {seed!r}, {pass_ops!r})")
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return perf_counter() - t0


def _percentile(values, p):
    import numpy as np

    return float(np.percentile(values, p))


def measure(workload, inputs, seconds, min_ops, max_ops, tracer=None):
    """Run ops over the inputs, in order and cycling, until `seconds` of op
    time have passed and at least min_ops ops ran (or exactly max_ops).

    Latency is kept per input as the mean over the run's ops on it. Ops on
    one input are spread over the whole run, so the mean averages over the
    host's speed phases (bench/README.md, *Timing*), and percentiles over
    inputs describe the inputs rather than which phase an op fell in.
    """
    op = workload.op
    if tracer is not None:
        op = tracer.timed("op", op, span=True)
    op_s, op_n = [0.0] * len(inputs), [0] * len(inputs)
    failed, ruptures, located, errors = 0, 0, 0, []
    busy = 0.0
    i = 0
    while i < min_ops or (busy < seconds and (max_ops is None or i < max_ops)):
        k = i % len(inputs)
        inp = inputs[k]
        if tracer is not None:
            tracer.op_id, tracer.active = i, True
        t0 = perf_counter()
        try:
            result = op(inp)
        except Exception:
            # an op that raises is a failed op, not the end of the run
            if failed == 0:
                traceback.print_exc(file=sys.stderr)
            result = None
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        if result is not None and not workload.check(k, inp, result):
            if failed == 0:
                print(f"bench: op {i} on input {k} failed its output check", file=sys.stderr)
            result = None
        if result is None:
            failed += 1
        if i < len(inputs):
            n, hits, errs = workload.score(inp, result)
            ruptures += n
            located += hits
            errors.extend(errs)
        op_s[k] += dt
        op_n[k] += 1
        busy += dt
        i += 1
    return {
        "ops": i, "failed": failed, "ops_per_s": i / busy,
        "input_ms": [1e3 * t / n for t, n in zip(op_s, op_n) if n],
        "ruptures": ruptures, "located": located, "errors": errors,
        "scored_ops": min(i, len(inputs)),
    }


def run_metadata(workload_name, seed, seconds, trace, pass_ops, runs):
    import numpy
    import yaml

    return {
        "workload": workload_name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "pass_ops": pass_ops,
        "setup_repeats": SETUP_REPEATS,
        "ops": {name: r["ops"] for name, r in runs.items()},
        "scored_ops": {name: r["scored_ops"] for name, r in runs.items()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(ROOT),
    }


def git_sha(root: Path):
    """HEAD's commit id, or None outside a git checkout."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_benchmark(workload_name, seed, seconds, trace, ops=None):
    """One benchmark run; returns (result line, run metadata)."""
    import_cablewatch()

    import tracing
    import workloads

    pass_ops = ops if ops is not None else workloads.WORKLOADS[workload_name].pass_ops
    if not trace:
        setup_s = statistics.median(
            setup_seconds(workload_name, seed, pass_ops) for _ in range(SETUP_REPEATS)
        )
    workload, inputs = set_up(workload_name, seed, pass_ops)
    with counting_warnings() as counter:
        runs = {}
        accurate = True
        if not trace:
            timed = runs["timed"] = measure(workload, inputs, seconds, pass_ops, ops)
            metrics = end_to_end_metrics(timed, setup_s, workloads.LOCATE_TOLERANCE_M)
            envelope = workload.p99_envelope_m
            accurate = bool(timed["errors"]) and (
                envelope is None or metrics["loc_err_p99_m"][0] <= envelope
            )
        else:
            half = seconds / 2
            runs["untraced"] = measure(workload, inputs, half, ops or 1, ops)
            tracer = tracing.Tracer()
            warnings_before = counter.count
            with tracing.instrumented(tracer):
                runs["traced"] = measure(workload, inputs, half, ops or 1, ops, tracer)
            traced = runs["traced"]
            metrics = tracing.layer_metrics(
                tracer, traced["ops"], counter.count - warnings_before
            )
            untraced_rate = runs["untraced"]["ops_per_s"]
            traced_rate = traced["ops_per_s"]
            metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
            metrics["trace.ops_per_s"] = (traced_rate, "1/s")
            metrics["trace.overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")
            tracer.write_spans(OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl")

    attempted = sum(r["ops"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    line = {
        "correct": failed == 0 and accurate,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    meta = run_metadata(workload_name, seed, seconds, trace, pass_ops, runs)
    meta["metric_samples"] = metric_samples(metrics, runs)
    return line, meta


def metric_samples(metrics, runs) -> dict[str, int]:
    """How many samples each metric was computed from."""
    if "timed" in runs:
        r = runs["timed"]
        return {
            "setup_s": SETUP_REPEATS, "ops_per_s": r["ops"], "op_ms_p50": len(r["input_ms"]),
            "op_ms_p90": len(r["input_ms"]), "peak_rss_mb": 1, "loc_err_p50_m": len(r["errors"]),
            "loc_err_p99_m": len(r["errors"]), "located_ratio": r["ruptures"],
            "op_ok_ratio": r["ops"],
        }
    samples = {name: runs["traced"]["ops"] for name in metrics}
    samples["trace.untraced_ops_per_s"] = runs["untraced"]["ops"]
    return samples


def end_to_end_metrics(run, setup_s, tolerance_m):
    lat_ms = run["input_ms"]
    errors = run["errors"]
    if errors:
        p50, p99 = _percentile(errors, 50), _percentile(errors, 99)
    else:
        # nothing located: report the worst error a located rupture could have
        p50 = p99 = tolerance_m
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run["ops_per_s"], "1/s"),
        "op_ms_p50": (_percentile(lat_ms, 50), "ms"),
        "op_ms_p90": (_percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "loc_err_p50_m": (p50, "m"),
        "loc_err_p99_m": (p99, "m"),
        "located_ratio": (run["located"] / run["ruptures"] if run["ruptures"] else 0.0, "ratio"),
        "op_ok_ratio": (1 - run["failed"] / run["ops"], "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["mc_study", "ae_burst", "live_loopback"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        line, meta = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({"meta": meta, **line}, indent=2) + "\n")
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    for name, m in line["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']:9s} n={meta['metric_samples'][name]}")
    print(f"correct={line['correct']} attempted={line['attempted']} failed={line['failed']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
