"""The benchmark's tracer still finds every cablewatch name it wraps.

bench/tracing.py replaces public functions and methods by name for the
length of a `with instrumented(...)` block. Renaming or deleting one of
them breaks only the benchmark, whose own tests the default suite does not
collect, so this loads the tracer from its file (sys.path untouched) and
installs and removes its wrappers once.
"""

import sys

import cablewatch
from cablewatch.clock import ClockState
from cablewatch.protocol import SupervisorProtocol
from helpers import load_bench_module
from test_golden import dense, quick_start


def test_tracer_wraps_and_restores_every_name_it_names():
    path = list(sys.path)
    tracing = load_bench_module("tracing")
    assert sys.path == path
    classes = (ClockState, SupervisorProtocol)
    before = [dict(vars(cls)) for cls in classes], cablewatch.run
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        tracer.active = True
        report = cablewatch.run(quick_start())
        tracer.active = False
    assert ([dict(vars(cls)) for cls in classes], cablewatch.run) == before
    timers, _ = tracer.totals()
    assert timers["simulate.run"][0] == 1
    # a lossless run delivers every report once
    assert timers["protocol.on_report"][0] == sum(len(p.reports) for p in report.completed_periods)


def test_tracer_counts_each_postprocessing_layer_per_call():
    # the per-layer cluster and localize figures are read from these counts
    tracing = load_bench_module("tracing")
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        tracer.active = True
        report = cablewatch.run(dense())
        tracer.active = False
    timers, counts = tracer.totals()
    assert timers["retiming.align_period"][0] == len(report.completed_periods) == 4
    assert timers["localization.localize_cluster"][0] == len(report.estimates) == 91
    assert counts["retiming.events"] == len(report.retimed)
