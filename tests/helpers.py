"""Shared test helpers: brute-force oracles for timing tests, and the
benchmark's modules loaded from their files."""

import importlib.util
from pathlib import Path

from cablewatch.clock import ClockState

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    """bench/<name>.py, loaded from its file with sys.path untouched: the
    benchmark is no package, and the default suite collects none of it."""
    spec = importlib.util.spec_from_file_location(f"cablewatch_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_sensor_period(drift_ppm, receipt0_ref_us, receipt1_ref_us, event_ref_us):
    """Drive a real clock through one sync period, step by step.

    The sensor's sync receipts happen at the given reference instants and the
    event in between. Returns (t_evi_ticks, t_i_ticks) exactly as the sensor
    would have captured them (unquantized).
    """
    assert receipt0_ref_us <= event_ref_us <= receipt1_ref_us
    c = ClockState(drift_ppm=drift_ppm)
    c.advance_to(receipt0_ref_us)
    c.save_and_reset()
    c.advance_to(event_ref_us)
    t_ev = c.counter_ticks
    c.advance_to(receipt1_ref_us)
    t_i = c.save_and_reset()
    return t_ev, t_i
