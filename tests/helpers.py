"""Shared brute-force oracles for timing tests."""

from cablewatch.clock import ClockState


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
