"""Linear-drift tick counters for sensor nodes.

Each sensor timestamps acoustic events with a free-running counter driven by
its local oscillator. The oscillator rate differs from nominal by a constant
error expressed in parts per million; one tick equals one nominal microsecond,
so a perfect clock counts 1,000,000 ticks per reference second and a +50 ppm
clock counts 1,000,050. A sensor runs its clock with advance_to, reads
counter_ticks to stamp an event, and ends a period with save_and_reset.
"""

from __future__ import annotations

from dataclasses import dataclass

# Plausible oscillator error bound for the crystal parts considered here.
# Anything beyond this is treated as a configuration mistake, not physics.
MAX_DRIFT_PPM = 1000.0


@dataclass
class ClockState:
    """A free-running local counter with constant-rate drift.

    Attributes:
        drift_ppm: constant oscillator error in parts per million; +50 means
            the counter gains 50 ticks per million reference microseconds.
        counter_ticks: current counter value in ticks. Fractional ticks are
            carried between advances, never truncated.
        ref_now_us: reference time the clock has been advanced to.
    """

    drift_ppm: float
    counter_ticks: float = 0.0
    ref_now_us: float = 0.0

    def __post_init__(self) -> None:
        # `not <=` rather than `>` so NaN is rejected too.
        if not abs(self.drift_ppm) <= MAX_DRIFT_PPM:
            raise ValueError(
                f"drift_ppm {self.drift_ppm!r} outside +/-{MAX_DRIFT_PPM:g} ppm"
            )

    def advance_to(self, ref_us: float) -> None:
        """The one clock update: run to reference time ref_us, which must not
        be before ref_now_us (reference time is monotonic); ValueError if it is."""
        ref_dt_us = ref_us - self.ref_now_us
        if ref_dt_us < 0:
            raise ValueError(f"cannot advance by negative duration {ref_dt_us!r}")
        # the counter gains 1 + drift_ppm * 1e-6 ticks per reference microsecond
        self.counter_ticks += ref_dt_us * (1.0 + self.drift_ppm * 1e-6)
        # now + (ref_us - now) can round past ref_us; a repeat would go back
        self.ref_now_us = ref_us

    def advance(self, ref_dt_us: float) -> None:
        """advance_to(ref_now_us + ref_dt_us) for a duration >= 0. No run calls
        it; the benchmark's tracer (bench/tracing.py) wraps it by name."""
        if ref_dt_us < 0:
            raise ValueError(f"cannot advance by negative duration {ref_dt_us!r}")
        self.advance_to(self.ref_now_us + ref_dt_us)

    def save_and_reset(self) -> float:
        """Atomically capture the counter and restart it from zero.

        The save and the reset are one step: no ticks are lost between them.
        After the call the counter reads 0.

        Returns:
            The counter value immediately before the reset.
        """
        saved = self.counter_ticks
        self.counter_ticks = 0.0
        return saved
