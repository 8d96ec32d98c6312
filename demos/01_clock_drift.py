"""
Why cheap crystals need synchronization
=======================================

Each sensor node timestamps wave arrivals with its own counter, and each
counter runs off its own crystal. A crystal that is 50 ppm fast gains
50 microseconds per second; one that is 50 ppm slow loses the same. Watch
how far apart two such counters are after one nominal second.
"""

from cablewatch import ClockState

# 1 us nominal ticks, so a counter reading is "microseconds, as this node
# believes them"
fast = ClockState(drift_ppm=+50.0)
slow = ClockState(drift_ppm=-50.0)

print(f"{'ref time':>10} {'fast clock':>14} {'slow clock':>14} {'gap':>10}")
for ms in (0, 100, 250, 500, 750, 1000):
    t_ref = ms * 1000.0
    fast.advance_to(t_ref)
    slow.advance_to(t_ref)
    a, b = fast.counter_ticks, slow.counter_ticks
    print(f"{ms:>7} ms {a:>14.2f} {b:>14.2f} {a - b:>9.2f}")

# At 1 s the clocks disagree by 100 us. An extensional wave in a steel
# cable covers half a meter in that time, so raw counter values are
# useless for localization. The cure is in demo 02.
