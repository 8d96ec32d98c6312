"""Hypothesis strategies shared by the tests: the scenario generator of
ROADMAP item 13, grown one piece at a time. Every golden scenario and
workload is spaced uniformly at 10 m, so these draw what they do not."""

from hypothesis import strategies as st

from cablewatch.wave import CableGeometry


@st.composite
def uneven_geometries(draw, min_sensors=4, max_sensors=10, min_gap_m=0.5, max_gap_m=60.0):
    """Cables of min_sensors to max_sensors sensors, ids 1 upwards from
    position 0, each gap to the next sensor drawn from [min_gap_m, max_gap_m]."""
    n = draw(st.integers(min_value=min_sensors, max_value=max_sensors))
    gaps = draw(st.lists(st.floats(min_value=min_gap_m, max_value=max_gap_m),
                         min_size=n - 1, max_size=n - 1))
    positions = [0.0]
    for gap in gaps:
        positions.append(positions[-1] + gap)
    return CableGeometry(tuple(range(1, n + 1)), tuple(positions))
