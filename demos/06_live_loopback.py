"""
Live mode: real datagrams, modeled time
=======================================

The protocol also runs over actual UDP sockets. A supervisor sends encoded
sync frames; four sensor agents decode them, stamp modeled wave arrivals on
their drifting counters, and send back encoded report datagrams. No thread
is started: one event loop serves the supervisor's socket and the agents'
sockets, one datagram at a time, and serves every agent after each frame.
Timestamps stay on the modeled timeline (real network latency never
touches them), so a live run and a simulated run of the same scenario
agree to the last bit while exercising the real wire format end to end:
run_live returns the same RunReport as run, down to the summary, and
export_csv writes the same bytes for either.

The same agents and supervisor are available as separate processes via
`cablewatch agent` and `cablewatch supervise`.
"""

from cablewatch import (
    CableGeometry,
    LiveConfig,
    RuptureEvent,
    Scenario,
    run,
    run_live,
)

scenario = Scenario(
    geometry=CableGeometry((1, 2, 3, 4), (0.0, 10.0, 20.0, 30.0)),
    drift_ppm={1: +37.0, 2: -12.0, 3: +50.0, 4: -50.0},
    ruptures=(RuptureEvent(14.0, 1_500_000.0),),
    seed=20,
    run_duration_us=4_000_000.0,
)

# Port 0 everywhere: the OS assigns free loopback ports, so this demo
# cannot collide with anything (deployments use 47801/47802). The live run
# sends the frames the simulated run sends: five, at 0 to 4 s.
live = run_live(LiveConfig(
    scenario=scenario,
    periods=scenario.sync_frames(),
    report_port=0,
    sync_ports={sid: 0 for sid in scenario.geometry.sensor_ids},
))
print("live run summary:")
for k, v in live.summary.items():
    print(f"  {k}: {v}")
for est in live.estimates:
    print(f"  live estimate:      x = {est.estimate.x_est_m:.6f} m ({est.matched})")

sim = run(scenario)
for est in sim.estimates:
    print(f"  simulated estimate: x = {est.estimate.x_est_m:.6f} m ({est.matched})")

print(f"live report equals simulated report: {live == sim}")
