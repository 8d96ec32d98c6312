"""Rupture detection and localization over drift-synchronized sensor networks.

A cable under acoustic-emission surveillance carries sensors with cheap,
drifting clocks. A supervisor broadcasts a sync frame once per period; each
sensor saves and resets its counter on receipt and reports the events it
stamped. Dividing an event stamp by the sensor's own measured period length
cancels constant clock drift (retiming), and differences of retimed arrival
times localize the rupture along the cable.

Layers, bottom up:

    clock         drifting counter model
    wave          cable geometry, rupture wavefronts, threshold detection
    wire          binary sync-frame and report codecs
    protocol      sensor and supervisor state machines
    retiming      ratiometric timestamp mapping, clustering
    localization  sensor-triple selection, speed and position estimates
    network       deterministic link timing, derived from a validated scenario
    scenario      declarative run descriptions and their checks, YAML loading
    simulate      sampling-grid stamps, simulated runs, the shared run report, scoring,
                  CSV export
    montecarlo    randomized accuracy studies
    live          the same protocol over real UDP datagrams
"""

from .clock import MAX_DRIFT_PPM, ClockState
from .live import LiveConfig, load_live_config, run_live
from .localization import (
    FLAG_DEGENERATE_DT,
    FLAG_INSUFFICIENT_SENSORS,
    FLAG_OUT_OF_SPAN,
    RuptureEstimate,
    localize,
    localize_cluster,
)
from .montecarlo import StudyResult, TrialResult, run_study, run_trial
from .network import NetworkModel
from .protocol import (
    CompletedPeriod,
    SensorProtocol,
    SupervisorProtocol,
)
from .retiming import (
    RetimedEvent,
    RetimeError,
    align_period,
    cluster_events,
    retime,
)
from .scenario import (
    NetworkConfig,
    Scenario,
    ScenarioError,
    SpuriousEvent,
    load_scenario,
)
from .simulate import DetectionRow, EstimateRow, RunReport, export_csv, run, score
from .wave import (
    CableGeometry,
    RuptureEvent,
    WaveArrival,
    simulate_rupture,
)
from .wire import (
    MAX_EVENTS_PER_REPORT,
    ReportEvent,
    SensorReport,
    SyncFrame,
    WireFormatError,
    decode_sensor_report,
    decode_sync_frame,
    encode_sensor_report,
    encode_sync_frame,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DRIFT_PPM",
    "ClockState",
    "CableGeometry",
    "RuptureEvent",
    "WaveArrival",
    "simulate_rupture",
    "SyncFrame",
    "ReportEvent",
    "SensorReport",
    "WireFormatError",
    "MAX_EVENTS_PER_REPORT",
    "encode_sync_frame",
    "decode_sync_frame",
    "encode_sensor_report",
    "decode_sensor_report",
    "SensorProtocol",
    "SupervisorProtocol",
    "CompletedPeriod",
    "RetimeError",
    "RetimedEvent",
    "retime",
    "align_period",
    "cluster_events",
    "FLAG_OUT_OF_SPAN",
    "FLAG_DEGENERATE_DT",
    "FLAG_INSUFFICIENT_SENSORS",
    "RuptureEstimate",
    "localize",
    "localize_cluster",
    "NetworkModel",
    "NetworkConfig",
    "Scenario",
    "ScenarioError",
    "SpuriousEvent",
    "load_scenario",
    "DetectionRow",
    "EstimateRow",
    "RunReport",
    "run",
    "score",
    "export_csv",
    "TrialResult",
    "StudyResult",
    "run_trial",
    "run_study",
    "LiveConfig",
    "run_live",
    "load_live_config",
    "__version__",
]
