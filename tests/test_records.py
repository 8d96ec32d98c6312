"""Per-message, per-event and per-trial records: immutable, comparable, picklable.

A record that validates itself or holds an outcome is a dataclass, slotted
when a run holds one per event or per trial; a plain value is a NamedTuple.
Either way a record keeps its field names and order, its
Name(field=value, ...) repr, equality and hashing by value, and survives a
pickle round trip, since Monte-Carlo trials may run in other processes.
"""

import dataclasses
import math
import pickle
import sys
import tracemalloc

import pytest

import cablewatch
from cablewatch.clock import ClockState
from cablewatch.localization import FLAG_OUT_OF_SPAN, RuptureEstimate
from cablewatch.live import LiveConfig
from cablewatch.montecarlo import StudyResult, TrialResult
from cablewatch.network import NetworkModel
from cablewatch.protocol import CompletedPeriod
from cablewatch.retiming import FLAG_ZERO_COUNTER, RetimedEvent
from cablewatch.scenario import NetworkConfig, Scenario, SpuriousEvent
from cablewatch.simulate import DetectionRow, EstimateRow, RunReport
from cablewatch.wave import CableGeometry, RuptureEvent, WaveArrival
from cablewatch.wire import ReportEvent, SensorReport, SyncFrame

ESTIMATE_VALUES = (14.0, 5000.0, (1, 2, 3), frozenset({FLAG_OUT_OF_SPAN}), 2000.0, 800.0)
ESTIMATE = RuptureEstimate(*ESTIMATE_VALUES)
REPORT_VALUES = (2, 3, 1_000_050, (ReportEvent(120, 950), ReportEvent(4000, 1200)))
REPORT = SensorReport(*REPORT_VALUES)

# (type, field names in order, values of one record)
RECORDS = [
    (SyncFrame, ("period_index", "period_T_us"), (3, 1_000_000)),
    (ReportEvent, ("timestamp_ticks", "amplitude_milli_g"), (120, 950)),
    (SensorReport, ("sensor_id", "period_index", "saved_counter_ticks", "events"),
     REPORT_VALUES),
    (WaveArrival, ("sensor_id", "arrival_ref_us", "max_amplitude_g"), (2, 1.5e6, 0.9)),
    (RetimedEvent,
     ("sensor_id", "period_index", "retimed_us", "raw_ticks", "amplitude_g", "flag"),
     (2, 3, 120.0, 120, 0.95, None)),
    (RuptureEstimate,
     ("x_est_m", "v_est_m_s", "triple", "flags", "dt_speed_us", "dt_position_us"),
     ESTIMATE_VALUES),
    (DetectionRow,
     ("sensor_id", "period_index", "source", "arrival_ref_us", "local_timestamp_ticks",
      "max_amplitude_g"),
     (2, -1, "spurious:0", 1.5e6, 500, 1.0)),
    (EstimateRow,
     ("period_index", "cluster_index", "n_sensors", "estimate", "first_retimed_us",
      "matched", "x_true_m", "abs_error_m"),
     (1, 0, 4, ESTIMATE, 500.0, "rupture:0", 14.001, 0.001)),
    (CompletedPeriod, ("period_index", "reports", "missing"), (3, (REPORT,), (1, 4))),
    (RuptureEvent, ("position_m", "time_ref_us", "peak_amplitude_g"), (14.0, 1.5e6, 0.9)),
    (SpuriousEvent, ("sensor_id", "time_ref_us", "amplitude_g"), (2, 1.5e6, 1.2)),
    (TrialResult, ("trial", "x_true_m", "x_est_m", "v_est_m_s", "abs_error_m", "flags"),
     (3, 14.0, 14.001, 5000.0, 0.001, frozenset({FLAG_OUT_OF_SPAN}))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def build(cls, names, values):
    return cls(**dict(zip(names, values)))


@pytest.mark.parametrize("cls, names, values", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_keep_their_names_and_order(self, cls, names, values):
        record = build(cls, names, values)
        assert [getattr(record, n) for n in names] == list(values)
        assert cls(*values) == record

    def test_attribute_assignment_raises(self, cls, names, values):
        record = build(cls, names, values)
        with pytest.raises(AttributeError):
            setattr(record, names[0], values[0])
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_names_every_field(self, cls, names, values):
        record = build(cls, names, values)
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
        assert repr(record) == f"{cls.__name__}({fields})"

    def test_equal_values_make_equal_records_with_equal_hashes(self, cls, names, values):
        a, b = build(cls, names, values), build(cls, names, values)
        assert a == b
        assert hash(a) == hash(b)

    def test_pickle_round_trip_returns_an_equal_record(self, cls, names, values):
        record = build(cls, names, values)
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls
        assert back == record


def test_defaults_and_properties_are_kept():
    assert SensorReport(1, 0, 10).events == ()
    assert RetimedEvent(1, 0, 5.0, 5, 1.0).valid
    assert not RetimedEvent(1, 0, math.nan, 5, 1.0, FLAG_ZERO_COUNTER).valid
    bare = RuptureEstimate(math.nan, math.nan, ())
    assert bare.flags == frozenset() and bare.clean
    assert math.isnan(bare.dt_speed_us) and math.isnan(bare.dt_position_us)
    assert not ESTIMATE.clean
    row = EstimateRow(1, 0, 4, ESTIMATE, 500.0)
    assert row.matched == "" and math.isnan(row.x_true_m) and math.isnan(row.abs_error_m)
    # a released period is complete exactly when no roster sensor is missing
    assert CompletedPeriod(3, (REPORT,), ()).complete
    assert not CompletedPeriod(3, (REPORT,), (1, 4)).complete


@pytest.mark.parametrize("cls", [
    Scenario, NetworkConfig, CableGeometry, RuptureEvent, SpuriousEvent, LiveConfig,
    NetworkModel, ClockState, TrialResult, StudyResult, RunReport,
])
def test_configuration_and_result_types_stay_dataclasses(cls):
    assert dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("record", [
    RuptureEvent(14.0, 1.5e6), SpuriousEvent(2, 1.5e6),
    TrialResult(3, 14.0, 14.001, 5000.0, 0.001, frozenset()),
], ids=type)
def test_per_event_and_per_trial_dataclasses_carry_no_instance_dict(record):
    # a run holds one of these per injected event or per trial
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        vars(record)


def test_a_spurious_event_takes_at_most_64_bytes():
    # a dict per instance took 88-152 B, by Python version; three slots take 56 B
    times = [float(t) for t in range(10_000)]  # made before tracing starts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = [SpuriousEvent(2, t) for t in times]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert (grown - sys.getsizeof(events)) / len(events) <= 64


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from cablewatch import *", namespace)
    assert all(namespace[name] is getattr(cablewatch, name) for name in cablewatch.__all__)
