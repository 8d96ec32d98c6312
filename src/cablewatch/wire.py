"""Binary datagram formats for sync broadcasts and sensor reports.

Both messages use fixed little-endian layouts sized to fit a single UDP
datagram:

sync frame (12 bytes):
    magic "CASC" (4s) | period_index (u32) | period_T_us (u32)

sensor report (16 + 12 * event_count bytes):
    sensor_id (u16) | period_index (u32) | saved_counter (u64) |
    event_count (u16) | event_count x [timestamp_ticks (u64),
    amplitude_milli_g (u32)]

A report carries at most MAX_EVENTS_PER_REPORT events and is never
fragmented: the sending sensor keeps its earliest stamps and discards the
rest (protocol.SensorProtocol), so encoding a larger report is an error.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import NamedTuple

from .wave import is_integer, tuple_record

SYNC_MAGIC = b"CASC"
_SYNC = struct.Struct("<4sII")
_REPORT_HEADER = struct.Struct("<HIQH")
_REPORT_EVENT = struct.Struct("<QI")

SYNC_FRAME_BYTES = _SYNC.size            # 12
REPORT_HEADER_BYTES = _REPORT_HEADER.size  # 16
REPORT_EVENT_BYTES = _REPORT_EVENT.size    # 12
MAX_EVENTS_PER_REPORT = 1000
# the widest value of each field that a scenario sets or bounds
MAX_SENSOR_ID = (1 << 16) - 1  # sensor_id, u16
MAX_PERIOD_T_US = (1 << 32) - 1  # period_T_us, u32
MAX_SAVED_COUNTER_TICKS = (1 << 64) - 1  # saved_counter, u64
MAX_AMPLITUDE_MILLI_G = (1 << 32) - 1  # amplitude_milli_g, u32


def amplitude_milli_g(amplitude_g: float) -> int:
    """A report's amplitude field for an amplitude in g: whole milli-g."""
    return round(amplitude_g * 1000)


# amplitude_milli_g fits the u32 just when amplitude_g * 1000 is under this:
# round() takes such a product to at most MAX_AMPLITUDE_MILLI_G, and the tie
# to the even 2**32
AMPLITUDE_MILLI_G_LIMIT = MAX_AMPLITUDE_MILLI_G + 0.5


class WireFormatError(ValueError):
    """A datagram (or message about to become one) violates the wire layout."""


def _check_uint(name: str, value: int, bits: int) -> None:
    if not is_integer(value):
        raise WireFormatError(f"{name} must be an int, got {value!r}")
    if not 0 <= value < (1 << bits):
        raise WireFormatError(f"{name}={value} does not fit in u{bits}")


class SyncFrame(NamedTuple):
    """One synchronization broadcast: which period starts, and how long it is."""

    period_index: int
    period_T_us: int


class ReportEvent(NamedTuple):
    """One detection inside a report: local ticks since period start, milli-g."""

    timestamp_ticks: int
    amplitude_milli_g: int


class SensorReport(NamedTuple):
    """Per-period sensor summary: the saved counter plus detected events."""

    sensor_id: int
    period_index: int
    saved_counter_ticks: int
    events: tuple[ReportEvent, ...] = ()


_report_event = tuple_record(ReportEvent)
_sensor_report = tuple_record(SensorReport)
_sync_frame = tuple_record(SyncFrame)


def _check_sync_frame(frame: SyncFrame) -> None:
    """Raise WireFormatError naming the first field that the layout refuses."""
    _check_uint("period_index", frame.period_index, 32)
    _check_uint("period_T_us", frame.period_T_us, 32)


def encode_sync_frame(frame: SyncFrame) -> bytes:
    period_index, period_t_us = frame
    # struct refuses a plain int out of range but packs a bool or another
    # int-like as a number, so those get the per-field check first
    if not (type(period_index) is type(period_t_us) is int):
        _check_sync_frame(frame)
    try:
        return _SYNC.pack(SYNC_MAGIC, period_index, period_t_us)
    except struct.error:
        _check_sync_frame(frame)  # names the plain int out of range
        raise


def decode_sync_frame(buf: bytes) -> SyncFrame:
    if len(buf) < SYNC_FRAME_BYTES:
        raise WireFormatError(
            f"sync frame truncated: {len(buf)} bytes, need {SYNC_FRAME_BYTES}"
        )
    if len(buf) > SYNC_FRAME_BYTES:
        raise WireFormatError(
            f"sync frame has {len(buf) - SYNC_FRAME_BYTES} trailing bytes"
        )
    magic, period_index, period_t_us = _SYNC.unpack(buf)
    if magic != SYNC_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}")
    return _sync_frame((period_index, period_t_us))


def _check_report(report: SensorReport) -> None:
    """Raise WireFormatError naming the first field that the layout refuses."""
    _check_uint("sensor_id", report.sensor_id, 16)
    _check_uint("period_index", report.period_index, 32)
    _check_uint("saved_counter_ticks", report.saved_counter_ticks, 64)
    for ev in report.events:
        _check_uint("timestamp_ticks", ev.timestamp_ticks, 64)
        _check_uint("amplitude_milli_g", ev.amplitude_milli_g, 32)


def encode_sensor_report(report: SensorReport) -> bytes:
    sensor_id, period_index, saved, events = report
    n = len(events)
    if n > MAX_EVENTS_PER_REPORT:
        raise WireFormatError(
            f"{n} events exceed the {MAX_EVENTS_PER_REPORT}-event datagram limit"
        )
    # one pack for the whole datagram, the header then n events; struct
    # refuses a plain int out of range but packs a bool or another int-like
    # as a number, so those get the per-field check first
    if n:
        values = (sensor_id, period_index, saved, n, *chain.from_iterable(events))
        plain = set(map(type, values)) <= {int}
    else:
        values = (sensor_id, period_index, saved, 0)
        plain = type(sensor_id) is type(period_index) is type(saved) is int
    if not plain:
        _check_report(report)
    try:
        return struct.pack("<HIQH" + n * "QI", *values)
    except struct.error:
        _check_report(report)  # names the plain int out of range
        raise


def decode_sensor_report(buf: bytes) -> SensorReport:
    if len(buf) < REPORT_HEADER_BYTES:
        raise WireFormatError(
            f"report truncated: {len(buf)} bytes, header needs {REPORT_HEADER_BYTES}"
        )
    sensor_id, period_index, saved, count = _REPORT_HEADER.unpack_from(buf, 0)
    if count > MAX_EVENTS_PER_REPORT:
        raise WireFormatError(
            f"event_count {count} exceeds the {MAX_EVENTS_PER_REPORT}-event limit"
        )
    expected = REPORT_HEADER_BYTES + count * REPORT_EVENT_BYTES
    if len(buf) != expected:
        raise WireFormatError(
            f"report length {len(buf)} does not match event_count {count} "
            f"(expected {expected})"
        )
    events = (
        tuple(map(_report_event, _REPORT_EVENT.iter_unpack(buf[REPORT_HEADER_BYTES:])))
        if count else ()
    )
    return _sensor_report((sensor_id, period_index, saved, events))
