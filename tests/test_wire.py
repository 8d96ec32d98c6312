"""Datagram codec layout, round-trips, and malformed-input rejection."""

import pytest
from hypothesis import given, strategies as st

from cablewatch.wire import (
    MAX_EVENTS_PER_REPORT,
    REPORT_EVENT_BYTES,
    REPORT_HEADER_BYTES,
    SYNC_FRAME_BYTES,
    ReportEvent,
    SensorReport,
    SyncFrame,
    WireFormatError,
    decode_sensor_report,
    decode_sync_frame,
    encode_sensor_report,
    encode_sync_frame,
)


class TestSyncFrameCodec:
    def test_layout_golden_bytes(self):
        buf = encode_sync_frame(SyncFrame(period_index=3, period_T_us=1_000_000))
        assert buf == b"CASC" + (3).to_bytes(4, "little") + (1_000_000).to_bytes(4, "little")
        assert len(buf) == SYNC_FRAME_BYTES == 12

    def test_round_trip(self):
        f = SyncFrame(period_index=0, period_T_us=1_000_000)
        assert decode_sync_frame(encode_sync_frame(f)) == f

    def test_truncated_rejected(self):
        buf = encode_sync_frame(SyncFrame(1, 1_000_000))
        with pytest.raises(WireFormatError, match="truncated"):
            decode_sync_frame(buf[:11])

    def test_trailing_bytes_rejected(self):
        buf = encode_sync_frame(SyncFrame(1, 1_000_000))
        with pytest.raises(WireFormatError, match="trailing"):
            decode_sync_frame(buf + b"\x00")

    def test_bad_magic_rejected(self):
        buf = b"XXXX" + (1).to_bytes(4, "little") + (1_000_000).to_bytes(4, "little")
        with pytest.raises(WireFormatError, match="magic"):
            decode_sync_frame(buf)

    def test_out_of_range_fields_refused_at_encode(self):
        with pytest.raises(WireFormatError):
            encode_sync_frame(SyncFrame(period_index=-1, period_T_us=1_000_000))
        with pytest.raises(WireFormatError):
            encode_sync_frame(SyncFrame(period_index=0, period_T_us=1 << 32))

    @given(idx=st.integers(0, 2**32 - 1), t=st.integers(0, 2**32 - 1))
    def test_round_trip_property(self, idx, t):
        f = SyncFrame(period_index=idx, period_T_us=t)
        assert decode_sync_frame(encode_sync_frame(f)) == f


events_strategy = st.lists(
    st.builds(
        ReportEvent,
        timestamp_ticks=st.integers(0, 2**64 - 1),
        amplitude_milli_g=st.integers(0, 2**32 - 1),
    ),
    max_size=20,
).map(tuple)

reports_strategy = st.builds(
    SensorReport,
    sensor_id=st.integers(0, 2**16 - 1),
    period_index=st.integers(0, 2**32 - 1),
    saved_counter_ticks=st.integers(0, 2**64 - 1),
    events=events_strategy,
)


class TestSensorReportCodec:
    def test_empty_report_is_header_only(self):
        buf = encode_sensor_report(SensorReport(2, 0, 1_000_050))
        assert len(buf) == REPORT_HEADER_BYTES == 16
        assert decode_sensor_report(buf) == SensorReport(2, 0, 1_000_050, ())

    def test_two_event_report_length_and_round_trip(self):
        r = SensorReport(
            sensor_id=7,
            period_index=5,
            saved_counter_ticks=999_950,
            events=(ReportEvent(2800, 1000), ReportEvent(500_025, 1200)),
        )
        buf = encode_sensor_report(r)
        assert len(buf) == REPORT_HEADER_BYTES + 2 * REPORT_EVENT_BYTES == 40
        assert decode_sensor_report(buf) == r

    def test_layout_golden_bytes(self):
        buf = encode_sensor_report(SensorReport(
            7, 5, 999_950, (ReportEvent(2800, 1000), ReportEvent(2**64 - 1, 2**32 - 1)),
        ))
        assert buf == b"".join(v.to_bytes(n, "little") for v, n in (
            (7, 2), (5, 4), (999_950, 8), (2, 2),
            (2800, 8), (1000, 4), (2**64 - 1, 8), (2**32 - 1, 4),
        ))

    def test_truncated_header_rejected(self):
        buf = encode_sensor_report(SensorReport(1, 0, 10))
        with pytest.raises(WireFormatError, match="truncated"):
            decode_sensor_report(buf[:15])

    def test_count_length_mismatch_rejected(self):
        r = SensorReport(1, 0, 10, (ReportEvent(4, 900), ReportEvent(8, 900)))
        buf = bytearray(encode_sensor_report(r))
        buf[14:16] = (3).to_bytes(2, "little")  # header now claims 3 events
        with pytest.raises(WireFormatError, match="event_count"):
            decode_sensor_report(bytes(buf))

    def test_truncated_event_rejected(self):
        r = SensorReport(1, 0, 10, (ReportEvent(4, 900),))
        buf = encode_sensor_report(r)
        with pytest.raises(WireFormatError):
            decode_sensor_report(buf[:-1])

    def test_oversize_refused_at_encode(self):
        events = tuple(ReportEvent(i, 800) for i in range(MAX_EVENTS_PER_REPORT + 1))
        with pytest.raises(WireFormatError, match="event"):
            encode_sensor_report(SensorReport(1, 0, 10, events))

    def test_max_size_report_accepted(self):
        events = tuple(ReportEvent(i, 800) for i in range(MAX_EVENTS_PER_REPORT))
        r = SensorReport(1, 0, 10, events)
        assert decode_sensor_report(encode_sensor_report(r)) == r

    def test_oversize_count_rejected_at_decode(self):
        buf = bytearray(16 + 12 * (MAX_EVENTS_PER_REPORT + 1))
        buf[0:16] = (
            (1).to_bytes(2, "little")
            + (0).to_bytes(4, "little")
            + (10).to_bytes(8, "little")
            + (MAX_EVENTS_PER_REPORT + 1).to_bytes(2, "little")
        )
        with pytest.raises(WireFormatError, match="limit"):
            decode_sensor_report(bytes(buf))

    def test_out_of_range_fields_refused_at_encode(self):
        with pytest.raises(WireFormatError):
            encode_sensor_report(SensorReport(1 << 16, 0, 10))
        with pytest.raises(WireFormatError):
            encode_sensor_report(SensorReport(1, 0, -5))
        with pytest.raises(WireFormatError):
            encode_sensor_report(SensorReport(1, 0, 10, (ReportEvent(0, 1 << 32),)))

    @pytest.mark.parametrize("field, bits", [
        ("sensor_id", 16), ("period_index", 32), ("saved_counter_ticks", 64),
        ("timestamp_ticks", 64), ("amplitude_milli_g", 32),
    ])
    @pytest.mark.parametrize("kind", ["negative", "too wide", "float", "bool", "str"])
    def test_every_refused_field_is_named(self, field, bits, kind):
        bad = {"negative": -1, "too wide": 1 << bits, "float": 3.0, "bool": True,
               "str": "3"}[kind]
        header = {"sensor_id": 1, "period_index": 0, "saved_counter_ticks": 10}
        event = {"timestamp_ticks": 4, "amplitude_milli_g": 900}
        for values in (header, event):
            if field in values:
                values[field] = bad
        events = (ReportEvent(8, 800), ReportEvent(**event), ReportEvent(12, 700))
        with pytest.raises(WireFormatError, match=rf"^{field}( must be an int|=.* does not fit)"):
            encode_sensor_report(SensorReport(**header, events=events))

    @given(report=reports_strategy)
    def test_round_trip_property(self, report):
        assert decode_sensor_report(encode_sensor_report(report)) == report
