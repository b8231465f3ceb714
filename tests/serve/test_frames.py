"""Unit level: frame grammar, error vocabulary, histogram, server stats."""

from __future__ import annotations

import json

import pytest

from repro.serve.protocol import (
    CLIENT_OPS,
    E_BAD_FIELD,
    E_BAD_FRAME,
    E_UNKNOWN_OP,
    ERROR_CODES,
    ProtocolError,
    decode_client_frame,
    encode_frame,
)
from repro.serve.server import normalize_query_key
from repro.serve.stats import LatencyHistogram, ServerStats


class TestEncodeFrame:
    def test_one_line_of_compact_json(self):
        data = encode_frame({"type": "result", "fragment": "<a>x</a>"})
        assert data.endswith(b"\n")
        assert data.count(b"\n") == 1
        assert json.loads(data) == {"type": "result", "fragment": "<a>x</a>"}

    def test_newlines_in_payload_stay_escaped(self):
        """Line framing survives any fragment content: JSON escapes \\n."""
        data = encode_frame({"fragment": "line1\nline2"})
        assert data.count(b"\n") == 1  # only the terminator
        assert json.loads(data)["fragment"] == "line1\nline2"

    def test_non_ascii_payload_is_ascii_on_the_wire(self):
        data = encode_frame({"fragment": "privée"})
        assert max(data) < 0x80
        assert json.loads(data)["fragment"] == "privée"


class TestDecodeClientFrame:
    def test_valid_ops_round_trip(self):
        for op, required in CLIENT_OPS.items():
            frame = {"op": op, **{field: "x" for field in required}}
            assert decode_client_frame(encode_frame(frame)) == frame

    @pytest.mark.parametrize(
        "line,code",
        [
            (b"not json\n", E_BAD_FRAME),
            (b"[1,2]\n", E_BAD_FRAME),
            (b'"just a string"\n', E_BAD_FRAME),
            (b"{}\n", E_BAD_FIELD),
            (b'{"op": 7}\n', E_BAD_FIELD),
            (b'{"op": "warp"}\n', E_UNKNOWN_OP),
            (b'{"op": "register", "id": "q"}\n', E_BAD_FIELD),
            (b'{"op": "eval", "id": "q", "doc": 42}\n', E_BAD_FIELD),
        ],
    )
    def test_violations_raise_nonfatal_protocol_errors(self, line, code):
        with pytest.raises(ProtocolError) as excinfo:
            decode_client_frame(line)
        assert excinfo.value.code == code
        assert not excinfo.value.fatal  # line framing intact -> recoverable

    def test_error_frame_shape(self):
        error = ProtocolError(E_BAD_FRAME, "boom", fatal=True)
        frame = error.frame()
        assert frame == {
            "type": "error",
            "code": E_BAD_FRAME,
            "message": "boom",
            "fatal": True,
        }
        assert frame["code"] in ERROR_CODES


class TestNormalizeQueryKey:
    def test_layout_insensitive(self):
        a = "<r>{ for $x in /a/b\n  return $x }</r>"
        b = "<r>{ for $x in /a/b return $x }</r>"
        assert normalize_query_key(a) == normalize_query_key(b)

    def test_semantics_sensitive(self):
        assert normalize_query_key("<r>{/a/b}</r>") != normalize_query_key(
            "<r>{/a/c}</r>"
        )


class TestLatencyHistogram:
    def test_empty_histogram_answers_zero(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(0.99) == 0.0
        assert histogram.mean_ms == 0.0

    def test_percentiles_are_bucket_upper_bounds(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.observe_ms(0.9)  # -> the 1.0 ms bucket
        histogram.observe_ms(400.0)  # -> the 500 ms bucket
        assert histogram.percentile(0.50) == 1.0
        assert histogram.percentile(1.0) == 500.0
        assert histogram.count == 100

    def test_overflow_bucket_reports_the_observed_max(self):
        histogram = LatencyHistogram()
        histogram.observe_ms(123_456.0)
        assert histogram.percentile(0.99) == 123_456.0
        assert histogram.max_ms == 123_456.0

    def test_fraction_validation(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_snapshot_fields(self):
        histogram = LatencyHistogram()
        histogram.observe_ms(3.0)
        snapshot = histogram.snapshot()
        assert set(snapshot) == {"count", "mean_ms", "p50_ms", "p99_ms", "max_ms"}
        assert snapshot["count"] == 1.0
        assert snapshot["mean_ms"] == 3.0


class TestServerStats:
    def test_connection_peak_tracking(self):
        stats = ServerStats()
        for _ in range(3):
            stats.connection_opened()
        stats.connection_closed()
        stats.connection_opened()
        assert stats.connections_active == 3
        assert stats.connections_total == 4
        assert stats.connections_peak == 3

    def test_snapshot_is_json_serializable_and_complete(self):
        stats = ServerStats()
        stats.frame_in(10)
        stats.frame_out(20)
        stats.pass_finished(ok=True, inline=True, seconds=0.002)
        stats.pass_finished(ok=False, inline=False, seconds=0.3)
        stats.query_registered(cached=False)
        stats.query_registered(cached=True)
        stats.observe_ttfb(0.004)
        snapshot = json.loads(json.dumps(stats.snapshot()))
        assert snapshot["frames"] == {"in": 1, "out": 1}
        assert snapshot["bytes"] == {"in": 10, "out": 20}
        assert snapshot["docs"] == {"ok": 1, "failed": 1}
        assert snapshot["queries"] == {"compiled": 1, "cache_hits": 1}
        assert snapshot["ttfb"]["count"] == 1.0
        assert snapshot["passes"] == {"inline": 1, "threaded": 1}
        assert snapshot["op_ms"]["count"] == 2.0
        assert snapshot["op_ms"]["max_ms"] == 300.0

    def test_summary_mentions_the_load_bearing_numbers(self):
        stats = ServerStats()
        stats.connection_opened()
        stats.pass_finished(ok=True, inline=True, seconds=0.001)
        summary = stats.summary()
        assert "1 docs served" in summary
        assert "p99" in summary
