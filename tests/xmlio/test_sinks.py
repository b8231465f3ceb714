"""The TokenSink protocol: incremental serialization and bridging sinks."""

import io

import pytest

from repro.xmlio.serialize import (
    IncrementalSerializer,
    StringSink,
    WriterSink,
    serialize_stream,
    serialize_tokens,
)
from repro.xmlio.tokens import EndTag, StartTag, Text

STREAMS = {
    "flat": [StartTag("a"), Text("x"), EndTag("a")],
    "bachelor": [StartTag("a"), EndTag("a")],
    "nested-bachelors": [
        StartTag("r"),
        StartTag("a"),
        EndTag("a"),
        StartTag("b"),
        StartTag("c"),
        EndTag("c"),
        EndTag("b"),
        EndTag("r"),
    ],
    "text-escaping": [StartTag("t"), Text("a<b&c>d"), EndTag("t")],
    "mixed": [
        StartTag("r"),
        Text("pre"),
        StartTag("e"),
        EndTag("e"),
        Text("post"),
        EndTag("r"),
    ],
    "empty": [],
}


@pytest.fixture(params=sorted(STREAMS), name="stream_name")
def _stream_name(request):
    return request.param


class TestIncrementalSerializer:
    def test_start_tag_is_withheld_until_decided(self):
        serializer = IncrementalSerializer()
        assert serializer.feed(StartTag("a")) == ""
        assert serializer.feed(EndTag("a")) == "<a/>"

    def test_start_tag_released_by_content(self):
        serializer = IncrementalSerializer()
        assert serializer.feed(StartTag("a")) == ""
        assert serializer.feed(Text("x")) == "<a>x"
        assert serializer.feed(EndTag("a")) == "</a>"

    def test_flush_releases_trailing_start(self):
        serializer = IncrementalSerializer()
        serializer.feed(StartTag("a"))
        assert serializer.flush() == "<a>"
        assert serializer.flush() == ""  # idempotent

    def test_fragments_join_to_buffered_serialization(self, stream_name):
        tokens = STREAMS[stream_name]
        assert "".join(serialize_stream(tokens)) == serialize_tokens(tokens)

    def test_indented_fragments_match_buffered(self, stream_name):
        tokens = STREAMS[stream_name]
        lazy = "".join(serialize_stream(tokens, indent="  "))
        assert lazy == serialize_tokens(tokens, indent="  ")

    def test_prefix_of_fragments_is_prefix_of_result(self):
        tokens = STREAMS["nested-bachelors"]
        fragments = list(serialize_stream(tokens))
        full = serialize_tokens(tokens)
        for cut in range(len(fragments)):
            assert full.startswith("".join(fragments[:cut]))


class TestStringSink:
    def test_counts_tokens(self):
        sink = StringSink()
        sink.write_all(STREAMS["flat"])
        assert sink.token_count == 3
        assert sink.getvalue() == "<a>x</a>"

    def test_bachelor_collapse(self):
        sink = StringSink()
        sink.write_all(STREAMS["bachelor"])
        assert sink.getvalue() == "<a/>"


class TestWriterSink:
    def test_matches_string_sink(self, stream_name):
        tokens = STREAMS[stream_name]
        target = io.StringIO()
        sink = WriterSink(target)
        sink.write_all(tokens)
        sink.close()
        assert target.getvalue() == serialize_tokens(tokens)
        assert sink.chars_written == len(target.getvalue())

    def test_writes_incrementally(self):
        """Decided fragments reach the writable before the stream ends."""
        target = io.StringIO()
        sink = WriterSink(target)
        sink.write(StartTag("r"))
        sink.write(Text("x"))
        assert target.getvalue() == "<r>x"  # already visible, no close needed

    def test_close_flushes_pending_start(self):
        target = io.StringIO()
        sink = WriterSink(target)
        sink.write(StartTag("r"))
        assert target.getvalue() == ""
        sink.close()
        assert target.getvalue() == "<r>"
