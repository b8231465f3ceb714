"""QuerySession: compile-once/run-many isolation and incremental output."""

import io

import pytest

import repro.engine.session as session_module
from repro.engine import GCXEngine, QuerySession
from repro.xmlio import StringSink, WriterSink, tokenize
from repro.xmlio.tokens import StartTag

from tests.helpers import CORPUS, INTRO_QUERY

DOC_A = "<bib><book><title>A1</title></book><book><title>A2</title></book></bib>"
DOC_B = "<bib><cd><price>9</price></cd><book><title>B</title></book></bib>"


class CountingTokens:
    """A token source that records how much of the input was consumed."""

    def __init__(self, tokens):
        self._tokens = iter(tokens)
        self.consumed = 0

    def __iter__(self):
        return self

    def __next__(self):
        token = next(self._tokens)
        self.consumed += 1
        return token


class TestCompileOnce:
    def test_static_analysis_runs_exactly_once(self, monkeypatch):
        calls = []
        real = session_module.compile_query

        def counting(query, options=None, *, schema=None):
            calls.append(query)
            return real(query, options, schema=schema)

        monkeypatch.setattr(session_module, "compile_query", counting)
        session = QuerySession(INTRO_QUERY)
        for document in (DOC_A, DOC_B, DOC_A):
            session.run(document)
        assert len(calls) == 1

    def test_compiled_artifacts_stable_across_runs(self):
        session = QuerySession(INTRO_QUERY)
        compiled = session.compiled
        session.run(DOC_A)
        session.run(DOC_B)
        assert session.compiled is compiled

    def test_session_adopts_precompiled_query(self):
        engine = GCXEngine()
        compiled = engine.compile(INTRO_QUERY)
        session = engine.session(compiled)
        assert session.compiled is compiled
        assert "<title>A1</title>" in session.run(DOC_A).output


class TestRunManyIsolation:
    def test_two_documents_match_two_fresh_engines(self):
        session = QuerySession(INTRO_QUERY)
        session_outputs = [session.run(doc).output for doc in (DOC_A, DOC_B)]
        fresh_outputs = [
            GCXEngine().run(INTRO_QUERY, doc).output for doc in (DOC_A, DOC_B)
        ]
        assert session_outputs == fresh_outputs

    def test_no_state_leaks_between_runs(self):
        """Re-running the first document after others gives identical output
        and identical buffer statistics — nothing carried over."""
        session = QuerySession(INTRO_QUERY)
        first = session.run(DOC_A)
        session.run(DOC_B)
        again = session.run(DOC_A)
        assert again.output == first.output
        assert again.stats.hwm_nodes == first.stats.hwm_nodes
        assert again.stats.roles_assigned == first.stats.roles_assigned
        assert again.stats.tokens_read == first.stats.tokens_read

    @pytest.mark.parametrize(
        "name,query,document",
        [(name, query, doc) for name, query, doc in CORPUS],
        ids=[name for name, _, _ in CORPUS],
    )
    def test_corpus_session_equals_fresh_engine(self, name, query, document):
        session = QuerySession(query)
        expected = GCXEngine().run(query, document).output
        assert session.run(document).output == expected
        assert session.run(document).output == expected  # and again

    def test_runs_completed_counts(self):
        session = QuerySession(INTRO_QUERY)
        assert session.runs_completed == 0
        session.run(DOC_A)
        session.run(DOC_B)
        assert session.runs_completed == 2

    def test_buffer_recycled_with_warm_tag_table(self):
        session = QuerySession(INTRO_QUERY)
        session.run(DOC_A)
        (spare,) = session._idle_buffers
        assert spare.tag_id("bib") == 0  # interned during the first run
        session.run(DOC_A)
        assert session._idle_buffers == [spare]  # same buffer, reset and reused

    def test_interleaved_streaming_runs_are_isolated(self):
        """Two in-flight streaming runs on one session never share state."""
        session = QuerySession(INTRO_QUERY)
        stream_a = session.run_streaming(DOC_A)
        stream_b = session.run_streaming(DOC_B)
        sink_a, sink_b = StringSink(), StringSink()
        done_a = done_b = False
        while not (done_a and done_b):  # alternate, token by token
            try:
                sink_a.write(next(stream_a))
            except StopIteration:
                done_a = True
            try:
                sink_b.write(next(stream_b))
            except StopIteration:
                done_b = True
        assert sink_a.getvalue() == GCXEngine().run(INTRO_QUERY, DOC_A).output
        assert sink_b.getvalue() == GCXEngine().run(INTRO_QUERY, DOC_B).output
        assert session.runs_completed == 2


class TestStreamingOutput:
    def test_first_token_before_input_exhausted(self):
        """On a query whose first match occurs early, output starts while
        most of the input is still unread (instrumented token source)."""
        body = "".join(
            f"<book><title>T{i}</title></book>" for i in range(200)
        )
        document = f"<bib>{body}</bib>"
        total_tokens = sum(1 for _ in tokenize(document))
        source = CountingTokens(tokenize(document))

        session = QuerySession(
            "<out>{for $b in /bib/book return $b/title}</out>"
        )
        stream = session.run_streaming(source)
        first = next(stream)  # <out> wrapper
        second = next(stream)  # first <title> from the document
        assert first == StartTag("out")
        assert second == StartTag("title")
        assert source.consumed < total_tokens / 10
        assert not session._idle_buffers  # run still in flight
        rest = list(stream)
        assert source.consumed == total_tokens
        assert stream.result is not None

    def test_tokens_consumed_survives_the_release(self):
        """The released buffer is reset and recycled into the next run; a
        finished run still reports its own input count."""
        session = QuerySession(INTRO_QUERY)
        stream = session.run_streaming(DOC_A)
        list(stream)
        consumed = stream.tokens_consumed
        assert consumed == stream.result.stats.tokens_read > 0
        session.run(DOC_B)  # the same buffer, recycled
        assert stream.tokens_consumed == consumed

    def test_nothing_is_read_before_first_next(self):
        source = CountingTokens(tokenize(DOC_A))
        stream = QuerySession(INTRO_QUERY).run_streaming(source)
        assert source.consumed == 0
        next(stream)

    def test_stream_tokens_join_to_buffered_output(self):
        session = QuerySession(INTRO_QUERY)
        streamed = "".join(session.run_streaming(DOC_A).serialized())
        assert streamed == session.run(DOC_A).output

    def test_result_available_only_after_exhaustion(self):
        session = QuerySession(INTRO_QUERY)
        stream = session.run_streaming(DOC_A)
        assert stream.result is None
        next(stream)
        assert stream.result is None
        list(stream)
        result = stream.result
        assert result is not None
        assert result.exhausted_input
        assert result.stats.role_accounting_balanced()
        assert result.first_output_seconds is not None
        assert result.first_output_seconds <= result.elapsed_seconds

    def test_streaming_safety_checks_still_run(self):
        """Strict mode's Section 3 accounting applies to streaming runs."""
        session = QuerySession(INTRO_QUERY)
        stream = session.run_streaming(DOC_A)
        list(stream)
        assert stream.result.stats.live_role_instances == 0

    def test_abandoned_stream_discards_buffer(self):
        session = QuerySession(INTRO_QUERY)
        stream = session.run_streaming(DOC_A)
        next(stream)
        stream.close()
        assert stream.result is None
        assert session.runs_completed == 0
        # The session still works afterwards with a fresh buffer.
        assert session.run(DOC_A).output == GCXEngine().run(
            INTRO_QUERY, DOC_A
        ).output


class TestSinks:
    def test_run_with_writer_sink_streams_and_leaves_output_empty(self):
        target = io.StringIO()
        session = QuerySession(INTRO_QUERY)
        result = session.run(DOC_A, sink=WriterSink(target))
        assert result.output == ""
        assert target.getvalue() == GCXEngine().run(INTRO_QUERY, DOC_A).output

    def test_engine_run_accepts_sink(self):
        target = io.StringIO()
        result = GCXEngine().run(INTRO_QUERY, DOC_A, sink=WriterSink(target))
        assert result.output == ""
        assert "<title>A1</title>" in target.getvalue()

    def test_caller_string_sink_does_not_leak_into_output(self):
        """RunResult.output reflects one run even when a caller reuses a
        StringSink across runs (the accumulated text stays the caller's)."""
        shared = StringSink()
        session = QuerySession(INTRO_QUERY)
        first = session.run(DOC_A, sink=shared)
        second = session.run(DOC_B, sink=shared)
        assert first.output == "" and second.output == ""
        expected_a = GCXEngine().run(INTRO_QUERY, DOC_A).output
        expected_b = GCXEngine().run(INTRO_QUERY, DOC_B).output
        assert shared.getvalue() == expected_a + expected_b

    def test_caller_provided_sink_is_not_closed(self):
        """A reusable sink survives several runs; run() only closes sinks
        it created itself."""

        class ClosingCounter(WriterSink):
            closes = 0

            def close(self):
                self.closes += 1
                super().close()

        session = QuerySession(INTRO_QUERY)
        target = io.StringIO()
        reused = ClosingCounter(target)
        session.run(DOC_A, sink=reused)
        session.run(DOC_B, sink=reused)
        assert reused.closes == 0
        expected_a = GCXEngine().run(INTRO_QUERY, DOC_A).output
        expected_b = GCXEngine().run(INTRO_QUERY, DOC_B).output
        assert target.getvalue() == expected_a + expected_b

    def test_idle_session_spare_buffer_is_empty(self):
        """The recycled buffer is reset at release, so an idle session
        holds no document subtree in memory."""
        session = QuerySession(INTRO_QUERY)
        session.run(DOC_A)
        (spare,) = session._idle_buffers
        assert spare.is_empty()

    def test_latency_clock_starts_at_first_next(self):
        import time as _time

        session = QuerySession(INTRO_QUERY)
        stream = session.run_streaming(DOC_A)
        _time.sleep(0.05)  # consumer think-time before iterating
        list(stream)
        assert stream.result.first_output_seconds < 0.05


class TestEngineFrontDoor:
    def test_engine_run_streaming(self):
        stream = GCXEngine().run_streaming(INTRO_QUERY, DOC_A)
        text = "".join(stream.serialized())
        assert text == GCXEngine().run(INTRO_QUERY, DOC_A).output
        assert stream.result is not None

    def test_run_result_first_output_seconds_populated(self):
        result = GCXEngine().run(INTRO_QUERY, DOC_A)
        assert result.first_output_seconds is not None

    def test_empty_match_still_emits_wrapper(self):
        stream = GCXEngine().run_streaming(
            "<out>{for $z in /r/zzz return $z}</out>", "<r><a/></r>"
        )
        assert "".join(stream.serialized()) == "<out/>"
        assert stream.result.first_output_seconds is not None


class TestEndOfStream:
    """``RunResult.exhausted_input`` is read from the run's buffer, the one
    record of end of stream, on every route a run can take."""

    DTD = (
        "<!ELEMENT r (people, junk)>\n"
        "<!ELEMENT people (p*)>\n"
        "<!ELEMENT p (id)>\n"
        "<!ELEMENT id (#PCDATA)>\n"
        "<!ELEMENT junk (j*)>\n"
        "<!ELEMENT j EMPTY>\n"
    )
    DOC = "<r><people><p><id>x</id></p></people><junk>" + "<j/>" * 50 + "</junk></r>"
    #: Must read to the end: another <people> could follow.
    FULL = "<out>{for $p in /r/people/p return $p}</out>"
    #: Decided by the first <people>: stops reading there.
    EARLY = "<out>{if (exists $root/r/people) then <yes/> else <no/>}</out>"

    def solo(self, query, schema=None):
        session = QuerySession(query, schema=schema)
        assert session.compiled.certified_zero_buffer == (schema is not None)
        return session.run(self.DOC)

    def member(self, name):
        from repro.engine import MultiQuerySession

        pass_ = MultiQuerySession({"full": self.FULL, "early": self.EARLY})
        return pass_.run(self.DOC)[name]

    @pytest.mark.parametrize(
        "route, read_to_end",
        [
            ("solo-buffered", True),
            ("direct", True),
            ("shared-member", True),
            ("solo-early", False),
            ("early-retired", False),
        ],
    )
    def test_exhausted_input_agrees_across_routes(self, route, read_to_end):
        from repro.analysis.schema import Schema

        result = {
            "solo-buffered": lambda: self.solo(self.FULL),
            "direct": lambda: self.solo(self.FULL, Schema.from_dtd_text(self.DTD)),
            "shared-member": lambda: self.member("full"),
            "solo-early": lambda: self.solo(self.EARLY),
            "early-retired": lambda: self.member("early"),
        }[route]()
        assert result.exhausted_input is read_to_end
        expected = self.solo(self.FULL if read_to_end else self.EARLY).output
        assert result.output == expected
