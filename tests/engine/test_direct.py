"""The zero-buffer direct runner: certified queries bypass the buffer.

When the schema-constraint pass certifies a query (matches provably
cannot nest in a conforming document), the session swaps the
preprojector/buffer/evaluator stack for
:class:`repro.engine.direct.DirectEvaluator`: a stack of lazy-DFA states
over the open elements, with matched subtrees streamed through to the
output as they are read — or, for ``{$x}`` bodies, copied by the scanner
as one :class:`~repro.xmlio.tokens.Span`.  Peak buffer residency is zero.

The certificate is *structurally sound*: the runner detects nested
matches (schema violations) itself, captures just those subtrees, and
replays them in document order — so output stays byte-identical to the
generic engine even on documents that violate the certifying schema,
with the violation count surfaced as ``BufferStats.schema_fallbacks``.
"""

from __future__ import annotations

import dataclasses
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.schema import Schema
from repro.baselines import NaiveDomEngine
from repro.buffer.buffer import BufferTree
from repro.buffer.stats import BufferStats
from repro.engine import EngineOptions, GCXEngine, QuerySession, SessionPool
from repro.engine.direct import DirectEvaluator
from repro.engine.session import MATCHER_STATE_CAP
from repro.xmark.queries import Q6
from repro.xmark.schema import xmark_schema
from repro.xmlio.filelexer import FileTokenizer
from repro.xmlio.lexer import BATCH_BYTES, XMLSyntaxError, tokenize
from repro.xmlio.serialize import serialize_stream
from repro.xmlio.tokens import Span

from tests.xmlio.test_copy_scan import DTD as COPY_DTD
from tests.xmlio.test_copy_scan import QUERIES as COPY_QUERIES
from tests.xmlio.test_copy_scan import damaged
from tests.xmlio.test_copy_scan import documents as copy_documents

FLAT_DTD = """
<!ELEMENT r (a*)>
<!ELEMENT a (b*)>
<!ELEMENT b (#PCDATA)>
"""

SUBTREE_QUERY = "<o>{for $x in //a return $x}</o>"
PATH_QUERY = "<o>{for $x in /r/a return $x/b}</o>"

CONFORMING = "<r><a><b>one</b><b>two</b></a><a/><a><b>three</b></a></r>"
# <a> inside <a>: violates the DTD, and makes the //a matches nest.
VIOLATING = "<r><a><b>x</b><a><b>y</b></a></a><a><b>z</b></a></r>"


@pytest.fixture(scope="module")
def schema() -> Schema:
    return Schema.from_dtd_text(FLAT_DTD)


def run_both(query: str, document: str, schema: Schema):
    """(schema-on result, schema-off result) for the default engine."""
    engine = GCXEngine()
    return engine.run(query, document, schema=schema), engine.run(
        query, document
    )


class TestDispatch:
    def test_certified_query_uses_direct_runner(self, schema, direct_runners):
        session = GCXEngine().session(SUBTREE_QUERY, schema=schema)
        assert session.compiled.certified_zero_buffer
        run = session.run_streaming(CONFORMING)
        # The direct runner is the run's evaluator and its own pump.
        assert len(direct_runners) == 1
        "".join(run.serialized())
        assert run.result.exhausted_input

    def test_uncertified_query_keeps_generic_path(self, schema, direct_runners):
        # <a> nesting cannot be ruled out without the schema's help; a
        # where clause is outside the certifiable shape.
        query = "<o>{for $x in //a where (exists $x/b) return $x}</o>"
        session = GCXEngine().session(query, schema=schema)
        assert not session.compiled.certified_zero_buffer
        run = session.run_streaming(CONFORMING)
        assert direct_runners == []
        "".join(run.serialized())

    def test_eager_leaf_bindings_excludes_direct(self, schema, direct_runners):
        # The flux-like configuration changes evaluation order; the
        # certificate is proven for the default order only.
        options = EngineOptions(eager_leaf_bindings=True)
        session = GCXEngine(options).session(SUBTREE_QUERY, schema=schema)
        run = session.run_streaming(CONFORMING)
        assert direct_runners == []
        "".join(run.serialized())


class TestConformingDocuments:
    @pytest.mark.parametrize("query", [SUBTREE_QUERY, PATH_QUERY])
    def test_output_matches_generic_engine(self, query, schema):
        on, off = run_both(query, CONFORMING, schema)
        assert on.output == off.output

    @pytest.mark.parametrize("query", [SUBTREE_QUERY, PATH_QUERY])
    def test_zero_buffer_high_watermark(self, query, schema):
        on, off = run_both(query, CONFORMING, schema)
        assert on.stats.hwm_bytes == 0
        assert on.stats.hwm_nodes == 0
        assert off.stats.hwm_bytes > 0  # the win being claimed

    def test_no_fallbacks_on_conforming_input(self, schema):
        on, _ = run_both(SUBTREE_QUERY, CONFORMING, schema)
        assert on.stats.schema_fallbacks == 0

    def test_role_accounting_stays_balanced(self, schema):
        on, _ = run_both(SUBTREE_QUERY, CONFORMING, schema)
        assert on.stats.role_accounting_balanced()

    def test_tokens_are_still_counted(self, schema):
        on, off = run_both(SUBTREE_QUERY, CONFORMING, schema)
        assert on.stats.tokens_read == off.stats.tokens_read

    def test_streaming_is_incremental(self, schema):
        """The first fragment must arrive before the document ends."""
        session = GCXEngine().session(SUBTREE_QUERY, schema=schema)
        run = session.run_streaming(CONFORMING)
        fragments = run.serialized()
        first = next(fragments)
        assert first  # output began while input remains
        rest = "".join(fragments)
        _, off = run_both(SUBTREE_QUERY, CONFORMING, schema)
        assert first + rest == off.output


class TestViolatingDocuments:
    def test_output_still_byte_identical(self, schema):
        on, off = run_both(SUBTREE_QUERY, VIOLATING, schema)
        assert on.output == off.output

    def test_fallbacks_are_counted(self, schema):
        on, _ = run_both(SUBTREE_QUERY, VIOLATING, schema)
        assert on.stats.schema_fallbacks == 1

    def test_fallback_buffering_is_charged(self, schema):
        """Captured nested matches must show up in the high watermark."""
        on, _ = run_both(SUBTREE_QUERY, VIOLATING, schema)
        assert on.stats.hwm_bytes > 0
        assert on.stats.nodes_created == on.stats.nodes_purged

    def test_document_order_is_preserved(self, schema):
        # Generic semantics emit the outer match, then the nested one.
        on, off = run_both(SUBTREE_QUERY, VIOLATING, schema)
        outer = on.output.index("<a><b>x</b><a><b>y</b></a></a>")
        inner = on.output.index("<a><b>y</b></a>", outer + 1)
        assert outer < inner
        assert on.output == off.output

    def test_deeply_nested_violations(self, schema):
        document = "<r><a><a><a><b>t</b></a></a></a></r>"
        on, off = run_both(SUBTREE_QUERY, document, schema)
        assert on.output == off.output
        assert on.stats.schema_fallbacks == 2

    def test_summary_mentions_fallbacks(self, schema):
        on, _ = run_both(SUBTREE_QUERY, VIOLATING, schema)
        assert "schema fallbacks 1" in on.stats.summary()

    def test_nested_captures_are_held_once(self):
        """300 nested Q6 matches: each token is captured once for all the
        matches open around it, so the fallback buffers no more than the
        buffered engine (it held 141x more when every match kept its own
        copy of the tokens)."""
        depth = 300
        document = (
            "<site><regions><africa>"
            + "<item><name>x</name>" * depth
            + "</item>" * depth
            + "</africa></regions></site>"
        )
        direct = GCXEngine().session(Q6.adapted, schema=xmark_schema()).run(document)
        buffered = GCXEngine().session(Q6.adapted).run(document)
        assert direct.output == buffered.output
        assert direct.stats.schema_fallbacks == depth - 1
        assert 0 < direct.stats.hwm_bytes <= buffered.stats.hwm_bytes
        assert direct.stats.nodes_created == direct.stats.nodes_purged

    @settings(max_examples=60, deadline=None)
    @given(
        chains=st.lists(
            st.lists(
                st.sampled_from(["", "<b>t</b>", "<b/><b>uv</b>"]),
                min_size=1,
                max_size=8,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_nested_chains_buffer_no_more_than_the_buffered_engine(
        self, chains, schema
    ):
        # Each chain nests one ``<a>`` per filler, the filler at its head.
        nested = (
            "".join("<a>" + filler for filler in chain) + "</a>" * len(chain)
            for chain in chains
        )
        document = "<r>" + "".join(nested) + "</r>"
        on, off = run_both(SUBTREE_QUERY, document, schema)
        assert on.output == off.output
        assert on.stats.hwm_bytes <= off.stats.hwm_bytes


class TestSessionReuse:
    def test_compile_once_run_many(self, schema):
        session = GCXEngine().session(SUBTREE_QUERY, schema=schema)
        first = session.run(CONFORMING)
        second = session.run(VIOLATING)
        third = session.run(CONFORMING)
        assert first.output == third.output
        assert second.stats.schema_fallbacks == 1
        assert third.stats.schema_fallbacks == 0


# ---------------------------------------------------------------------------
# The COPY row: certified {$x} matches arrive as one Span
# ---------------------------------------------------------------------------

#: ``BufferStats`` fields that name the route, not the run.
ROUTE_FIELDS = ("tokens_skipped", "tokens_copied", "copy_fallbacks", "accountant")


def counters(stats: BufferStats) -> dict:
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name not in ROUTE_FIELDS
    }


def outcome(tokens) -> tuple[str, str | None]:
    """(output written, error) of a token stream serialized to the end."""
    parts: list[str] = []
    try:
        for fragment in serialize_stream(tokens):
            parts.append(fragment)
    except (XMLSyntaxError, UnicodeDecodeError) as error:
        located = (
            (error.position, error.line, error.column)
            if isinstance(error, XMLSyntaxError)
            else ()
        )
        return "".join(parts), f"{type(error).__name__}: {error} {located}"
    return "".join(parts), None


def copy_routes(document: bytes, directory: Path) -> dict:
    path = directory / "document.xml"
    path.write_bytes(document)
    made = {
        "bytes": lambda: document,
        "memoryview": lambda: memoryview(document),
        "path": lambda: path,
        "file": lambda: open(path, "rb"),
    }
    try:
        text = document.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        made["str"] = lambda: text
    return made


def chunked_run(session: QuerySession, document: bytes, chunk_size: int = 16):
    """The certified runner over a guided 16-byte-chunk scan."""
    guide = session.runtime.chain_guide()
    buffer = BufferTree()
    direct = DirectEvaluator(
        guide,
        FileTokenizer(
            io.BytesIO(document),
            chunk_size=chunk_size,
            guide=guide.for_run(buffer.stats),
        ),
        buffer,
    )
    return direct, buffer.stats


def assert_copy_conformance(query: str, document: bytes) -> None:
    """Every guided route against the unguided direct run and the oracle."""
    schema = Schema.from_dtd_text(COPY_DTD)
    session = GCXEngine().session(query, schema=schema)
    assert session.compiled.certified_zero_buffer
    unguided = session.run_streaming(tokenize(document))
    expected_output, expected_error = outcome(unguided)
    if expected_error is None:
        expected_stats = counters(unguided.result.stats)
        assert unguided.result.stats.tokens_skipped == 0
        assert unguided.result.stats.tokens_copied == 0
        # Invalid UTF-8 outside matches is never decoded by either run; the
        # oracle decodes the whole document first.
        if b"\xff" not in document:
            oracle = NaiveDomEngine().run(query, document.decode("utf-8"))
            assert expected_output == oracle.output
    with tempfile.TemporaryDirectory() as directory:
        for route, make in copy_routes(document, Path(directory)).items():
            run = session.run_streaming(make())
            output, error = outcome(run)
            assert (output, error) == (expected_output, expected_error), route
            if error is None:
                stats = run.result.stats
                assert counters(stats) == expected_stats, route
                assert stats.hwm_nodes == 0 or stats.schema_fallbacks, route
    direct, stats = chunked_run(session, document)
    assert outcome(direct.iter_tokens()) == (expected_output, expected_error)
    if expected_error is None:
        assert counters(stats) == expected_stats


class TestCopyConformance:
    @pytest.mark.parametrize("name", sorted(COPY_QUERIES))
    def test_fixed_document(self, name):
        document = (
            "<r><c><a id='1' x=''><b>é日😀</b><![CDATA[ <raw> & ]]><b></b></a></c>"
            "<a><b>one &amp; &lt;two&gt; &#60;</b><!-- é --><?pi?><b> </b></a>"
            "<x><a/></x><a><b>t</b><a/></a><a>last > least</a>"
        ).encode() + b"<a><b>bad \xff utf-8</b></a></r>"
        assert_copy_conformance(COPY_QUERIES[name], document)

    @pytest.mark.parametrize("name", sorted(COPY_QUERIES))
    def test_tag_name_not_utf8_inside_a_match(self, name):
        # A damaged ``<`` before invalid UTF-8 makes a tag name that fails
        # to decode: the error must surface after the same output on every
        # route, including the 16-byte-chunk scan.
        document = b"<r><a><b>one</b><b>two</b><b>ba< \xff x</b></a></r>"
        assert_copy_conformance(COPY_QUERIES[name], document)

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(document=copy_documents(), name=st.sampled_from(sorted(COPY_QUERIES)))
    def test_generated_documents(self, document, name):
        assert_copy_conformance(COPY_QUERIES[name], document)

    @settings(max_examples=80, deadline=None)
    @given(
        document=copy_documents(),
        name=st.sampled_from(sorted(COPY_QUERIES)),
        data=st.data(),
    )
    def test_damaged_documents(self, document, name, data):
        assert_copy_conformance(COPY_QUERIES[name], damaged(document, data))

    def test_subtree_larger_than_a_batch(self):
        big = b"<a>" + b"<b>filler</b>" * (BATCH_BYTES // 10) + b"</a>"
        document = b"<r><a><b>small</b></a>" + big + b"<a/></r>"
        assert_copy_conformance(COPY_QUERIES["child"], document)
        session = GCXEngine().session(
            COPY_QUERIES["child"], schema=Schema.from_dtd_text(COPY_DTD)
        )
        stats = session.run(document).stats
        assert stats.copy_fallbacks == 1
        assert stats.tokens_copied == 5 + 2  # the two small matches


class TestCopyAccounting:
    def test_conforming_document_is_copied_whole(self, schema):
        session = GCXEngine().session(SUBTREE_QUERY, schema=schema)
        run = session.run_streaming(CONFORMING)
        items = list(run)
        assert sum(isinstance(item, Span) for item in items) == 3
        stats = run.result.stats
        assert stats.tokens_copied == stats.tokens_read - 2  # all but <r></r>
        assert stats.copy_fallbacks == 0
        assert stats.hwm_nodes == 0

    def test_nested_match_falls_back_live_and_structurally(self, schema):
        on, off = run_both(SUBTREE_QUERY, VIOLATING, schema)
        assert on.output == off.output
        assert on.stats.copy_fallbacks == 1  # the outer <a> holds an <a>
        assert on.stats.schema_fallbacks == 1
        assert on.stats.tokens_copied == 5  # the last <a> is copied again

    def test_skipped_tokens_are_counted(self, schema):
        session = GCXEngine().session(PATH_QUERY, schema=schema)
        document = "<r><z><y>dead</y></z><a><b>kept</b></a></r>"
        guided = session.run(document).stats
        unguided = session.run(tokenize(document)).stats
        assert guided.tokens_skipped == 5 and unguided.tokens_skipped == 0
        assert counters(guided) == counters(unguided)

    def test_summary_says_whether_it_copied(self, schema):
        on, off = run_both(SUBTREE_QUERY, VIOLATING, schema)
        assert "5 copied in spans, 1 copy fallbacks" in on.stats.summary()
        # ``{$x}`` is a copy site, so the buffered engine copies the same
        # matches; a pre-tokenised stream copies nothing and says nothing.
        assert "5 copied in spans, 1 copy fallbacks" in off.stats.summary()
        unguided = GCXEngine().run(SUBTREE_QUERY, tokenize(VIOLATING))
        assert unguided.output == off.output
        assert "copied in spans" not in unguided.stats.summary()

    def test_pretty_printing_replays_spans(self, schema):
        session = GCXEngine().session(SUBTREE_QUERY, schema=schema)
        document = "<r><a id=' '><b>one</b><b></b></a><a/></r>"
        guided = "".join(session.run_streaming(document).serialized(indent="  "))
        unguided = session.run_streaming(tokenize(document))
        assert guided == "".join(unguided.serialized(indent="  "))
        assert "\n" in guided

    def test_path_bodies_are_not_copied(self, schema):
        on, off = run_both(PATH_QUERY, CONFORMING, schema)
        assert on.output == off.output
        assert on.stats.tokens_copied == on.stats.copy_fallbacks == 0


class TestSharedChainGuide:
    def test_one_warm_guide_per_session(self, schema):
        session = GCXEngine().session(SUBTREE_QUERY, schema=schema)
        session.run(CONFORMING)
        guide = session.runtime.chain_guide()
        size = guide.size
        session.run(CONFORMING)
        assert session.runtime.chain_guide() is guide and guide.size == size > 0

    def test_one_warm_guide_per_pool(self, schema):
        with SessionPool(SUBTREE_QUERY, schema=schema, max_workers=2) as pool:
            outputs = list(pool.map([CONFORMING, VIOLATING] * 4))
            guide = pool.runtime.chain_guide()
            assert pool.runtime.chain_guide() is guide
        _, off = run_both(SUBTREE_QUERY, VIOLATING, schema)
        assert outputs[1].output == off.output

    def test_bloated_guide_is_replaced(self, schema):
        session = GCXEngine().session(SUBTREE_QUERY, schema=schema)
        tags = "".join(f"<t{i}/>" for i in range(MATCHER_STATE_CAP + 1))
        session.run(f"<r>{tags}<a/></r>")
        bloated = session.runtime._chain_guide
        assert bloated.size > MATCHER_STATE_CAP
        assert session.runtime.chain_guide() is not bloated
        assert session.run(CONFORMING).output == run_both(
            SUBTREE_QUERY, CONFORMING, schema
        )[1].output


# ---------------------------------------------------------------------------
# Deep output subtrees: no recursion on either route
# ---------------------------------------------------------------------------

DEPTH = 5000


class TestDeepSubtrees:
    CHAIN = "<b>" * DEPTH + "x" + "</b>" * DEPTH
    Q6_DOCUMENT = (
        "<site><regions><africa><item><id>i</id>"
        + CHAIN
        + "</item></africa></regions></site>"
    )
    Q6_OUTPUT = "<XMark-Q6><item><id>i</id>" + CHAIN + "</item></XMark-Q6>"

    def test_buffered_q6(self):
        session = GCXEngine().session(Q6.adapted)
        assert not session.compiled.certified_zero_buffer
        assert session.run(self.Q6_DOCUMENT).output == self.Q6_OUTPUT

    def test_certified_q6_copies_the_deep_item(self):
        session = GCXEngine().session(Q6.adapted, schema=xmark_schema())
        assert session.compiled.certified_zero_buffer
        result = session.run(self.Q6_DOCUMENT)
        assert result.output == self.Q6_OUTPUT
        assert result.stats.tokens_copied == 2 * DEPTH + 6
        assert result.stats.copy_fallbacks == 0

    def test_certified_q6_unguided(self):
        session = GCXEngine().session(Q6.adapted, schema=xmark_schema())
        result = session.run(tokenize(self.Q6_DOCUMENT))
        assert result.output == self.Q6_OUTPUT

    def test_buffered_descendant_scan_over_a_deep_chain(self):
        document = "<r><a>" + self.CHAIN + "</a></r>"
        session = GCXEngine().session("<r>{ for $x in //a return $x }</r>")
        assert session.run(document).output == "<r><a>" + self.CHAIN + "</a></r>"
