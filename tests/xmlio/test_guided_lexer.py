"""Differential tests: the guided scan against the unguided stream.

A tokenizer running under a scan guide (the projection matcher's lazy DFA,
or the shared pass's product of them) must deliver, with every
:class:`~repro.xmlio.tokens.Skipped` expanded to its counts, exactly the
unguided stream filtered by the guide's verdicts — token for token outside
dead regions, count for count inside them — and fail on malformed input
with the same error at the same place.  The reference below replays the
*unguided* stream through the guide's rows, so it shares no code with the
scanner's dead-subtree loop; a second check holds the rows themselves
against the dynamic criterion they claim to precompute,
``ProjectionLane.subtree_dead``.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import compile_query
from repro.buffer import BufferTree
from repro.stream.matcher import StreamMatcher
from repro.stream.preprojector import ProjectionLane
from repro.stream.shared import ProductGuide
from repro.xmark import generate_xmark
from repro.xmark.queries import XMARK_QUERIES
from repro.xmlio import text_decode_count
from repro.xmlio.filelexer import FileTokenizer, tokenize_file
from repro.xmlio.lexer import DEAD, XMLSyntaxError, XMLTokenizer, tokenize
from repro.xmlio.tokens import EndTag, Skipped, StartTag

from tests.properties.strategies import documents, queries
from tests.xmlio.test_differential_lexer import ADVERSARIAL_DOCUMENTS, TestErrorDifferential

QUERY_NAMES = sorted(XMARK_QUERIES)
STANDING_MIX = ("Q1", "Q6", "Q8", "Q9", "Q13", "Q15", "Q17", "Q20")

#: Queries over the small alphabets of the adversarial and malformed
#: corpora: each leaves most of a document dead, one keeps a LIVE subtree.
SMALL_QUERIES = {
    "child": "<o>{for $x in /a/b return $x/c}</o>",
    "exists": "<o>{for $x in /a/b return if (exists $x/x) then <y/> else ()}</o>",
    "nothing": "<o>{for $x in /zzz/zzz return $x}</o>",
    "root-text": "<o>{for $x in /a return $x/text()}</o>",
    "live-under-r": "<o>{for $x in /r return for $y in $x/a return $y}</o>",
    "person": "<o>{for $p in /person return $p/id}</o>",
}


def matcher_for(query: str) -> StreamMatcher:
    return StreamMatcher(compile_query(query).projection_tree)


def xmark_guides() -> dict[str, object]:
    guides: dict[str, object] = {
        name: matcher_for(XMARK_QUERIES[name].adapted) for name in QUERY_NAMES
    }
    guides["K=8"] = ProductGuide(
        [matcher_for(XMARK_QUERIES[name].adapted) for name in STANDING_MIX]
    )
    return guides


def small_guides() -> dict[str, object]:
    guides: dict[str, object] = {
        name: matcher_for(query) for name, query in SMALL_QUERIES.items()
    }
    guides["product"] = ProductGuide(
        [matcher_for(SMALL_QUERIES[name]) for name in ("child", "exists", "person")]
    )
    return guides


def merged(tokens) -> list:
    """The stream with adjacent ``Skipped`` summed: where the scanner cuts
    a dead run (batch ends, rows still cold) is not part of the contract."""
    out: list = []
    for token in tokens:
        if isinstance(token, Skipped) and out and isinstance(out[-1], Skipped):
            last = out[-1]
            out[-1] = Skipped(
                last.tokens + token.tokens,
                last.dropped + token.dropped,
                last.roots + token.roots,
            )
        else:
            out.append(token)
    return out


def reference(tokens, guide) -> list:
    """The unguided stream filtered by the guide's rows.

    Rows are walked with nothing but the guide protocol (``root_row`` and
    ``miss``, entries read at their documented indices).
    """
    out: list = []
    rows: list = [guide.root_row()]  # None: LIVE
    text_dead: list[bool] = [False]
    dead_depth = 0

    def skip(tokens: int, dropped: int, roots: int) -> None:
        out.append(Skipped(tokens, dropped, roots))

    for token in tokens:
        if dead_depth:
            if isinstance(token, StartTag):
                dead_depth += 1
                skip(1, 1, 0)
            elif isinstance(token, EndTag):
                dead_depth -= 1
                skip(1, 0, 0)
            else:
                skip(1, 1, 0)
        elif isinstance(token, StartTag):
            row = rows[-1]
            if row is None:
                rows.append(None)
                text_dead.append(False)
                out.append(token)
                continue
            key = token.tag.encode("utf-8")
            entry = row.get(key)
            if entry is None:
                entry = guide.miss(row, key)
            if entry is DEAD:
                dead_depth = 1
                skip(1, 1, 1)
            else:
                rows.append(entry[5])
                text_dead.append(entry[7])
                out.append(token)
        elif isinstance(token, EndTag):
            rows.pop()
            text_dead.pop()
            out.append(token)
        elif text_dead[-1]:
            skip(1, 1, 0)
        else:
            out.append(token)
    return merged(out)


def drain(tokens) -> tuple[list, XMLSyntaxError | None]:
    seen: list = []
    try:
        for token in tokens:
            seen.append(token)
    except XMLSyntaxError as error:
        return seen, error
    return seen, None


def assert_guided_matches(document: str, guide, **flags) -> None:
    plain, plain_error = drain(tokenize(document, **flags))
    guided, guided_error = drain(tokenize(document, guide=guide, **flags))
    assert merged(guided) == reference(plain, guide)
    assert_same_error(guided_error, plain_error)


def assert_same_error(guided: XMLSyntaxError | None, plain: XMLSyntaxError | None):
    assert (guided is None) == (plain is None)
    if plain is not None:
        assert str(guided) == str(plain)
        assert (guided.position, guided.line, guided.column) == (
            plain.position,
            plain.line,
            plain.column,
        )


# ---------------------------------------------------------------------------


class TestXMarkCorpus:
    @pytest.fixture(scope="class")
    def guides(self):
        return xmark_guides()

    @pytest.mark.parametrize("name", QUERY_NAMES + ["K=8"])
    def test_guided_stream_is_the_filtered_unguided_stream(
        self, name, guides, xmark_doc_small
    ):
        assert_guided_matches(xmark_doc_small, guides[name])
        # Again on warm rows: the second scan takes the memoised entries.
        assert_guided_matches(xmark_doc_small, guides[name])

    @pytest.mark.parametrize("name", ["Q1", "Q6", "Q8", "K=8"])
    def test_other_seeds_and_every_input_route(self, name, guides, tmp_path):
        for seed in (1, 2):
            document = generate_xmark(0.0005, seed=seed)
            guide = guides[name]
            expected = reference(list(tokenize(document)), guide)
            path = tmp_path / f"doc{seed}.xml"
            path.write_text(document, encoding="utf-8")
            assert merged(tokenize(document.encode("utf-8"), guide=guide)) == expected
            assert merged(tokenize_file(path, guide=guide)) == expected
            for chunk_size in (16, 64, 4096):
                chunked = FileTokenizer(
                    io.BytesIO(document.encode("utf-8")),
                    chunk_size=chunk_size,
                    guide=guide,
                )
                assert merged(chunked) == expected

    def test_q1_builds_a_small_share_of_the_stream(self, guides, xmark_doc_small):
        total = sum(1 for _ in tokenize(xmark_doc_small))
        guided = list(tokenize(xmark_doc_small, guide=guides["Q1"]))
        skipped = sum(t.tokens for t in guided if isinstance(t, Skipped))
        delivered = sum(1 for t in guided if not isinstance(t, Skipped))
        assert delivered + skipped == total
        assert delivered < total / 10

    def test_descendant_rooted_query_skips_nothing(self, xmark_doc_small):
        # ``//*`` can match anything below: LIVE from the root.
        guide = matcher_for("<o>{for $i in //* return $i/name}</o>")
        assert guide.root_row() is None
        assert list(tokenize(xmark_doc_small, guide=guide)) == list(
            tokenize(xmark_doc_small)
        )
        # ``//item`` is a plain name test: the root gets a descend row,
        # which never says DEAD — only text no step matches is skipped,
        # token by token, never a subtree.
        guide = matcher_for("<o>{for $i in //item return $i/name}</o>")
        assert guide.root_row() is not None
        guided = list(tokenize(xmark_doc_small, guide=guide))
        assert all(t.roots == 0 for t in guided if isinstance(t, Skipped))
        assert merged(guided) == reference(tokenize(xmark_doc_small), guide)


class TestRowsAreTheParkRuleAheadOfTheStream:
    """DEAD in a row implies ``subtree_dead()`` for a lane fed everything,
    whatever ``[1]`` consumption has done to the lane's dynamic state."""

    CASES = [XMARK_QUERIES[name].adapted for name in QUERY_NAMES] + [
        "<o>{for $x in /r/a return $x/b[1]}</o>",
        "<o>{for $x in /r/a return $x/c[1]/b}</o>",
        "<o>{for $x in /r/a return if (exists $x/b) then <y/> else ()}</o>",
        "<o>{count(/r/a/b)}</o>",
    ]

    @pytest.mark.parametrize("query", CASES)
    def test_static_dead_implies_dynamic_dead(self, query, xmark_doc_small):
        compiled = compile_query(query)
        document = (
            xmark_doc_small
            if "XMark" in query
            else "<r><a><b>1</b><b>2</b><c/></a><a><c><b/></c></a><d><a/></d></r>"
        )
        matcher = StreamMatcher(compiled.projection_tree)
        lane = ProjectionLane(compiled.projection_tree, BufferTree(), matcher=matcher)
        rows: list = [matcher.root_row()]
        checked = 0
        for token in tokenize(document):
            if isinstance(token, StartTag):
                lane.open(token.tag)
                row = rows[-1]
                entry = None
                if row is not None:
                    key = token.tag.encode("utf-8")
                    entry = row.get(key) or matcher.miss(row, key)
                    if entry is DEAD:
                        assert lane.subtree_dead()
                        checked += 1
                rows.append(None if entry in (None, DEAD) else entry[5])
            elif isinstance(token, EndTag):
                lane.close()
                rows.pop()
            else:
                lane.text(token)
        assert checked or rows[0] is None


class TestAdversarialCorpus:
    @pytest.fixture(scope="class")
    def guides(self):
        return small_guides()

    @pytest.mark.parametrize("document", ADVERSARIAL_DOCUMENTS)
    @pytest.mark.parametrize("name", sorted(SMALL_QUERIES) + ["product"])
    def test_identical_after_expansion(self, document, name, guides):
        assert_guided_matches(document, guides[name])

    @pytest.mark.parametrize("document", ADVERSARIAL_DOCUMENTS)
    @pytest.mark.parametrize(
        "flags",
        [{"strip_whitespace": False}],
        # Attributes are always converted; "attrs=True" keeps ids stable.
        ids=lambda f: f"strip={f['strip_whitespace']},attrs=True",
    )
    def test_identical_in_every_flag_combination(self, document, flags, guides):
        for name in ("child", "nothing", "root-text"):
            assert_guided_matches(document, guides[name], **flags)

    @pytest.mark.parametrize("document", ADVERSARIAL_DOCUMENTS)
    @pytest.mark.parametrize("chunk_size", [16, 17, 23, 64])
    def test_chunked_identical_after_expansion(self, document, chunk_size, guides):
        for name in ("child", "nothing", "person"):
            guide = guides[name]
            chunked = FileTokenizer(
                io.StringIO(document), chunk_size=chunk_size, guide=guide
            )
            assert merged(chunked) == reference(list(tokenize(document)), guide)


class TestErrorsInsideDeadSubtrees:
    """Every check survives in a dead region: same message, same offset,
    same line and column, the same tokens (as counts) delivered first."""

    #: ``<dead>`` is DEAD under /a/b-shaped queries; the defect sits inside.
    MALFORMED = [
        "<a><dead><x></y></x></dead></a>",  # mismatch
        "<a><dead><x></dead></a>",  # mismatch against the dead root
        "<a><dead><!-- never closed </dead></a>",  # unterminated comment
        "<a><dead><![CDATA[ never closed </dead></a>",  # unterminated CDATA
        "<a><dead><?pi never closed </dead></a>",  # unterminated PI
        "<a><dead><x y=1/></dead></a>",  # unquoted attribute value
        "<a><dead><x y='v></x></dead></a>",  # unterminated attribute value
        "<a><dead><x y></x></dead></a>",  # malformed attribute
        "<a><dead><></></dead></a>",  # empty start tag
        "<a><dead><x></ ></dead></a>",  # empty end tag
        "<a><dead><x>never closed",  # EOF inside a dead subtree
        "<a><dead><x",  # unterminated start tag
        "<a><dead><x></x",  # unterminated end tag
        "<a>\n<dead>\n  <x>\n  </y>\n</dead></a>",  # line/column after newlines
        "<dead><x/></dead><dead/>",  # second root, both dead
        "<dead><x/></dead>trailing",  # text after a dead root
        "<dead/><![CDATA[x]]>",  # CDATA after a dead root
    ]

    @pytest.fixture(scope="class")
    def guides(self):
        return small_guides()

    @pytest.mark.parametrize("bad", MALFORMED + TestErrorDifferential.ERROR_CASES)
    def test_same_error_same_place(self, bad, guides):
        with pytest.raises(XMLSyntaxError):
            list(tokenize(bad))
        for name, guide in guides.items():
            assert_guided_matches(bad, guide)

    @pytest.mark.parametrize("bad", MALFORMED + TestErrorDifferential.ERROR_CASES)
    @pytest.mark.parametrize("chunk_size", [16, 23, 64])
    def test_file_mode_same_error_same_place(self, bad, chunk_size, guides):
        """Compaction inside a dead region must not shift error offsets."""
        plain, plain_error = drain(FileTokenizer(io.StringIO(bad), chunk_size=chunk_size))
        for name in ("child", "nothing"):
            guide = guides[name]
            guided, guided_error = drain(
                FileTokenizer(io.StringIO(bad), chunk_size=chunk_size, guide=guide)
            )
            assert merged(guided) == reference(plain, guide)
            assert_same_error(guided_error, plain_error)

    def test_partial_counts_arrive_before_the_error(self, guides):
        tokens, error = drain(tokenize("<a><dead><x><y/></z></dead></a>", guide=guides["child"]))
        assert error is not None and "mismatched closing tag </z>" in str(error)
        # <a> delivered; <dead>, <x>, <y>, </y> validated, then the defect.
        assert merged(tokens) == [StartTag("a"), Skipped(4, 3, 1)]


class TestChunkBoundaries:
    """Multi-byte code points, CDATA and comments straddling every chunk
    boundary of the file-backed scanner, inside dead regions."""

    DOCUMENT = (
        "<a><dead>é日😀<![CDATA[ <raw> ]] ]]>ü"
        "<!-- é <not> a </tag> 😀 --><x k='日本'>😀😀</x><?pi é?></dead>"
        "<b><c>kept é</c></b><dead2>日<y/>日</dead2></a>"
    )

    @pytest.mark.parametrize("chunk_size", range(16, 65))
    def test_every_chunk_size(self, chunk_size):
        guide = matcher_for(SMALL_QUERIES["child"])
        expected = reference(list(tokenize(self.DOCUMENT)), guide)
        streamed = FileTokenizer(
            io.BytesIO(self.DOCUMENT.encode("utf-8")),
            chunk_size=chunk_size,
            guide=guide,
        )
        assert merged(streamed) == expected
        kept = [t for t in expected if not isinstance(t, (StartTag, EndTag, Skipped))]
        assert [t.content for t in kept] == ["kept é"]

    def test_window_stays_bounded_inside_a_dead_region(self):
        document = "<a><dead>" + "<x>filler text</x>" * 2000 + "</dead><b><c/></b></a>"
        tokenizer = FileTokenizer(
            io.StringIO(document),
            chunk_size=64,
            guide=matcher_for(SMALL_QUERIES["child"]),
        )
        widest = 0
        for _token in tokenizer:
            widest = max(widest, tokenizer.window_size)
        assert widest < 64 * 8


class TestDeadRegionsCostNothing:
    def test_deep_dead_nesting_needs_no_recursion(self):
        depth = 5000
        document = "<a><dead>" + "<n>" * depth + "x" + "</n>" * depth + "</dead><b><c/></b></a>"
        guide = matcher_for(SMALL_QUERIES["child"])
        tokens = merged(tokenize(document, guide=guide))
        assert tokens[:2] == [StartTag("a"), Skipped(2 * depth + 3, depth + 2, 1)]
        assert [str(token) for token in tokens[2:]] == [
            "<b>",
            "<c>",
            "</c>",
            "</b>",
            "</a>",
        ]
        # ... and an unclosed one reports the innermost dead element.
        with pytest.raises(XMLSyntaxError, match="unclosed element <n>"):
            list(tokenize("<a><dead>" + "<n>" * depth, guide=guide))

    def test_dead_text_is_never_decoded(self, xmark_doc_small):
        guide = matcher_for(XMARK_QUERIES["Q1"].adapted)
        before = text_decode_count()
        for token in tokenize(xmark_doc_small, guide=guide):
            pass
        assert text_decode_count() == before

    def test_dead_tags_are_never_interned(self):
        document = (
            "<a><dead only='here'><inner>t</inner></dead>"
            "<b><c>kept</c><gone><deeper/></gone></b></a>"
        )
        tokenizer = XMLTokenizer(document, guide=matcher_for(SMALL_QUERIES["child"]))
        delivered = [t for t in tokenizer if not isinstance(t, Skipped)]
        assert [str(t) for t in delivered] == ["<a>", "<b>", "<c>", "kept", "</c>", "</b>", "</a>"]
        # The tokenizer's own table serves LIVE subtrees only; tags seen
        # under rows live in the rows, and dead ones nowhere.
        assert tokenizer._start_tags == {}
        unguided = XMLTokenizer(document)
        list(unguided)
        assert {b"dead", b"only", b"inner", b"gone", b"deeper"} <= set(
            unguided._start_tags
        )

    def test_dead_tag_names_leave_no_decoded_entry_in_the_rows(self):
        guide = matcher_for(SMALL_QUERIES["child"])
        list(tokenize("<a><dead><inner/></dead><b><c/></b></a>", guide=guide))
        row = guide.root_row()
        assert set(row) == {b"a"}
        a_row = row[b"a"][5]
        assert a_row[b"dead"] is DEAD and set(a_row) == {b"dead", b"b"}


class TestHypothesisDocuments:
    @settings(max_examples=120, deadline=None)
    @given(document=documents(max_depth=4), query=queries(max_depth=2))
    def test_random_documents_and_queries(self, document, query):
        assert_guided_matches(document, matcher_for(query))

    @settings(max_examples=60, deadline=None)
    @given(
        document=documents(max_depth=3),
        mix=st.lists(queries(max_depth=2), min_size=2, max_size=3),
        chunk_size=st.integers(16, 48),
    )
    def test_random_product_guides_chunked(self, document, mix, chunk_size):
        guide = ProductGuide([matcher_for(query) for query in mix])
        expected = reference(list(tokenize(document)), guide)
        assert merged(tokenize(document, guide=guide)) == expected
        chunked = FileTokenizer(
            io.StringIO(document), chunk_size=chunk_size, guide=guide
        )
        assert merged(chunked) == expected
