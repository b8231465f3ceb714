"""Differential tests of the COPY row: a match subtree as one ``Span``.

Under the schema-certified direct runner's chain guide
(:class:`repro.engine.direct.ChainGuide`) the tokenizer delivers a match
whose body copies the bound subtree as one
:class:`~repro.xmlio.tokens.Span` — its canonical serialization and the
number of tokens it replaces — or, when it cannot (a possible nested
match, malformed or non-UTF-8 input, a subtree larger than one batch),
the same element LIVE.  The checks below replay the *unguided* stream
against the guided one and hold every item to that contract:

* delivered tokens are the unguided ones, ``Skipped`` counts stand for
  whole dead runs, and each ``Span`` stands for exactly one match subtree
  whose serialization is ``span.text`` and whose tokens
  ``tokenize(span.text)`` gives back;
* every match that arrives LIVE outside a match is one counted copy
  fallback;
* malformed input fails with the same error at the same place, after the
  same tokens.
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import compile_query
from repro.analysis.schema import Schema
from repro.buffer.stats import BufferStats
from repro.engine.direct import ChainGuide
from repro.xmlio.filelexer import FileTokenizer, tokenize_file
from repro.xmlio.lexer import BATCH_BYTES, XMLSyntaxError, XMLTokenizer, tokenize
from repro.xmlio.serialize import serialize_tokens
from repro.xmlio.tokens import EndTag, LazyText, Skipped, Span, StartTag, Text

#: ``a`` cannot nest in a conforming document, so every ``a``-chain below
#: is certified; the generated documents violate this freely.
DTD = """
<!ELEMENT r (a | c)*>
<!ELEMENT c (a*)>
<!ELEMENT a (b*)>
<!ELEMENT b (#PCDATA)>
"""

#: Certified ``{$x}`` bodies (COPY rows) and one ``{$x/path}`` control.
QUERIES = {
    "descendant": "<o>{for $x in //a return $x}</o>",
    "child": "<o>{for $x in /r/a return $x}</o>",
    "mixed": "<o>{for $x in /r//a return $x}</o>",
    "through-c": "<o>{for $x in /r/c/a return $x}</o>",
    "path-body": "<o>{for $x in /r/a return $x/b}</o>",
}
COPYING = [name for name in QUERIES if name != "path-body"]


def chain_guide(query: str) -> ChainGuide:
    compiled = compile_query(query, schema=Schema.from_dtd_text(DTD))
    return ChainGuide(compiled.constraints.zero_buffer)


@pytest.fixture(scope="module")
def guides() -> dict[str, ChainGuide]:
    return {name: chain_guide(query) for name, query in QUERIES.items()}


# -- the reference walk ----------------------------------------------------


def key(token):
    """Equality without decoding: invalid UTF-8 text must compare too."""
    if isinstance(token, LazyText):
        return (type(token).__name__, token._raw)
    return token


def scanned(document: bytes, guide: ChainGuide) -> list:
    """The guided stream of ``document``, in memory."""
    return list(tokenize(document, guide=guide.for_run(BufferStats())))


def drain(tokens) -> tuple[list, XMLSyntaxError | None]:
    seen: list = []
    try:
        for token in tokens:
            seen.append(token)
    except XMLSyntaxError as error:
        return seen, error
    return seen, None


def texts_merged(tokens) -> list:
    """Adjacent text joined, empty text dropped: a comment or CDATA
    boundary inside character data splits it into several tokens (an empty
    CDATA section is one of its own), which a span's text cannot keep."""
    out: list = []
    for token in tokens:
        if isinstance(token, Text) and not token.content:
            continue
        if isinstance(token, Text) and out and isinstance(out[-1], Text):
            out[-1] = Text(out[-1].content + token.content)
        else:
            out.append(Text(token.content) if isinstance(token, Text) else token)
    return out


def replay(guided: list, plain: list, guide: ChainGuide) -> tuple[int, int]:
    """Hold ``guided`` against the unguided stream; returns (spans, LIVE
    match starts outside a match) — the latter are the copy fallbacks."""
    position = 0
    states = [guide.initial]
    match_depth = None  # depth of the open LIVE match, if any
    spans = live_matches = 0
    for item in guided:
        if isinstance(item, Skipped):
            replaced = plain[position : position + item.tokens]
            assert len(replaced) == item.tokens
            assert item.dropped == sum(
                not isinstance(t, EndTag) for t in replaced
            )
            position += item.tokens
        elif isinstance(item, Span):
            assert match_depth is None, "a span inside a LIVE match"
            replaced = plain[position : position + item.tokens]
            assert len(replaced) == item.tokens
            root = replaced[0]
            assert isinstance(root, StartTag) and replaced[-1] == EndTag(root.tag)
            assert guide.step(states[-1], root.tag).match
            # No element inside the span could have been another match.
            inner = [t.tag for t in replaced[1:-1] if isinstance(t, StartTag)]
            assert root.tag not in inner
            depth = 0
            for token in replaced[:-1]:
                depth += isinstance(token, StartTag) - isinstance(token, EndTag)
                assert depth > 0, "a span is exactly one subtree"
            assert item.text == serialize_tokens(replaced)
            assert str(item) == item.text
            # Whitespace-only attribute values survive in the text, so the
            # round trip keeps whitespace (the span holds no other).
            round_trip = tokenize(item.text, strip_whitespace=False)
            assert texts_merged(round_trip) == texts_merged(replaced)
            position += item.tokens
            spans += 1
        else:
            assert key(item) == key(plain[position])
            position += 1
            if isinstance(item, StartTag):
                state = guide.step(states[-1], item.tag)
                states.append(state)
                if state.match and match_depth is None:
                    match_depth = len(states)
                    live_matches += 1
            elif isinstance(item, EndTag):
                if match_depth == len(states):
                    match_depth = None
                states.pop()
    assert position == len(plain), "the guided stream stopped early"
    return spans, live_matches


def check(document: bytes, guide: ChainGuide, make=None) -> tuple[int, int]:
    """Replay one route; returns (spans, copy fallbacks)."""
    plain, plain_error = drain(tokenize(document))
    stats = BufferStats()
    run_guide = guide.for_run(stats)
    tokens = (
        tokenize(document, guide=run_guide) if make is None else make(run_guide)
    )
    guided, guided_error = drain(tokens)
    spans, live_matches = replay(guided, plain, guide)
    copies = guide._copies
    assert stats.copy_fallbacks == (live_matches if copies else 0)
    assert spans == 0 or copies
    assert (guided_error is None) == (plain_error is None)
    if plain_error is not None:
        assert str(guided_error) == str(plain_error)
        assert (guided_error.position, guided_error.line, guided_error.column) == (
            plain_error.position,
            plain_error.line,
            plain_error.column,
        )
    return spans, stats.copy_fallbacks


def routes(document: bytes, directory: Path) -> dict:
    """Every way bytes reach the scanner, each under a given run guide."""
    path = directory / "document.xml"
    path.write_bytes(document)
    made = {
        "bytes": lambda g: tokenize(document, guide=g),
        "memoryview": lambda g: tokenize(memoryview(document), guide=g),
        "path": lambda g: tokenize_file(path, guide=g),
        "file": lambda g: tokenize_file(open(path, "rb"), guide=g),
        "chunked-16": lambda g: FileTokenizer(
            io.BytesIO(document), chunk_size=16, guide=g
        ),
    }
    try:
        text = document.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        made["str"] = lambda g: tokenize(text, guide=g)
    return made


# -- generated documents ---------------------------------------------------

NAMES = ("b", "c", "é", "a")  # ``a``: named like the chain's last step
ATTRIBUTE_NAMES = ("id", "x", "a")
ATTRIBUTE_VALUES = ("", "1", "x &amp; y", "&lt;&gt;&quot;", " ", "ü", "a<b")
TEXTS = (
    b"t",
    b"&amp; &lt; &gt; &quot; &#60;",
    b"a > b",
    b" ",
    b"\n  ",
    "\u00a0".encode(),  # no-break space: whitespace to str.strip()
    "héllo 日本".encode(),
    b"bad \xff utf-8",
)
MARKUP = (
    b"<![CDATA[<raw> & ]]>",
    b"<![CDATA[]]>",
    b"<![CDATA[  ]]>",
    b"<!-- c -->",
    b"<?pi x?>",
)


def attributes() -> st.SearchStrategy[bytes]:
    pair = st.tuples(
        st.sampled_from(ATTRIBUTE_NAMES), st.sampled_from(ATTRIBUTE_VALUES)
    ).map(lambda p: f' {p[0]}="{p[1]}"'.encode())
    return st.lists(pair, max_size=2, unique=True).map(b"".join)


def element(children: st.SearchStrategy[list]) -> st.SearchStrategy[bytes]:
    def build(parts) -> bytes:
        name, attrs, body, form = parts
        name = name.encode()
        content = b"".join(body)
        if not content and form == 0:
            return b"<" + name + attrs + b"/>"
        if not content and form == 1:
            return b"<" + name + attrs + b" />"
        closer = b"</" + name + (b" >" if form == 2 else b">")
        return b"<" + name + attrs + b">" + content + closer

    return st.tuples(
        st.sampled_from(NAMES), attributes(), children, st.integers(0, 3)
    ).map(build)


def content() -> st.SearchStrategy[list]:
    leaf = st.one_of(st.sampled_from(TEXTS), st.sampled_from(MARKUP))
    tree = st.recursive(
        leaf,
        lambda inner: element(st.lists(inner, max_size=4)),
        max_leaves=12,
    )
    return st.lists(tree, max_size=4)


def documents() -> st.SearchStrategy[bytes]:
    top = st.one_of(
        element(content()),
        st.builds(lambda body: b"<a>" + b"".join(body) + b"</a>", content()),
        st.builds(lambda body: b"<c><a>" + b"".join(body) + b"</a></c>", content()),
        st.sampled_from(TEXTS),
    )
    return st.lists(top, max_size=5).map(
        lambda items: b"<r>" + b"".join(items) + b"</r>"
    )


def damaged(document: bytes, data) -> bytes:
    """A copy of ``document`` truncated or with one ASCII byte replaced.

    (Splitting a multi-byte character could leave invalid UTF-8 in a tag
    name, which the unguided scanner decodes and a dead scan never does.)
    """
    index = data.draw(st.integers(0, len(document) - 1))
    if data.draw(st.booleans()):
        return document[:index]
    if document[index] >= 0x80:
        return document
    replacement = data.draw(st.sampled_from(list(b"<>/&'= ")))
    return document[:index] + bytes([replacement]) + document[index + 1 :]


# ---------------------------------------------------------------------------


class TestCanonicalForms:
    """What the scanner writes instead of giving up, one form at a time."""

    CASES = {
        b"<a></a>": "<a/>",
        b"<a/>": "<a/>",
        b"<a />": "<a/>",
        b"<a ></a >": "<a/>",
        b"<a><b></b><!-- c --></a>": "<a><b/></a>",
        b"<a><!-- c --></a>": "<a/>",
        b"<a> \n </a>": "<a/>",
        b"<a><?pi?>x<!-- c -->y</a>": "<a>xy</a>",
        b'<a id="1" x=""><b/></a>': "<a><id>1</id><x/><b/></a>",
        b'<a id="1"/>': "<a><id>1</id></a>",
        b"<a id='&amp; &lt;y&gt; &quot;'/>": "<a><id>&amp; &lt;y&gt; \"</id></a>",
        b"<a>1 &amp; 2 &gt; 0 &#60;</a>": "<a>1 &amp; 2 &gt; 0 &amp;#60;</a>",
        b"<a>1 > 0</a>": "<a>1 &gt; 0</a>",
        b"<a><![CDATA[<x> & y]]></a>": "<a>&lt;x&gt; &amp; y</a>",
        "<a><é>ü</é></a>".encode(): "<a><é>ü</é></a>",
    }

    @pytest.mark.parametrize("source", list(CASES))
    def test_one_span_in_canonical_form(self, source, guides):
        document = b"<r>" + source + b"</r>"
        guided = scanned(document, guides["child"])
        assert guided[0] == StartTag("r") and guided[-1] == EndTag("r")
        (span,) = guided[1:-1]
        assert isinstance(span, Span)
        assert span.text == self.CASES[source]
        assert check(document, guides["child"]) == (1, 0)

    def test_a_canonical_run_stays_verbatim(self, guides):
        subtree = b"<a><b>one</b><b>two</b><b/></a>"
        (span,) = [
            t
            for t in scanned(b"<r>" + subtree + b"</r>", guides["child"])
            if isinstance(t, Span)
        ]
        assert span.text.encode() == subtree
        assert span.tokens == 10


class TestNamesNotUTF8:
    """A name that is not UTF-8 fails alike on every route: the delivering
    scan decodes it, a dead or copied subtree's is only checked."""

    @pytest.mark.parametrize(
        "document",
        [
            b'<r<bad \xff utf-8<b id=""/></r>',  # an attribute name
            b"<r><c><x\xff/></c><a/></r>",
            b'<r><c><x \xff="1"/></c><a/></r>',
            b"<r><c><x></\xff></x></c><a/></r>",
            b"<r><a><b\xff/></a></r>",
        ],
    )
    @pytest.mark.parametrize("name", COPYING)
    def test_fails_alike(self, document, name, guides):
        check(document, guides[name])
        check(
            document,
            guides[name],
            lambda g: FileTokenizer(io.BytesIO(document), chunk_size=16, guide=g),
        )


class TestBails:
    """The four causes: each delivers the match LIVE and counts once."""

    @pytest.mark.parametrize(
        "subtree",
        [
            b"<a><b><a/></b></a>",  # a nested element named like the match
            b'<a><b a="1"/></a>',  # ... or an attribute so named
            b'<a a="1"/>',  # ... on the match itself
            b"<a><b>bad \xff</b></a>",  # invalid UTF-8
            b"<a><b>x</c></a>",  # a syntax error
            b"<a>" + b"<b>filler</b>" * (BATCH_BYTES // 13) + b"</a>",  # too big
        ],
    )
    def test_live_with_one_fallback(self, subtree, guides):
        document = b"<r>" + subtree + b"<a>next</a></r>"
        spans, fallbacks = check(document, guides["child"])
        assert fallbacks == 1
        # The match after a bail is copied again (unless the error ended it).
        assert spans == (0 if b"</c>" in subtree else 1)

    @pytest.mark.parametrize("name", [b"/x", b"!x", b"?x", b"x/"])
    def test_attribute_name_without_a_tag_form(self, name, guides, tmp_path):
        # Written as a tag, the name would not read back as a start tag of
        # that name: the document is malformed, alike on every route (the
        # match bails to LIVE, which reports it).
        document = b"<r><a><b " + name + b'="1"/></a><a>next</a></r>'
        with pytest.raises(XMLSyntaxError) as error:
            list(tokenize(document))
        assert str(error.value) == "malformed attribute in <b> (at offset 6)"
        for route, make in routes(document, tmp_path).items():
            assert check(document, guides["child"], make) == (0, 1), route

    def test_a_span_never_exceeds_one_batch(self, guides):
        body = b"<b>filler</b>" * (BATCH_BYTES // 13 - 2)
        document = b"<r><a>" + body + b"</a></r>"
        spans = [t for t in scanned(document, guides["child"]) if isinstance(t, Span)]
        assert len(spans) == 1 and len(spans[0].text) <= BATCH_BYTES
        assert check(document, guides["child"]) == (1, 0)

    def test_deep_canonical_subtree_needs_no_recursion(self, guides):
        depth = 5000
        subtree = b"<a>" + b"<b>" * depth + b"x" + b"</b>" * depth + b"</a>"
        document = b"<r>" + subtree + b"</r>"
        guided = scanned(document, guides["child"])
        assert [type(t) for t in guided] == [StartTag, Span, EndTag]
        assert guided[1].text.encode() == subtree
        assert guided[1].tokens == 2 * depth + 3


class TestRoutes:
    DOCUMENT = (
        "<r><c><a><b>é日😀</b><![CDATA[ <raw> ]]><b id='日本'/></a></c>"
        "<a><b>one</b><!-- é --><b></b></a><x><a/></x>"
        "<a><b>t</b><a/></a><a>last &amp; least</a></r>"
    ).encode()

    @pytest.mark.parametrize("name", COPYING + ["path-body"])
    def test_every_route(self, name, guides, tmp_path):
        results = {
            route: check(self.DOCUMENT, guides[name], make)
            for route, make in routes(self.DOCUMENT, tmp_path).items()
        }
        for route, (spans, _fallbacks) in results.items():
            if route == "chunked-16":
                continue  # 16-byte batches: most matches outgrow one
            assert results[route] == results["bytes"], route
        if name != "path-body":
            assert results["bytes"][0] > 0

    @pytest.mark.parametrize("chunk_size", range(16, 80, 7))
    def test_every_chunk_size(self, chunk_size, guides):
        for name in COPYING:
            check(
                self.DOCUMENT,
                guides[name],
                lambda g: FileTokenizer(
                    io.BytesIO(self.DOCUMENT), chunk_size=chunk_size, guide=g
                ),
            )

    def test_window_stays_bounded_while_copying(self, guides):
        document = b"<r>" + b"<a><b>filler text</b></a>" * 2000 + b"</r>"
        tokenizer = FileTokenizer(
            io.BytesIO(document),
            chunk_size=64,
            guide=guides["child"].for_run(BufferStats()),
        )
        widest = spans = 0
        for token in tokenizer:
            widest = max(widest, tokenizer.window_size)
            spans += isinstance(token, Span)
        assert spans == 2000
        assert widest < 64 * 8


class TestErrors:
    MALFORMED = [
        b"<r><a><b>x</c></a></r>",  # mismatch inside a match
        b"<r><a><b>never closed</a></r>",  # mismatch against the match root
        b"<r><a><!-- never closed </a></r>",
        b"<r><a><![CDATA[ never closed </a></r>",
        b"<r><a><?pi never closed </a></r>",
        b"<r><a><b y=1/></a></r>",
        b"<r><a y='v></a></r>",
        b"<r><a><b y></b></a></r>",
        b"<r><a><></></a></r>",
        b"<r><a><b></ ></a></r>",
        b"<r><a><b>never closed",
        b"<r><a><b",
        b"<r><a></a",
        b"<r>\n<a>\n  <b>\n  </c>\n</a></r>",
        b"<a><b/></a><a/>",  # second root, both matches
        b"<a/>trailing",
    ]

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_same_error_same_place(self, bad, guides):
        with pytest.raises(XMLSyntaxError):
            list(tokenize(bad))
        for name in QUERIES:
            check(bad, guides[name])

    @pytest.mark.parametrize("bad", MALFORMED)
    @pytest.mark.parametrize("chunk_size", [16, 23, 64])
    def test_file_mode_same_error_same_place(self, bad, chunk_size, guides):
        for name in ("child", "descendant"):
            check(
                bad,
                guides[name],
                lambda g: FileTokenizer(
                    io.BytesIO(bad), chunk_size=chunk_size, guide=g
                ),
            )


class TestGeneratedDocuments:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(document=documents(), name=st.sampled_from(sorted(QUERIES)))
    def test_every_route_agrees(self, document, name, guides):
        with tempfile.TemporaryDirectory() as directory:
            for make in routes(document, Path(directory)).values():
                check(document, guides[name], make)

    @settings(max_examples=150, deadline=None)
    @given(document=documents(), name=st.sampled_from(COPYING), data=st.data())
    def test_damaged_documents_fail_alike(self, document, name, data, guides):
        bad = damaged(document, data)
        check(bad, guides[name])
        check(
            bad,
            guides[name],
            lambda g: FileTokenizer(io.BytesIO(bad), chunk_size=16, guide=g),
        )

    @settings(max_examples=60, deadline=None)
    @given(document=documents())
    def test_without_whitespace_stripping(self, document):
        guide = chain_guide(QUERIES["child"])
        plain, plain_error = drain(tokenize(document, strip_whitespace=False))
        guided, guided_error = drain(
            XMLTokenizer(
                document,
                guide=guide.for_run(BufferStats()),
                strip_whitespace=False,
            )
        )
        replay(guided, plain, guide)
        assert str(guided_error) == str(plain_error)
