"""Bytes-domain lexer guarantees: UTF-8 boundaries, inputs, lazy decode.

The rewrite moved the scan loop from ``str`` to ``bytes``, which creates
three new ways to be wrong that the str lexer could not exhibit:

* a multi-byte code point can straddle a *chunk* boundary (file mode) or
  a *batch* boundary (the byte-budget scan window) and must never be
  split mid-sequence;
* the public entry points must keep accepting ``str`` (and now also
  ``bytes``/``bytearray``/``memoryview``) with identical token streams;
* text decoding is deferred until ``.content`` is read, so skipped
  subtrees must provably never pay for a UTF-8 decode or entity
  unescape (:func:`repro.xmlio.tokens.text_decode_count`).

Every differential assertion here compares against the frozen
char-stepping oracle in :mod:`tests.xmlio._reference_lexer`.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import GCXEngine
from repro.xmlio import text_decode_count
from repro.xmlio.filelexer import FileTokenizer
from repro.xmlio.lexer import XMLSyntaxError, XMLTokenizer, tokenize
from repro.xmlio.tokens import Text

from tests.xmlio._reference_lexer import reference_tokenize

# Code points of every UTF-8 sequence length: 1 (ASCII), 2 (é), 3 (日,
# and the em-dash that lives inside attribute values), 4 (😀).
MULTIBYTE_DOCUMENTS = [
    "<a>héllo wörld</a>",
    "<a>日本語のテキスト</a>",
    "<a>mixed é 日 😀 tail</a>",
    "<a käse='blå'>smörgåsbord</a>",
    "<a><b>😀😀😀</b><c>—dash—</c></a>",
    "<é>中身</é>",
    "<a>&amp;é&lt;日&gt;😀</a>",
    "<a><![CDATA[é & 日 <raw> 😀]]></a>",
    "<a><!-- é日😀 --><b x='日'/></a>",
]


def multibyte_chunk_sizes(document: str) -> range:
    """Every chunk size small enough to split some multi-byte sequence."""
    return range(1, min(len(document.encode("utf-8")), 40))


class TestMultiByteDifferential:
    @pytest.mark.parametrize("document", MULTIBYTE_DOCUMENTS)
    def test_in_memory_identical(self, document):
        assert list(tokenize(document)) == list(reference_tokenize(document))

    @pytest.mark.parametrize("document", MULTIBYTE_DOCUMENTS)
    def test_every_chunk_boundary(self, document):
        """File mode must reassemble code points split across reads.

        ``io.BytesIO`` feeds raw UTF-8, so a 1-byte chunk size places a
        boundary inside *every* multi-byte sequence in the document.
        """
        expected = list(reference_tokenize(document))
        raw = document.encode("utf-8")
        for chunk_size in multibyte_chunk_sizes(document):
            streamed = list(FileTokenizer(io.BytesIO(raw), chunk_size=chunk_size))
            assert streamed == expected, f"chunk_size={chunk_size}"

    @pytest.mark.parametrize("document", MULTIBYTE_DOCUMENTS)
    def test_every_batch_boundary(self, document):
        """The byte-budget batch window must not truncate a code point.

        Shrinking ``_batch_bytes`` to 1 forces the scan to stop and
        resume between every pair of bytes, the worst case the 64 KiB
        production budget can only hit at multiples of the window.
        """
        expected = list(reference_tokenize(document))
        for budget in (1, 2, 3, 7):
            tokenizer = XMLTokenizer(document)
            tokenizer._batch_bytes = budget
            assert list(tokenizer) == expected, f"batch_bytes={budget}"

    def test_str_chunks_re_encode_safely(self):
        """A text-mode file yields str chunks; per-chunk encode must
        concatenate to the same byte stream as a whole-document encode."""
        document = "<a>" + "é日😀" * 50 + "</a>"
        for chunk_size in (1, 3, 5, 16):
            streamed = list(
                FileTokenizer(io.StringIO(document), chunk_size=chunk_size)
            )
            assert streamed == list(reference_tokenize(document))


class TestInputTypes:
    """``tokenize`` accepts str and every bytes-like spelling identically."""

    DOCUMENT = "<a x='é'>日本 &amp; 😀<b/></a>"

    def test_all_spellings_agree(self):
        expected = list(reference_tokenize(self.DOCUMENT))
        raw = self.DOCUMENT.encode("utf-8")
        for source in (self.DOCUMENT, raw, bytearray(raw), memoryview(raw)):
            assert list(tokenize(source)) == expected, type(source).__name__

    def test_engine_accepts_bytes_documents(self):
        engine = GCXEngine()
        query = "<out>{ for $b in /a/b return $b }</out>"
        document = "<a><b>é日😀</b></a>"
        from_str = engine.run(query, document).output
        from_bytes = engine.run(query, document.encode("utf-8")).output
        assert from_str == from_bytes == "<out><b>é日😀</b></out>"


class TestHypothesisMultiByte:
    @settings(max_examples=100, deadline=None)
    @given(
        text=st.text(
            alphabet=st.sampled_from("aé日😀 ßԱ中"),
            min_size=0,
            max_size=12,
        ),
        chunk_size=st.integers(1, 24),
    )
    def test_random_multibyte_text_chunked(self, text, chunk_size):
        from repro.xmlio.tokens import escape_text

        document = f"<a><b>{escape_text(text)}</b></a>"
        expected = list(reference_tokenize(document))
        raw = document.encode("utf-8")
        assert list(tokenize(raw)) == expected
        streamed = list(FileTokenizer(io.BytesIO(raw), chunk_size=chunk_size))
        assert streamed == expected

    @settings(max_examples=60, deadline=None)
    @given(
        value=st.text(alphabet=st.sampled_from("xé日😀"), min_size=0, max_size=8),
        budget=st.integers(1, 16),
    )
    def test_random_multibyte_attributes_batched(self, value, budget):
        # The alphabet has no quotes or markup, so no escaping needed.
        document = f'<a k="{value}"><c/></a>'
        tokenizer = XMLTokenizer(document)
        tokenizer._batch_bytes = budget
        assert list(tokenizer) == list(reference_tokenize(document))


class TestErrorLocations:
    """Byte-absolute offsets plus lazily computed 1-based line/column."""

    def test_offset_counts_bytes_not_characters(self):
        # "é日😀" is 4 characters but 9 UTF-8 bytes; the unclosed-tag
        # error must report the *byte* offset (documented contract).
        bad = "<a>é日😀"
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(tokenize(bad))
        assert excinfo.value.position == len(bad.encode("utf-8"))

    def test_line_and_column_in_memory(self):
        bad = "<a>\n  <b>\n</a>"
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(tokenize(bad))
        error = excinfo.value
        # The mismatched </a> starts on line 3, column 1.
        assert error.position == bad.index("</a>")
        assert error.line == 3
        assert error.column == 1

    def test_column_counts_bytes_on_the_error_line(self):
        bad = "<a>\né<b></a></b>"
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(tokenize(bad))
        error = excinfo.value
        assert error.line == 2
        # "é" is 2 bytes, so the </a> at character column 5 reports
        # byte column 6 — consistent with the byte-offset contract.
        assert error.column == bad.encode("utf-8").index(b"</a>") - bad.index("\n")

    def test_location_survives_window_compaction(self):
        """File mode discards consumed prefixes; line numbers must not."""
        bad = "<a>\n" + "<b>x</b>\n" * 40 + "</wrong>"
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(FileTokenizer(io.StringIO(bad), chunk_size=16))
        error = excinfo.value
        assert error.position == bad.index("</wrong>")
        assert error.line == 42
        assert error.column == 1

    def test_first_line_column_is_one_based(self):
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(tokenize("</a>"))
        error = excinfo.value
        assert (error.line, error.column) == (1, 1)

    def test_reference_errors_have_no_location_window(self):
        """The frozen oracle never attaches a window: location is None,
        not a crash — the lazy computation must tolerate its absence."""
        with pytest.raises(XMLSyntaxError) as excinfo:
            list(reference_tokenize("</a>"))
        assert excinfo.value.line is None
        assert excinfo.value.column is None

    def test_errors_pickle_round_trip(self):
        import pickle

        with pytest.raises(XMLSyntaxError) as excinfo:
            list(tokenize("<a>\n</b>"))
        excinfo.value.ensure_location()
        clone = pickle.loads(pickle.dumps(excinfo.value))
        assert clone.position == excinfo.value.position
        assert str(clone) == str(excinfo.value)


class TestDecodeOnDemand:
    """Skipped-subtree text is provably never decoded (acceptance
    criterion: the decode-path counter stays flat for a document whose
    projection prunes a large subtree)."""

    def test_pruned_subtree_never_decodes(self):
        # /site/keep matches only childless elements; everything under
        # <skip> — thousands of text nodes and attribute values — is
        # pruned by the preprojector and must never reach ``.content``.
        document = (
            "<site><keep/><keep/><skip>"
            + "<item id='é日'>päyload tëxt 😀</item>" * 500
            + "</skip></site>"
        ).encode("utf-8")
        engine = GCXEngine()
        before = text_decode_count()
        result = engine.run("<out>{ for $k in /site/keep return $k }</out>", document)
        assert result.output == "<out><keep/><keep/></out>"
        assert text_decode_count() == before, (
            "projection pruned every text node, yet the lexer decoded some"
        )

    def test_kept_text_decodes_exactly_once(self):
        # ``$k/text()`` buffers the text node; a bare ``$k`` would be a
        # copy site, whose subtree arrives as one span and is never a
        # LazyText at all.
        document = "<site><keep>é😀</keep><skip>dropped</skip></site>".encode()
        engine = GCXEngine()
        before = text_decode_count()
        result = engine.run(
            "<out>{ for $k in /site/keep return $k/text() }</out>", document
        )
        assert result.output == "<out>é😀</out>"
        # One decode for the kept text node; the skipped one stays raw.
        assert text_decode_count() == before + 1

    def test_lazy_text_equality_defers_until_compared(self):
        tokens = [t for t in tokenize("<a>x&amp;y</a>") if isinstance(t, Text)]
        assert tokens == [Text("x&y")]
