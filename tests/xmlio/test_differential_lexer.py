"""Differential tests: chunk-scanning tokenizer vs. the frozen reference.

The optimized tokenizer (:mod:`repro.xmlio.lexer`) must emit a token stream
byte-identical to the pre-optimization implementation preserved in
:mod:`tests.xmlio._reference_lexer`, over the XMark corpus, adversarial
constructs (CDATA spanning chunk boundaries, entities, bachelor tags), and
hypothesis-generated documents — in every flag combination and for the
file-backed chunked variant at many chunk sizes.
"""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmark import generate_xmark
from repro.xmlio.filelexer import FileTokenizer
from repro.xmlio.lexer import XMLSyntaxError, tokenize

from tests.properties.strategies import documents
from tests.xmlio._reference_lexer import ReferenceTokenizer, reference_tokenize

ADVERSARIAL_DOCUMENTS = [
    # CDATA with markup-looking payload (and split by any chunk boundary).
    "<a><![CDATA[<raw> & </stuff> ]]> tail]]></a>",
    "<a><![CDATA[]]></a>",
    "<a>t<![CDATA[   ]]>t</a>",
    # Entities, adjacent and at run edges.
    "<a>&amp;&lt;&gt;&quot;&apos;</a>",
    "<a>x&amp;y</a><!---->",
    "<a b='&amp;&lt;'>&gt;</a>",
    # Bachelor tags, nested and with attributes.
    "<a/>",
    "<a><b/><c/><b/></a>",
    '<a><b x="1"/><b x="2" y="3"/></a>',
    # Attribute conversion order and empty values.
    '<person id="p0" name="n"><child/></person>',
    '<e a=""/>',
    "<e a='v'>text</e>",
    # Skipped constructs interleaved with content.
    "<?xml version='1.0'?><!DOCTYPE r [<!ELEMENT r (a)*>]><r><!-- c --><a/></r>",
    "<a><!-- <not> a <tag> --><b>t</b><?pi data?></a>",
    # Whitespace-only text in every position.
    "<a>  <b> x </b>  </a>",
    # Deep nesting and long tag names.
    "<aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa><b>"
    + "x" * 100
    + "</b></aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa>",
]

FLAG_COMBINATIONS = [
    {"strip_whitespace": True},
    {"strip_whitespace": False},
]


class TestAdversarialDifferential:
    @pytest.mark.parametrize("document", ADVERSARIAL_DOCUMENTS)
    @pytest.mark.parametrize(
        "flags",
        FLAG_COMBINATIONS,
        # Attributes are always converted; "attrs=True" keeps ids stable.
        ids=lambda f: f"strip={f['strip_whitespace']},attrs=True",
    )
    def test_identical_streams(self, document, flags):
        assert list(tokenize(document, **flags)) == list(
            reference_tokenize(document, **flags)
        )

    @pytest.mark.parametrize("document", ADVERSARIAL_DOCUMENTS)
    @pytest.mark.parametrize("chunk_size", [16, 17, 23, 64, 1024])
    def test_chunked_identical_streams(self, document, chunk_size):
        chunked = list(FileTokenizer(io.StringIO(document), chunk_size=chunk_size))
        assert chunked == list(reference_tokenize(document))

    @pytest.mark.parametrize("document", ADVERSARIAL_DOCUMENTS)
    @pytest.mark.parametrize("chunk_size", [16, 17, 23, 64, 1024])
    def test_chunked_identical_streams_unstripped(self, document, chunk_size):
        # Whitespace-only text kept, cut anywhere by a chunk boundary.
        chunked = FileTokenizer(
            io.StringIO(document), chunk_size=chunk_size, strip_whitespace=False
        )
        assert list(chunked) == list(
            reference_tokenize(document, strip_whitespace=False)
        )

    def test_cdata_split_at_every_chunk_boundary(self):
        """The CDATA prefix/terminator must survive any chunk split."""
        document = "<a>pre<![CDATA[mid <x> &amp; ]] ]]>post</a>"
        expected = list(reference_tokenize(document))
        for chunk_size in range(16, len(document) + 1):
            streamed = list(
                FileTokenizer(io.StringIO(document), chunk_size=chunk_size)
            )
            assert streamed == expected, f"chunk_size={chunk_size}"


class TestXMarkDifferential:
    def test_xmark_corpus_identical(self, xmark_doc_small):
        assert list(tokenize(xmark_doc_small)) == list(
            reference_tokenize(xmark_doc_small)
        )

    def test_xmark_corpus_identical_unstripped(self, xmark_doc_small):
        flags = {"strip_whitespace": False}
        assert list(tokenize(xmark_doc_small, **flags)) == list(
            reference_tokenize(xmark_doc_small, **flags)
        )

    def test_larger_xmark_seeds(self):
        for seed in (1, 2, 3):
            document = generate_xmark(0.0005, seed=seed)
            assert list(tokenize(document)) == list(reference_tokenize(document))


class TestErrorDifferential:
    """Both tokenizers agree on what is an error, and where."""

    ERROR_CASES = [
        "<a><b></a></b>",
        "<a>",
        "</a>",
        "<a></a><b></b>",
        "text only",
        "<a></a>trailing",
        "<a><b x=1/></a>",
        "<a><b x='v></b></a>",
        "<>empty</>",
        "<a><![CDATA[unterminated</a>",
        "<a><!-- unterminated</a>",
        # Attribute names that would not read back as tag names.
        '<a><b ="1"/></a>',
        '<a><b x="2"a y="3"/></a>',
        '<a><b /x="1"/></a>',
    ]

    @pytest.mark.parametrize("bad", ERROR_CASES)
    def test_same_error_and_position(self, bad):
        with pytest.raises(XMLSyntaxError) as new_error:
            list(tokenize(bad))
        with pytest.raises(XMLSyntaxError) as reference_error:
            list(reference_tokenize(bad))
        assert str(new_error.value) == str(reference_error.value)

    @pytest.mark.parametrize("bad", ERROR_CASES)
    def test_tokens_before_the_error_match(self, bad):
        def drain(tokenizer):
            tokens = []
            try:
                for token in tokenizer:
                    tokens.append(token)
            except XMLSyntaxError:
                pass
            return tokens

        assert drain(tokenize(bad)) == drain(reference_tokenize(bad))

    @pytest.mark.parametrize("bad", ERROR_CASES)
    @pytest.mark.parametrize("chunk_size", [16, 64])
    def test_file_mode_same_error_and_position(self, bad, chunk_size):
        """Window compaction must not shift reported error offsets."""
        with pytest.raises(XMLSyntaxError) as file_error:
            list(FileTokenizer(io.StringIO(bad), chunk_size=chunk_size))
        with pytest.raises(XMLSyntaxError) as reference_error:
            list(reference_tokenize(bad))
        assert str(file_error.value) == str(reference_error.value)

    def test_file_mode_unclosed_element_offset_after_compaction(self):
        # Large enough that the consumed prefix is compacted away before
        # EOF: the error offset must still be document-absolute.
        bad = "<a>" + "<b>x</b>" * 40  # never closes <a>
        with pytest.raises(XMLSyntaxError) as file_error:
            list(FileTokenizer(io.StringIO(bad), chunk_size=16))
        with pytest.raises(XMLSyntaxError) as reference_error:
            list(reference_tokenize(bad))
        assert str(file_error.value) == str(reference_error.value)
        assert f"offset {len(bad)}" in str(file_error.value)


class TestHypothesisDifferential:
    @settings(max_examples=150, deadline=None)
    @given(document=documents(max_depth=4))
    def test_random_documents_identical(self, document):
        assert list(tokenize(document)) == list(reference_tokenize(document))

    @settings(max_examples=60, deadline=None)
    @given(document=documents(max_depth=3), chunk_size=st.integers(16, 48))
    def test_random_documents_chunked_identical(self, document, chunk_size):
        streamed = list(FileTokenizer(io.StringIO(document), chunk_size=chunk_size))
        assert streamed == list(reference_tokenize(document))

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.text(
                alphabet=st.sampled_from(" \t\nxy&<>'\""), min_size=0, max_size=8
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_escaped_text_runs_identical(self, texts):
        from repro.xmlio.tokens import escape_text

        body = "</b><b>".join(escape_text(t) for t in texts)
        document = f"<a><b>{body}</b></a>"
        assert list(tokenize(document)) == list(reference_tokenize(document))


class TestReferenceIsFrozen:
    def test_reference_still_steps_one_token_at_a_time(self):
        """Guard against 'optimizing' the oracle: it must not batch."""
        tokenizer = ReferenceTokenizer("<a><b/></a>")
        assert not hasattr(tokenizer, "_out")
        first = tokenizer.next_token()
        assert str(first) == "<a>"
