"""Tests for the streaming XML tokenizer."""

import io

import pytest

from repro.xmlio import EndTag, StartTag, Text, XMLSyntaxError, tokenize
from repro.xmlio.filelexer import FileTokenizer


def toks(text, **kwargs):
    return list(tokenize(text, **kwargs))


class TestBasicTokens:
    def test_single_element(self):
        assert toks("<a></a>") == [StartTag("a"), EndTag("a")]

    def test_bachelor_tag(self):
        assert toks("<a/>") == [StartTag("a"), EndTag("a")]

    def test_nested_elements(self):
        assert toks("<a><b/></a>") == [
            StartTag("a"),
            StartTag("b"),
            EndTag("b"),
            EndTag("a"),
        ]

    def test_text_content(self):
        assert toks("<a>hello</a>") == [StartTag("a"), Text("hello"), EndTag("a")]

    def test_whitespace_only_text_stripped_by_default(self):
        assert toks("<a>  <b/>  </a>") == [
            StartTag("a"),
            StartTag("b"),
            EndTag("b"),
            EndTag("a"),
        ]

    def test_whitespace_kept_on_request(self):
        tokens = toks("<a> <b/></a>", strip_whitespace=False)
        assert Text(" ") in tokens

    def test_tag_names_with_underscore_and_digits(self):
        assert toks("<open_auction1/>")[0] == StartTag("open_auction1")


class TestEntitiesAndEscapes:
    def test_predefined_entities_resolved(self):
        assert toks("<a>a &amp; b &lt; c &gt; d</a>")[1] == Text("a & b < c > d")

    def test_quote_entities(self):
        assert toks("<a>&quot;x&apos;</a>")[1] == Text("\"x'")

    def test_cdata_becomes_text(self):
        assert toks("<a><![CDATA[<raw> & stuff]]></a>")[1] == Text("<raw> & stuff")


class TestAttributeConversion:
    def test_attribute_becomes_leading_subelement(self):
        assert toks('<person id="p0"><name/></person>') == [
            StartTag("person"),
            StartTag("id"),
            Text("p0"),
            EndTag("id"),
            StartTag("person"[:0] + "name"),
            EndTag("name"),
            EndTag("person"),
        ]

    def test_multiple_attributes_keep_order(self):
        tokens = toks('<e a="1" b="2"/>')
        assert tokens == [
            StartTag("e"),
            StartTag("a"),
            Text("1"),
            EndTag("a"),
            StartTag("b"),
            Text("2"),
            EndTag("b"),
            EndTag("e"),
        ]

    def test_empty_attribute_value(self):
        tokens = toks('<e a=""/>')
        assert tokens == [StartTag("e"), StartTag("a"), EndTag("a"), EndTag("e")]

    def test_attribute_entities(self):
        tokens = toks('<e a="x &amp; y"/>')
        assert Text("x & y") in tokens

    def test_single_quoted_attribute(self):
        tokens = toks("<e a='v'/>")
        assert Text("v") in tokens


class TestSkippedConstructs:
    def test_comments_skipped(self):
        assert toks("<a><!-- not <b/> here --></a>") == [StartTag("a"), EndTag("a")]

    def test_processing_instruction_skipped(self):
        assert toks("<?xml version='1.0'?><a/>") == [StartTag("a"), EndTag("a")]

    def test_doctype_skipped(self):
        text = "<!DOCTYPE site SYSTEM 'auction.dtd'><a/>"
        assert toks(text) == [StartTag("a"), EndTag("a")]

    def test_doctype_with_internal_subset(self):
        text = "<!DOCTYPE r [<!ELEMENT r (a)*>]><r/>"
        assert toks(text) == [StartTag("r"), EndTag("r")]


class TestWellFormednessErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "<a><b></a></b>",  # mismatched nesting
            "<a>",  # unclosed
            "</a>",  # close without open
            "<a></a><b/>",  # two roots
            "text only",  # no root
            "",  # empty input
            "<a",  # unterminated tag
            "<a b></a>",  # malformed attribute
            "<a b='x></a>",  # unterminated attribute
            "<a>&amp;</a><a/>",  # second root after valid one
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(XMLSyntaxError):
            toks(bad)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as info:
            toks("<a><b></a>")
        assert info.value.position >= 0

    def test_text_outside_root_rejected(self):
        with pytest.raises(XMLSyntaxError):
            toks("<a/>trailing")

    @pytest.mark.parametrize("chunk_size", [None, 4])
    @pytest.mark.parametrize(
        "tag", [b"< \xff/>", b"<\xff>", b'<b \xff="1"/>', b"</\xff>"]
    )
    def test_tag_name_not_utf8_fails_after_earlier_tokens(self, tag, chunk_size):
        """A tag or attribute name that is not UTF-8 is a syntax error at
        its tag, whatever the batch size: every token before it is
        delivered first."""
        document = b"<r><a>x</a>" + tag + b"</r>"
        if chunk_size is None:
            lexer = tokenize(document)
        else:
            lexer = FileTokenizer(io.BytesIO(document), chunk_size=chunk_size)
        seen = []
        with pytest.raises(XMLSyntaxError, match="tag name is not UTF-8") as error:
            for token in lexer:
                seen.append(token)
        assert seen == [StartTag("r"), StartTag("a"), Text("x"), EndTag("a")]
        assert (error.value.position, error.value.column) == (11, 12)


class TestStreamingBehaviour:
    def test_tokenizer_is_lazy(self):
        """Tokens come out as they are asked for, without scanning the
        tail: iteration reads one batch ahead of the consumer, no more."""
        from repro.xmlio import XMLTokenizer

        document = "<a><b/><c/></a>"
        lexer = XMLTokenizer(document)
        lexer._batch_bytes = 3  # one construct per batch
        tokens = iter(lexer)
        assert next(tokens) == StartTag("a")
        assert next(tokens) == StartTag("b")
        # The rest of the document is untouched so far; consume it now.
        assert lexer._pos == len("<a><b/>")
        rest = list(tokens)
        assert rest == [EndTag("b"), StartTag("c"), EndTag("c"), EndTag("a")]

    def test_iterator_protocol(self):
        assert list(iter(tokenize("<a/>"))) == [StartTag("a"), EndTag("a")]
