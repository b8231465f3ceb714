"""Failure injection: malformed input, bad queries, adversarial documents."""

import pytest

from repro.engine import GCXEngine
from repro.xmlio import XMLSyntaxError
from repro.xquery import ScopeError, XQSyntaxError

QUERY = "<o>{for $a in /r/a return $a}</o>"


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc",
        [
            "<r><a></r>",  # mismatched nesting
            "<r><a/>",  # truncated stream
            "<r/><r/>",  # two roots
            "",  # empty
        ],
    )
    def test_syntax_error_propagates(self, doc):
        with pytest.raises(XMLSyntaxError):
            GCXEngine().run(QUERY, doc)

    def test_error_after_partial_output(self):
        """The error surfaces even when evaluation already produced output."""
        doc = "<r><a>ok</a><a>ok2</a><broken>"
        with pytest.raises(XMLSyntaxError):
            GCXEngine().run(QUERY, doc)

    def test_truncation_mid_match_detected(self):
        doc = "<r><a><deep>"
        with pytest.raises(XMLSyntaxError):
            GCXEngine().run(QUERY, doc)


class TestBadQueries:
    def test_parse_error(self):
        with pytest.raises(XQSyntaxError):
            GCXEngine().compile("<o>{for $a in}</o>")

    def test_scope_error(self):
        with pytest.raises(ScopeError):
            GCXEngine().compile("<o>{$undefined/a}</o>")

    def test_rebinding_error(self):
        with pytest.raises(ScopeError):
            GCXEngine().compile(
                "<o>{for $a in /r/a return for $a in /r/b return $a}</o>"
            )


class TestAdversarialDocuments:
    def test_very_deep_nesting(self):
        depth = 200
        doc = "<r>" + "<a>" * depth + "<b/>" + "</a>" * depth + "</r>"
        result = GCXEngine().run("<o>{for $b in //b return <hit/>}</o>", doc)
        assert result.output == "<o><hit/></o>"

    def test_many_siblings(self):
        doc = "<r>" + "<a><k>x</k></a>" * 1000 + "</r>"
        result = GCXEngine().run("<o>{for $a in /r/a return $a/k}</o>", doc)
        assert result.output.count("<k>") == 1000
        assert result.stats.hwm_nodes < 10  # streaming, not accumulating

    def test_pathological_tag_reuse(self):
        """Same tag on every level: descendant matching multiplicities."""
        doc = "<a>" + "<a>" * 10 + "t" + "</a>" * 10 + "</a>"
        result = GCXEngine().run(
            "<o>{for $x in //a return <m/>}</o>", doc
        )
        assert result.output.count("<m/>") == 11
        assert result.stats.role_accounting_balanced()

    def test_huge_text_node(self):
        doc = f"<r><a><k>{'x' * 100_000}</k></a></r>"
        result = GCXEngine().run("<o>{for $a in /r/a return $a/k}</o>", doc)
        assert len(result.output) > 100_000

    def test_unicode_content(self):
        doc = "<r><a><k>café 中文 \U0001f600</k></a></r>"
        result = GCXEngine().run("<o>{for $a in /r/a return $a/k}</o>", doc)
        assert "café 中文 \U0001f600" in result.output
