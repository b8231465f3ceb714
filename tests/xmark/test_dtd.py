"""Tests for the adapted XMark DTD: rendering, tag set and validation."""

import pytest

from repro.analysis.schema import SchemaViolation
from repro.xmark import generate_xmark
from repro.xmark.schema import xmark_schema


class TestRenderDtd:
    def test_contains_all_content_models(self):
        dtd = xmark_schema().to_dtd()
        assert "<!ELEMENT site (regions, categories, catgraph, people, " in dtd
        assert "<!ELEMENT person (id, name, emailaddress, phone?, " in dtd

    def test_occurrence_indicators(self):
        dtd = xmark_schema().to_dtd()
        assert "incategory+" in dtd  # one or more
        assert "person*" in dtd  # zero or more
        assert "privacy?" in dtd  # optional

    def test_leaves_are_pcdata(self):
        dtd = xmark_schema().to_dtd()
        assert "<!ELEMENT price (#PCDATA)>" in dtd
        assert "<!ELEMENT income (#PCDATA)>" in dtd

    def test_attributes_are_subelements(self):
        """The adaptation: no ATTLIST anywhere, ids are elements."""
        dtd = xmark_schema().to_dtd()
        assert "ATTLIST" not in dtd
        assert "<!ELEMENT id (#PCDATA)>" in dtd


class TestSchemaTags:
    def test_contains_structure_and_leaves(self):
        tags = xmark_schema().tags
        assert {"site", "person", "income", "closed_auction", "text"} <= tags

    def test_rejects_unknown(self):
        assert "not-an-xmark-tag" not in xmark_schema().tags


class TestValidateDocument:
    def test_generated_documents_validate(self):
        document = generate_xmark(0.0008, seed=31)
        checked = xmark_schema().validate_document(document)
        assert checked > 100

    def test_unknown_element_rejected(self):
        with pytest.raises(SchemaViolation):
            xmark_schema().validate_document("<site><wat/></site>")

    def test_unknown_element_message(self):
        # Put the unknown tag where the parent's model tolerates scanning.
        with pytest.raises(SchemaViolation):
            xmark_schema().validate_document("<wat/>")

    def test_order_violation_rejected(self):
        # categories before regions violates site's content model.
        with pytest.raises(SchemaViolation, match="content model"):
            xmark_schema().validate_document(
                "<site><categories/><regions/><catgraph/><people/>"
                "<open_auctions/><closed_auctions/></site>"
            )

    def test_leaf_with_children_rejected(self):
        doc = (
            "<site><regions><africa><item><id><nested/></id></item></africa>"
            "<asia/><australia/><europe/><namerica/><samerica/></regions>"
        )
        with pytest.raises(SchemaViolation):
            xmark_schema().validate_document(doc + _site_tail())


def _site_tail() -> str:
    return "<categories/><catgraph/><people/><open_auctions/><closed_auctions/></site>"
