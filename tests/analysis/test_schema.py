"""The Schema API: DTD parsing, content-model queries, validation.

One :class:`repro.analysis.schema.Schema` object now backs everything
schema-shaped in the codebase — the XMark generator's content tables,
the ``gcx dtd`` output, the CLI's ``--schema`` flag and the serve
protocol's register-frame DTD all funnel into it — so these tests pin
both the DTD round-trip and the derived facts the constraint pass
consumes (occurrence ceilings, closers, reachability).
"""

from __future__ import annotations

import pytest

from repro.analysis.schema import ChildSpec, Schema, SchemaViolation, load_dtd
from repro.xmark.schema import xmark_schema

BIB_DTD = """
<!ELEMENT bib (book*, journal?)>
<!ELEMENT book (title, author*, price?)>
<!ELEMENT journal (title)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT price (#PCDATA)>
"""


@pytest.fixture(scope="module")
def bib() -> Schema:
    return Schema.from_dtd_text(BIB_DTD)


class TestDtdParsing:
    def test_tags_and_roots(self, bib):
        assert bib.tags == {"bib", "book", "journal", "title", "author", "price"}
        assert bib.roots == {"bib"}

    def test_leaves_are_pcdata_elements(self, bib):
        assert {"title", "author", "price"} <= bib.leaves

    def test_children_of(self, bib):
        specs = bib.children_of("book")
        assert [spec.tag for spec in specs] == ["title", "author", "price"]

    def test_cardinalities(self, bib):
        assert bib.at_most_once("book", "title")
        assert bib.at_most_once("book", "price")
        assert not bib.at_most_once("book", "author")  # author*
        assert bib.max_occurs("bib", "book") is None  # unbounded

    def test_allows(self, bib):
        assert bib.allows("bib", "book")
        assert not bib.allows("book", "journal")
        assert not bib.allows("title", "book")  # leaf

    def test_rejects_garbage(self):
        with pytest.raises(SchemaViolation):
            Schema.from_dtd_text("not a dtd at all")

    def test_load_dtd_from_path(self, tmp_path, bib):
        path = tmp_path / "bib.dtd"
        path.write_text(BIB_DTD, encoding="utf-8")
        assert load_dtd(path).tags == bib.tags

    def test_roundtrip_through_to_dtd(self, bib):
        again = Schema.from_dtd_text(bib.to_dtd())
        assert again.tags == bib.tags
        for parent in bib.models:
            assert again.children_of(parent) == bib.children_of(parent)


class TestDerivedFacts:
    def test_closers_are_the_following_siblings(self, bib):
        # Once <author> opens under <book>, <title> can no longer occur.
        assert bib.closers("book", "title") == {"author", "price"}
        # Nothing follows price, so nothing closes it early.
        assert bib.closers("book", "price") == frozenset()

    def test_reachable_from(self, bib):
        assert "title" in bib.reachable_from("bib")
        assert "bib" not in bib.reachable_from("book")

    def test_text_bearing(self, bib):
        assert "title" in bib.text_bearing
        assert "bib" not in bib.text_bearing


class TestValidation:
    def test_conforming_document(self, bib):
        checked = bib.validate_document(
            "<bib><book><title>T</title><author>A</author></book></bib>"
        )
        assert checked == 4

    def test_order_violation(self, bib):
        with pytest.raises(SchemaViolation):
            bib.validate_document(
                "<bib><book><author>A</author><title>T</title></book></bib>"
            )

    def test_cardinality_violation(self, bib):
        with pytest.raises(SchemaViolation):
            bib.validate_document(
                "<bib><book><title>a</title><price>1</price>"
                "<price>2</price></book></bib>"
            )

    def test_unknown_element(self, bib):
        with pytest.raises(SchemaViolation):
            bib.validate_document("<bib><movie/></bib>")


class TestXMarkUnification:
    """The XMark tables and ``gcx dtd`` both go through the one Schema object."""

    def test_xmark_schema_is_a_schema(self):
        schema = xmark_schema()
        assert isinstance(schema, Schema)
        assert schema.roots == {"site"}

    def test_render_dtd_parses_back(self):
        schema = Schema.from_dtd_text(xmark_schema().to_dtd())
        assert schema.tags == xmark_schema().tags

    def test_generated_documents_conform(self):
        from repro.xmark import generate_xmark

        document = generate_xmark(0.001, seed=11)
        assert xmark_schema().validate_document(document) > 0

    def test_reference_positions_are_leaves(self):
        schema = xmark_schema()
        # itemref under bidder carries an IDREF, not the item subtree.
        assert schema.is_reference("watch", "open_auction") or any(
            schema.is_reference(parent, spec.tag)
            for parent in schema.models
            for spec in schema.children_of(parent)
        )


class TestChildSpec:
    def test_suffix_rendering(self):
        assert ChildSpec("a", 0, None).suffix == "*"
        assert ChildSpec("a", 1, None).suffix == "+"
        assert ChildSpec("a", 0, 1).suffix == "?"
        assert ChildSpec("a", 1, 1).suffix == ""
