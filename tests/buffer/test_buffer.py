"""Buffer manager tests: structure, roles, statistics."""

import pytest

from repro.analysis import Role, UndefinedRoleRemoval
from repro.buffer import BufferTree


@pytest.fixture
def buffer():
    return BufferTree()


@pytest.fixture
def role():
    return Role(2, "binding", "$x")


class TestStructure:
    def test_new_element_links(self, buffer):
        a = buffer.new_element(buffer.document, "a")
        b = buffer.new_element(a, "b")
        c = buffer.new_element(a, "c")
        assert a.first_child is b
        assert a.last_child is c
        assert b.next_sibling is c
        assert c.prev_sibling is b
        assert list(a.descendants(depth=1)) == [b, c]

    def test_seq_is_monotone_document_order(self, buffer):
        a = buffer.new_element(buffer.document, "a")
        b = buffer.new_element(a, "b")
        t = buffer.new_text(b, "x")
        c = buffer.new_element(a, "c")
        seqs = [n.seq for n in (a, b, t, c)]
        assert seqs == sorted(seqs)

    def test_unlink_middle_child(self, buffer):
        a = buffer.new_element(buffer.document, "a")
        b = buffer.new_element(a, "b")
        c = buffer.new_element(a, "c")
        d = buffer.new_element(a, "d")
        c.unlink()
        assert list(a.descendants(depth=1)) == [b, d]
        assert b.next_sibling is d
        assert d.prev_sibling is b

    def test_symbol_table_interns_tags(self, buffer):
        a1 = buffer.new_element(buffer.document, "book")
        a2 = buffer.new_element(a1, "book")
        assert a1.tag_id == a2.tag_id
        assert buffer.tag_name(a1.tag_id) == "book"

    def test_string_value(self, buffer):
        a = buffer.new_element(buffer.document, "a")
        buffer.new_text(a, "x")
        b = buffer.new_element(a, "b")
        buffer.new_text(b, "y")
        buffer.new_text(a, "z")
        assert a.string_value() == "xyz"

    def test_text_nodes_are_born_finished(self, buffer):
        a = buffer.new_element(buffer.document, "a")
        t = buffer.new_text(a, "x")
        assert t.finished
        assert not a.finished


class TestRoles:
    def test_assign_updates_subtree_counters(self, buffer, role):
        a = buffer.new_element(buffer.document, "a")
        b = buffer.new_element(a, "b")
        buffer.assign_roles(b, [(role, 2)])
        assert b.subtree_roles == 2
        assert a.subtree_roles == 2
        assert buffer.document.subtree_roles == 2

    def test_remove_updates_counters(self, buffer, role):
        a = buffer.new_element(buffer.document, "a")
        buffer.assign_roles(a, [(role, 1)])
        buffer.remove_role(a, role)
        assert buffer.document.subtree_roles == 0

    def test_strict_undefined_removal_raises(self, buffer, role):
        a = buffer.new_element(buffer.document, "a")
        with pytest.raises(UndefinedRoleRemoval):
            buffer.remove_role(a, role)

    def test_aggregate_roles_separate(self, buffer, role):
        a = buffer.new_element(buffer.document, "a")
        buffer.assign_roles(a, [], aggregate=[(role, 1)])
        assert a.aggregate_roles
        assert not a.roles
        buffer.remove_role(a, role, aggregate=True)
        assert not a.aggregate_roles


class TestStats:
    def test_hwm_tracks_peak_not_current(self, buffer, role):
        a = buffer.new_element(buffer.document, "a")
        b = buffer.new_element(a, "b")
        buffer.assign_roles(b, [(role, 1)])
        b.finished = True
        a.finished = True
        peak = buffer.stats.hwm_nodes
        buffer.remove_role(b, role)  # b and a are purged
        assert buffer.stats.live_nodes == 0
        assert buffer.stats.hwm_nodes == peak == 2

    def test_byte_accounting_balances(self, buffer, role):
        a = buffer.new_element(buffer.document, "a")
        t = buffer.new_text(a, "hello")
        buffer.assign_roles(a, [(role, 1)])
        a.finished = True
        buffer.remove_role(a, role)
        assert buffer.stats.live_bytes == 0

    def test_text_cost_includes_content(self, buffer):
        before = buffer.stats.live_bytes
        buffer.new_text(buffer.new_element(buffer.document, "a"), "x" * 100)
        model = buffer.stats.model
        assert buffer.stats.live_bytes - before == (
            model.element_cost() + model.text_cost("x" * 100)
        )

    def test_format_contents_shows_roles(self, buffer, role):
        a = buffer.new_element(buffer.document, "a")
        buffer.assign_roles(a, [(role, 2)])
        assert buffer.format_contents() == ["a{r2,r2}"]
