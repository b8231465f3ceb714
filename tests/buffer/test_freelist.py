"""Tests for the buffer's slab allocation (free-list node recycling)."""

from __future__ import annotations

from repro.buffer import BufferTree
from repro.buffer.buffer import FREE_LIST_CAP
from repro.engine.session import QuerySession
from repro.xmark.queries import XMARK_QUERIES


class TestRecycling:
    def test_purged_nodes_are_reused(self):
        buffer = BufferTree()
        first = buffer.new_element(buffer.document, "a")
        first.finished = True
        buffer._purge(first)
        second = buffer.new_element(buffer.document, "b")
        assert second is first  # the very object came back from the slab
        assert buffer.stats.nodes_recycled == 1
        assert buffer.tag_name(second.tag_id) == "b"
        assert second.parent is buffer.document
        assert not second.roles and not second.aggregate_roles
        assert second.subtree_roles == 0

    def test_recycled_node_state_is_pristine(self):
        buffer = BufferTree()
        parent = buffer.new_element(buffer.document, "p")
        child = buffer.new_text(parent, "payload")
        parent.finished = True
        child.finished = True
        buffer._purge(parent)  # recycles parent and child
        fresh = buffer.new_element(buffer.document, "q")
        assert fresh in (parent, child)
        assert fresh.first_child is None and fresh.last_child is None
        assert fresh.prev_sibling is None and fresh.next_sibling is None
        assert fresh.text == ""
        assert not fresh.finished and not fresh.marked_deleted

    def test_free_list_is_capped(self):
        buffer = BufferTree()
        root = buffer.new_element(buffer.document, "big")
        for i in range(FREE_LIST_CAP + 10):
            buffer.new_element(root, f"c{i % 7}")
        for node in list(root.descendants(depth=1)):
            node.finished = True
        root.finished = True
        buffer._purge(root)
        assert len(buffer._free_nodes) == FREE_LIST_CAP

    def test_reset_keeps_the_slab_warm(self):
        buffer = BufferTree()
        node = buffer.new_element(buffer.document, "a")
        node.finished = True
        buffer._purge(node)
        assert buffer._free_nodes
        buffer.reset()
        assert buffer._free_nodes  # carried across runs, like the tag table
        again = buffer.new_element(buffer.document, "a")
        assert again is node
        assert buffer.stats.nodes_recycled == 1  # stats are per-run

    def test_session_run_recycles_nearly_everything(self, xmark_doc_small):
        session = QuerySession(
            "<o>{for $s in /site return "
            "for $p in $s/people return "
            "for $q in $p/person return $q/name}</o>"
        )
        session.run(xmark_doc_small)  # warm the slab
        result = session.run(xmark_doc_small)
        stats = result.stats
        assert stats.nodes_created > 50
        assert stats.nodes_recycled / stats.nodes_created > 0.9

    def test_warm_xmark_q1_session_recycles_nearly_everything(self, xmark_doc_small):
        session = QuerySession(XMARK_QUERIES["Q1"].adapted)
        session.run(xmark_doc_small)  # warm the slab
        stats = session.run(xmark_doc_small).stats
        assert stats.nodes_created > 50
        assert stats.nodes_recycled / stats.nodes_created > 0.9

    def test_stats_track_recycling_separately_from_creation(self):
        buffer = BufferTree()
        a = buffer.new_element(buffer.document, "a")
        assert buffer.stats.nodes_created == 1
        assert buffer.stats.nodes_recycled == 0
        a.finished = True
        buffer._purge(a)
        buffer.new_element(buffer.document, "b")
        assert buffer.stats.nodes_created == 2
        assert buffer.stats.nodes_recycled == 1
