"""Active garbage collection tests (Section 5, Figure 10)."""


from repro.analysis import Role
from repro.buffer import BufferTree


def make_roles(*ids):
    return [Role(i, "dep", "$x") for i in ids]


class TestLocalizedCollection:
    def test_leaf_purged_when_last_role_removed(self):
        buffer = BufferTree()
        (r,) = make_roles(2)
        a = buffer.new_element(buffer.document, "a")
        b = buffer.new_element(a, "b")
        buffer.assign_roles(a, [(r, 1)])
        buffer.assign_roles(b, [(r, 1)])
        b.finished = True
        buffer.remove_role(b, r)
        assert list(a.descendants(depth=1)) == []
        assert buffer.stats.nodes_purged == 1

    def test_deletion_propagates_bottom_up(self):
        """Figure 10: deleting can cascade to ancestors (but not the root)."""
        buffer = BufferTree()
        (r,) = make_roles(2)
        a = buffer.new_element(buffer.document, "a")
        b = buffer.new_element(a, "b")
        c = buffer.new_element(b, "c")
        for node in (a, b, c):
            node.finished = True
        buffer.assign_roles(c, [(r, 1)])
        buffer.remove_role(c, r)
        assert buffer.is_empty()
        assert buffer.stats.nodes_purged == 3

    def test_propagation_stops_at_relevant_ancestor(self):
        buffer = BufferTree()
        r2, r3 = make_roles(2, 3)
        a = buffer.new_element(buffer.document, "a")
        b = buffer.new_element(a, "b")
        for node in (a, b):
            node.finished = True
        buffer.assign_roles(a, [(r2, 1)])
        buffer.assign_roles(b, [(r3, 1)])
        buffer.remove_role(b, r3)
        assert list(a.descendants(depth=1)) == []
        assert a.parent is buffer.document  # a survives: it has a role

    def test_node_with_relevant_descendant_survives(self):
        """Figure 2 step 7: book keeps roleless spine while title has r7."""
        buffer = BufferTree()
        r6, r7 = make_roles(6, 7)
        book = buffer.new_element(buffer.document, "book")
        title = buffer.new_element(book, "title")
        book.finished = title.finished = True
        buffer.assign_roles(book, [(r6, 1)])
        buffer.assign_roles(title, [(r7, 1)])
        buffer.remove_role(book, r6)
        assert book.parent is buffer.document  # kept: title still relevant
        buffer.remove_role(title, r7)
        assert buffer.is_empty()

    def test_multiplicity_delays_collection(self):
        buffer = BufferTree()
        (r,) = make_roles(3)
        a = buffer.new_element(buffer.document, "a")
        a.finished = True
        buffer.assign_roles(a, [(r, 2)])
        buffer.remove_role(a, r)
        assert a.parent is buffer.document  # one instance left
        buffer.remove_role(a, r)
        assert buffer.is_empty()


class TestUnfinishedNodes:
    def test_unfinished_node_marked_not_deleted(self):
        buffer = BufferTree()
        (r,) = make_roles(2)
        a = buffer.new_element(buffer.document, "a")
        buffer.assign_roles(a, [(r, 1)])
        buffer.remove_role(a, r)
        assert a.marked_deleted
        assert a.parent is buffer.document  # physically present

    def test_marked_node_purged_at_close(self):
        buffer = BufferTree()
        (r,) = make_roles(2)
        a = buffer.new_element(buffer.document, "a")
        buffer.assign_roles(a, [(r, 1)])
        buffer.remove_role(a, r)
        buffer.finish(a)
        assert buffer.is_empty()

    def test_close_time_recheck_keeps_resurrected_node(self):
        """Role-carrying descendants arriving after the mark rescue it."""
        buffer = BufferTree()
        r2, r3 = make_roles(2, 3)
        a = buffer.new_element(buffer.document, "a")
        buffer.assign_roles(a, [(r2, 1)])
        buffer.remove_role(a, r2)
        assert a.marked_deleted
        b = buffer.new_element(a, "b")
        buffer.assign_roles(b, [(r3, 1)])
        assert not a.marked_deleted  # resurrected by the new relevance
        buffer.finish(a)
        assert a.parent is buffer.document

    def test_finish_purges_roleless_structural_node(self):
        """Structural (promotion-guard) nodes are collected at close time."""
        buffer = BufferTree()
        a = buffer.new_element(buffer.document, "a")  # never had roles
        buffer.finish(a)
        assert buffer.is_empty()


class TestAggregateCoverage:
    def test_covered_node_not_purged(self):
        buffer = BufferTree()
        r_agg, r_dep = make_roles(5, 7)
        book = buffer.new_element(buffer.document, "book")
        buffer.assign_roles(book, [], aggregate=[(r_agg, 1)])
        title = buffer.new_element(book, "title")
        buffer.assign_roles(title, [(r_dep, 1)])
        title.finished = True
        # Removing the title's own role must NOT purge it: the book's
        # aggregate still covers the whole subtree (it will be output).
        buffer.remove_role(title, r_dep)
        assert title.parent is book

    def test_aggregate_removal_releases_subtree(self):
        buffer = BufferTree()
        (r_agg,) = make_roles(5)
        book = buffer.new_element(buffer.document, "book")
        buffer.assign_roles(book, [], aggregate=[(r_agg, 1)])
        buffer.new_element(book, "title")
        buffer.new_text(book, "x")
        for node in [book, *book.descendants()]:
            node.finished = True
        buffer.remove_role(book, r_agg, aggregate=True)
        assert buffer.is_empty()
        assert buffer.stats.nodes_purged == 3


class TestGcCounters:
    def test_gc_invocations_counted(self):
        buffer = BufferTree()
        (r,) = make_roles(2)
        a = buffer.new_element(buffer.document, "a")
        a.finished = True
        buffer.assign_roles(a, [(r, 1)])
        before = buffer.stats.gc_invocations
        buffer.remove_role(a, r)
        assert buffer.stats.gc_invocations == before + 1
