"""Matcher tests against the paper's worked examples (Figures 4 and 5).

The projection trees of those figures are built directly from PTNodes so
the tests pin down the matcher in isolation from query compilation.
"""


from repro.analysis.projection_tree import ProjectionTree, PTNode
from repro.analysis.roles import Role
from repro.buffer import BufferTree
from repro.stream import StreamMatcher, StreamPreprojector
from repro.xmlio import tokenize
from repro.xquery.paths import child, descendant, dos_node


def figure4b_tree() -> ProjectionTree:
    """v1: / ; v2: .//a under v1 ; v3: .//b under v2 (roles r2, r3)."""
    root = PTNode(display_id=1, step=None, var="$root")
    tree = ProjectionTree(root)
    v2 = PTNode(display_id=2, step=descendant("a"), role=Role(2, "binding", "$a"))
    v3 = PTNode(display_id=3, step=descendant("b"), role=Role(3, "binding", "$b"))
    root.add_child(v2)
    v2.add_child(v3)
    tree.roles = [v2.role, v3.role]
    tree.role_nodes = {v2.role: v2, v3.role: v3}
    tree.var_nodes = {"$root": root, "$a": v2, "$b": v3}
    return tree


def figure4d_tree() -> ProjectionTree:
    """v1: / with children v2: .//a and v3: .//b (siblings)."""
    root = PTNode(display_id=1, step=None, var="$root")
    tree = ProjectionTree(root)
    v2 = PTNode(display_id=2, step=descendant("a"), role=Role(2, "binding", "$a"))
    v3 = PTNode(display_id=3, step=descendant("b"), role=Role(3, "binding", "$b"))
    root.add_child(v2)
    root.add_child(v3)
    tree.roles = [v2.role, v3.role]
    tree.role_nodes = {v2.role: v2, v3.role: v3}
    tree.var_nodes = {"$root": root, "$a": v2, "$b": v3}
    return tree


def figure5_tree() -> ProjectionTree:
    """Projection tree of Figure 5(a): /a/b and /a//b with dos leaves."""
    root = PTNode(display_id=1, step=None, var="$root")
    tree = ProjectionTree(root)
    v2 = PTNode(display_id=2, step=child("a"), role=Role(2, "binding", "$x"))
    v3 = PTNode(display_id=3, step=child("b"), role=Role(3, "dep", "$x"))
    v4 = PTNode(display_id=4, step=dos_node(), role=Role(4, "dep", "$x"))
    v5 = PTNode(display_id=5, step=child("a"), role=Role(5, "binding", "$y"))
    v6 = PTNode(display_id=6, step=descendant("b"), role=Role(6, "dep", "$y"))
    v7 = PTNode(display_id=7, step=dos_node(), role=Role(7, "dep", "$y"))
    root.add_child(v2)
    v2.add_child(v3)
    v3.add_child(v4)
    root.add_child(v5)
    v5.add_child(v6)
    v6.add_child(v7)
    for node in (v2, v3, v4, v5, v6, v7):
        tree.roles.append(node.role)
        tree.role_nodes[node.role] = node
    tree.var_nodes = {"$root": root}
    return tree


def project_with_roles(tree: ProjectionTree, document: str, *, aggregate=False):
    """Run the preprojector and return {(tag, seq): sorted role names}."""
    buffer = BufferTree()
    preprojector = StreamPreprojector(
        tokenize(document), tree, buffer, aggregate_roles=aggregate
    )
    preprojector.run_to_completion()
    result = {}
    for node in buffer.document.descendants():
        label = buffer.tag_name(node.tag_id) if node.tag_id >= 0 else "#text"
        names = node.roles.as_names() + [
            f"{n}*" for n in node.aggregate_roles.as_names()
        ]
        result[(label, node.seq)] = names
    return buffer, result


class TestFigure4Multiplicities:
    def test_figure4c_nested_descendant_roles(self):
        """Figure 4(c): the deep b gets role r3 twice (two embeddings)."""
        _buffer, roles = project_with_roles(figure4b_tree(), "<a><a><b/></a><b/></a>")
        values = sorted(roles.values())
        # outer a: {r2}; inner a: {r2}; deep b: {r3, r3}; shallow b: {r3}
        assert sorted(map(tuple, values)) == sorted(
            [("r2",), ("r2",), ("r3", "r3"), ("r3",)]
        )

    def test_figure4e_sibling_descendants(self):
        """Figure 4(e): with t' every b gets r3 exactly once."""
        _buffer, roles = project_with_roles(figure4d_tree(), "<a><a><b/></a><b/></a>")
        values = sorted(map(tuple, roles.values()))
        assert values == sorted([("r2",), ("r2",), ("r3",), ("r3",)])


class TestFigure5LazyDfa:
    def test_example1_state_mapping(self):
        """Example 1's q0..q4 mappings, read off the matcher's frames."""
        tree = figure5_tree()
        matcher = StreamMatcher(tree, aggregate_roles=False)
        stack = [matcher.initial_frame()]
        # q0 (document): maps to {v1}.
        assert {n.display_id for n in stack[-1].matches} == {1}
        # read <a>: q1 maps to {v2, v5}.
        t = matcher.match_token(stack, tag="a", is_text=False)
        from repro.stream.matcher import MatchFrame

        stack.append(MatchFrame(t.matches, t.cumulative))
        assert {n.display_id for n in t.matches} == {2, 5}
        # read <a>: q2 maps to {} (no projection tree node).
        t2 = matcher.match_token(stack, tag="a", is_text=False)
        stack.append(MatchFrame(t2.matches, t2.cumulative))
        assert {n.display_id for n in t2.matches if n.role} - {4, 7} == set()
        # (only dos leaves may match; the element nodes v2/v5 do not)
        assert not any(n.display_id in (2, 3, 5, 6) for n in t2.matches)
        # read <b>: q3 maps to {v6} (only the descendant path reaches it).
        t3 = matcher.match_token(stack, tag="b", is_text=False)
        matched_ids = {n.display_id for n in t3.matches}
        assert 6 in matched_ids
        assert 3 not in matched_ids  # /a/b does not match /a/a/b

    def test_example1_q4_maps_to_both(self):
        tree = figure5_tree()
        matcher = StreamMatcher(tree, aggregate_roles=False)
        from repro.stream.matcher import MatchFrame

        stack = [matcher.initial_frame()]
        t = matcher.match_token(stack, tag="a", is_text=False)
        stack.append(MatchFrame(t.matches, t.cumulative))
        # read <b> directly under the first a: q4 maps to {v3, v6}.
        t2 = matcher.match_token(stack, tag="b", is_text=False)
        assert {n.display_id for n in t2.matches} >= {3, 6}

    def test_example2_promotion_guard(self):
        """Reading the inner <a> at q1 must preserve it structurally:
        v2 has child ./b while v5 has descendant .//b (same tag b)."""
        tree = figure5_tree()
        matcher = StreamMatcher(tree, aggregate_roles=False)
        from repro.stream.matcher import MatchFrame

        stack = [matcher.initial_frame()]
        t = matcher.match_token(stack, tag="a", is_text=False)
        stack.append(MatchFrame(t.matches, t.cumulative))
        t2 = matcher.match_token(stack, tag="a", is_text=False)
        assert t2.structural, "condition (2) must fire for the inner a"

    def test_example3_projection_with_roles(self):
        """Figure 4(c) via the full preprojector (Example 3)."""
        _buffer, roles = project_with_roles(figure4b_tree(), "<a><a><b/></a><b/></a>")
        multi = [names for names in roles.values() if names == ["r3", "r3"]]
        assert len(multi) == 1


class TestTransitionCache:
    def test_cached_transitions_match_uncached(self):
        tree = figure5_tree()
        doc = "<a><a><b/><c/><b/></a><b/><a><b/></a></a>"
        cached = StreamMatcher(tree, aggregate_roles=False)
        buffer_a = BufferTree()
        StreamPreprojector(
            tokenize(doc), tree, buffer_a, aggregate_roles=False
        ).run_to_completion()
        # Re-run; identical population implies deterministic transitions and
        # the cache is warm for the second run.
        buffer_b = BufferTree()
        StreamPreprojector(
            tokenize(doc), tree, buffer_b, aggregate_roles=False
        ).run_to_completion()
        assert buffer_a.format_contents() == buffer_b.format_contents()


class TestTextMatching:
    def test_text_under_dos_scope_is_kept(self):
        tree = figure5_tree()
        _buffer, roles = project_with_roles(tree, "<a><b>hello</b></a>")
        text_entries = [k for k in roles if k[0] == "#text"]
        assert len(text_entries) == 1

    def test_text_without_matching_scope_is_dropped(self):
        tree = figure4d_tree()  # only element roles, no dos leaves
        _buffer, roles = project_with_roles(tree, "<a>junk<b>junk</b></a>")
        assert not any(k[0] == "#text" for k in roles)
