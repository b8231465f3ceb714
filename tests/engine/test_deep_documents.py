"""Deep documents: evaluator work linear in depth, no ``RecursionError``.

Every step walk of the evaluator goes through the buffer's one resumable
cursor (``BufferNode.descendants``), so a walk visits each node once
however deep it lies.  Work is counted as Python line events in the
evaluator and the cursor's module — deterministic, unlike wall time, and
no counter in the product.  The oracle (``NaiveDomEngine``) walks its DOM
iteratively too, so deep cases are checked against it.
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis.roles import Role
from repro.baselines import NaiveDomEngine
from repro.buffer.buffer import BufferTree
from repro.engine import QuerySession
from repro.xmlio.lexer import tokenize
from tests.helpers import deep_items

CONDITION = (
    '<o>{for $s in /site return if ($s//item/name = "zz") '
    "then <hit/> else ()}</o>"
)
STRING_VALUE = (
    '<o>{for $s in /site/regions return if ($s/africa = "zz") '
    "then <hit/> else ()}</o>"
)
COPY = "<o>{for $s in /site/regions return <r>{$s/africa}</r>}</o>"
NAME_LOOP = "<o>{for $s in /site return for $n in $s//name return $n}</o>"

DEPTH = 2_000
#: Where the evaluator's step walks live: the evaluator and its cursor.
TRACED = ("repro/engine/evaluator.py", "repro/buffer/node.py")


def line_events(query: str, d: int) -> int:
    """Line events in ``TRACED`` while ``query`` runs over ``deep_items(d)``."""
    session = QuerySession(query)
    document = deep_items(d)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.replace("\\", "/").endswith(TRACED):
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        session.run(document)
    finally:
        sys.settrace(previous)
    return count


class TestLinearInDepth:
    @pytest.mark.parametrize("query", [CONDITION, NAME_LOOP], ids=["condition", "loop"])
    def test_work_at_most_doubles_per_doubling(self, query):
        # The restart-per-match descendant scan grew 3.9x per doubling on
        # the condition query (2.07 M, 8.02 M, 31.5 M line events in the
        # evaluator alone); one cursor grows 2.0x.
        counts = [line_events(query, d) for d in (250, 500, 1_000)]
        for smaller, larger in zip(counts, counts[1:]):
            assert larger <= 2.2 * smaller, counts


class TestDeepAgainstOracle:
    def test_string_value_of_a_deep_subtree(self):
        assert QuerySession(STRING_VALUE).run(deep_items(DEPTH)).output == "<o/>"

    @pytest.mark.parametrize(
        "query",
        [CONDITION, STRING_VALUE, COPY, NAME_LOOP],
        ids=["condition", "string-value", "copy", "name-loop"],
    )
    def test_engine_matches_oracle(self, query):
        document = deep_items(DEPTH)
        expected = NaiveDomEngine().run(query, document).output
        assert QuerySession(query).run(document).output == expected

    def test_buffered_copy_matches_oracle(self):
        """Fed tokens, the copy site is buffered and serialised node by
        node instead of arriving as one span."""
        document = deep_items(DEPTH)
        expected = NaiveDomEngine().run(COPY, document).output
        result = QuerySession(COPY).run(tokenize(document))
        assert result.stats.tokens_copied == 0
        assert result.output == expected


ROLE = Role(1, "dep", "$x")


def test_marked_node_unmarked_under_a_suspended_cursor():
    """A cursor suspended inside ``m`` when ``m`` is marked deleted waits at
    ``m``; a role arriving below un-marks it, and the cursor walks it again
    and yields the ``b`` that arrived while it was marked."""
    buffer = BufferTree()
    context = buffer.new_element(buffer.document, "r")
    buffer.assign_roles(context, [(ROLE, 1)])
    b_id = buffer.tag_id("b")
    marked = buffer.new_element(context, "m")
    first = buffer.new_element(marked, "b")
    buffer.assign_roles(first, [(ROLE, 1)])
    buffer.finish(first)
    log = []
    later = {}

    def b_arrives_unkept():
        later["b"] = buffer.new_element(marked, "b")
        log.append(("m marked", marked.marked_deleted))

    def role_arrives_below():
        text = buffer.new_text(later["b"], "x")
        buffer.assign_roles(text, [(ROLE, 1)])
        log.append(("m marked", marked.marked_deleted))

    def close(node):
        return lambda: buffer.finish(node)

    arrivals = [
        b_arrives_unkept,
        role_arrives_below,
        lambda: close(later["b"])(),
        close(marked),
        close(context),
    ]

    def pull() -> bool:
        if not arrivals:
            return False
        log.append("pull")
        arrivals.pop(0)()
        return True

    walk = context.descendants(
        pull, lambda node: node.tag_id == b_id, skip_marked=True
    )
    assert next(walk) is first
    # The loop body signs the binding off: ``first`` is purged and ``m``,
    # unfinished and now without a role below, is marked deleted.
    buffer.remove_role(first, ROLE)
    assert first.parent is None and marked.marked_deleted
    second = next(walk)
    assert second is later["b"]
    assert log == ["pull", ("m marked", True), "pull", ("m marked", False)]
    assert list(walk) == []
    assert log[4:] == ["pull", "pull", "pull"]
