"""The buffer's one pre-order cursor (``BufferNode.descendants``) against a
restart-per-match reference walk.

The reference is the walk the cursor replaced: after every match it scans
again from the context for the first node, in document order and outside
marked-deleted subtrees, whose seq is larger than the last match's, and it
pulls one token whenever that scan comes up empty.  A seeded script grows
a buffer one arrival per pull and, between matches, reads ahead and removes
roles, which purges finished nodes and marks unfinished ones under the
suspended walk.
Both walks run the same script on their own buffer and must match and
pull at the same points.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.roles import Role
from repro.buffer.buffer import BufferTree
from repro.buffer.node import ELEMENT, TEXT

ROLE = Role(1, "dep", "$x")
ARRIVALS = 160


def reference_walk(context, pull, keep, children):
    """The restart-per-match walk: a rescan from ``context`` per match."""
    last_seq = -1
    while True:
        found = None
        stack = []
        node = context.first_child
        while found is None:
            if node is None:
                if not stack:
                    break
                node = stack.pop().next_sibling
                continue
            if node.marked_deleted:
                node = node.next_sibling
                continue
            if node.seq > last_seq and keep(node):
                found = node
            elif children:
                node = node.next_sibling
            else:
                stack.append(node)
                node = node.first_child
        if found is not None:
            last_seq = found.seq
            yield found
            continue
        if context.finished or pull is None or not pull():
            return


def buffered_reference(context, keep, children):
    """Everything the reference would yield without pulling."""
    return list(reference_walk(context, None, keep, children))


class Script:
    """A seeded buffer: one arrival per ``pull``, role removals per match."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.buffer = BufferTree()
        self.context = self.buffer.new_element(self.buffer.document, "r")
        self.buffer.assign_roles(self.context, [(ROLE, 1)])
        self.buffer.tag_id("a")  # tag ids: r 0, a 1, b 2
        self.buffer.tag_id("b")
        self.open = [self.context]
        self.held = []  # (node, seq, aggregate) with a role still on it
        self.arrivals = 0
        self.log = []

    def _roles(self, node) -> None:
        roll = self.rng.random()
        if roll < 0.45:
            aggregate = roll < 0.05
            pair = [(ROLE, 1)]
            if aggregate:
                self.buffer.assign_roles(node, [], pair)
            else:
                self.buffer.assign_roles(node, pair)
            self.held.append((node, node.seq, aggregate))

    def pull(self) -> bool:
        self.log.append("pull")
        buffer = self.buffer
        if self.arrivals >= ARRIVALS:
            if not self.open:
                return False
            buffer.finish(self.open.pop())  # the context closes last
            return True
        self.arrivals += 1
        roll = self.rng.random()
        parent = self.open[-1]
        if roll < 0.45:
            node = buffer.new_element(parent, self.rng.choice("ab"))
            self._roles(node)
            self.open.append(node)
        elif roll < 0.65:
            self._roles(buffer.new_text(parent, "t"))
        elif len(self.open) > 1:
            buffer.finish(self.open.pop())
        return True

    def body(self, node) -> None:
        """What a loop body does to the buffer: read ahead, drop roles."""
        self.log.append(("yield", node.seq))
        for _ in range(self.rng.randrange(4)):
            if self.rng.random() < 0.5:
                self.pull()
                continue
            live = [
                entry
                for entry in self.held
                if entry[0].parent is not None and entry[0].seq == entry[1]
            ]
            if not live:
                continue
            target, seq, aggregate = live[self.rng.randrange(len(live))]
            self.held.remove((target, seq, aggregate))
            self.buffer.remove_role(target, ROLE, aggregate=aggregate)


def keep_a(node) -> bool:
    return node.kind == ELEMENT and node.tag_id == 1  # "r" is 0, "a" is 1


def keep_text(node) -> bool:
    return node.kind == TEXT


def run(seed: int, keep, children: bool, cursor: bool):
    script = Script(seed)
    context = script.context
    if cursor:
        walk = context.descendants(
            script.pull, keep, depth=1 if children else None, skip_marked=True
        )
    else:
        walk = reference_walk(context, script.pull, keep, children)
    buffered = []
    for node in walk:
        script.body(node)
        if cursor:
            now = context.descendants(
                None, keep, depth=1 if children else None, skip_marked=True
            )
        else:
            now = iter(buffered_reference(context, keep, children))
        buffered.append([n.seq for n in now])
    return script.log, buffered, script.buffer.format_contents()


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("children", [False, True], ids=["descendant", "child"])
@pytest.mark.parametrize("keep", [keep_a, keep_text], ids=["a", "text"])
def test_cursor_matches_restart_walk(seed, children, keep):
    expected = run(seed, keep, children, cursor=False)
    got = run(seed, keep, children, cursor=True)
    assert got == expected


def test_scripts_reach_the_cases_that_matter():
    """The seeds above purge nodes and mark and un-mark them mid-walk."""
    yields = purged = marked = unmarked = 0
    for seed in range(40):
        script = Script(seed)
        seen = set()
        for node in script.context.descendants(
            script.pull, keep_a, skip_marked=True
        ):
            yields += 1
            script.body(node)
            for member in script.context.descendants():
                if member.marked_deleted and (member, member.seq) not in seen:
                    seen.add((member, member.seq))
                    marked += 1
            for member, seq in list(seen):
                if member.seq == seq and member.parent is not None:
                    if not member.marked_deleted:
                        unmarked += 1
                        seen.discard((member, seq))
        purged += script.buffer.stats.nodes_purged
    assert yields and purged and marked and unmarked


@pytest.mark.parametrize("seed", range(20))
def test_cursor_matches_restart_walk_without_recycling(seed, monkeypatch):
    """Purged nodes that are not parked for reuse are detached all the
    same, so a cursor inside a purged subtree sees it at any depth."""
    monkeypatch.setattr("repro.buffer.buffer.FREE_LIST_CAP", 0)
    assert run(seed, keep_a, False, cursor=True) == run(
        seed, keep_a, False, cursor=False
    )


def test_a_purge_detaches_every_node_it_takes(monkeypatch):
    """The walk is inside a covered subtree when its cover goes: the purge
    takes the subtree whole, and what the cursor had not reached yet must
    not be yielded, parked for reuse or not."""
    monkeypatch.setattr("repro.buffer.buffer.FREE_LIST_CAP", 0)
    buffer = BufferTree()
    context = buffer.new_element(buffer.document, "r")
    buffer.assign_roles(context, [(ROLE, 1)])
    buffer.tag_id("a")
    cover = buffer.new_element(context, "d")
    buffer.assign_roles(cover, [], [(ROLE, 1)])
    middle = buffer.new_element(cover, "t")
    first = buffer.new_element(middle, "a")
    buffer.new_element(middle, "a")
    for node in (*middle.descendants(depth=1), middle, cover):
        buffer.finish(node)
    walk = context.descendants(lambda: False, keep_a, skip_marked=True)
    assert next(walk) is first
    buffer.remove_role(cover, ROLE, aggregate=True)
    assert context.first_child is None
    assert list(walk) == []


def test_a_pulling_walk_must_skip_marked_subtrees():
    buffer = BufferTree()
    context = buffer.new_element(buffer.document, "r")
    with pytest.raises(ValueError):
        next(context.descendants(lambda: False, keep_a))
