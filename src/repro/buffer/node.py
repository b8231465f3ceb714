"""Buffered document nodes.

The buffer holds the currently relevant projected document tree.  Following
Section 6 ("Buffer Representation"), the data structure is simple: nodes
with parent / first-child / next-sibling pointers, tag names replaced by
integers through a symbol table, plus the role bookkeeping that active
garbage collection needs:

* ``roles`` — the node's role multiset (``rho`` in the paper),
* ``aggregate_roles`` — roles placed on a subtree root and inherited by all
  descendants (the Section 6 "aggregate roles" optimization),
* ``subtree_roles`` — the total number of role instances in this subtree
  (self included); the *irrelevance* test of Figure 10 becomes O(1),
* ``seq`` — a monotone stream sequence number materializing document order,
  so for-loop cursors survive garbage collection of earlier siblings,
* ``finished`` / ``marked_deleted`` — the "unfinished" handling of
  Section 5: unfinished nodes are never physically deleted, only marked,
  and purged when their closing tag arrives (re-checking relevance, since
  role-carrying descendants may have arrived in between).

A ``prev_sibling`` pointer is kept as well so deletion is O(1); the paper
does not spell this out but its localized GC requires constant-time unlink.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.roles import RoleSet
from repro.xmlio.tokens import Span

__all__ = ["BufferNode", "DOC", "ELEMENT", "TEXT"]

DOC = 0
ELEMENT = 1
TEXT = 2


class BufferNode:
    """One node of the buffered (projected) document tree."""

    __slots__ = (
        "kind",
        "tag_id",
        "text",
        "parent",
        "prev_sibling",
        "next_sibling",
        "first_child",
        "last_child",
        "seq",
        "born_tokens",
        "finished",
        "marked_deleted",
        "roles",
        "aggregate_roles",
        "subtree_roles",
        "acc",
        "witnesses",
        "span",
    )

    def __init__(self, kind: int, seq: int, tag_id: int = -1, text: str = "") -> None:
        self.kind = kind
        self.tag_id = tag_id
        self.text = text
        self.parent: Optional[BufferNode] = None
        self.prev_sibling: Optional[BufferNode] = None
        self.next_sibling: Optional[BufferNode] = None
        self.first_child: Optional[BufferNode] = None
        self.last_child: Optional[BufferNode] = None
        self.seq = seq
        self.born_tokens = 0  # stats.tokens_read at creation; set by the buffer
        self.finished = kind == TEXT  # text nodes are atomic
        self.marked_deleted = False
        self.roles = RoleSet()
        self.aggregate_roles = RoleSet()
        self.subtree_roles = 0
        # Aggregate accumulator states anchored at this node, keyed by
        # (var, path); None until the first accumulator frame is seeded
        # (repro.engine.relops.aggregates).
        self.acc: Optional[dict] = None
        # First-witness registry for ``[1]`` steps whose context is this
        # node, keyed by the positional Step and recorded by the projection
        # lane at the arrival that consumed the witness.  The value is
        # ``(node, seq)`` — or ``(None, -1)`` when the witness token was
        # not preserved — so a stale reference (the witness purged and its
        # object recycled) is detectable by the seq mismatch.  Navigating
        # the buffer for the first *buffered* match instead can silently
        # rebind the ``[1]`` to a later sibling once the true witness was
        # garbage-collected.
        self.witnesses: Optional[dict] = None
        # An element whose subtree arrived whole (a copy site's COPY row)
        # holds it here, as the one Span the evaluator emits for it.
        self.span: Optional[Span] = None

    def reinit(self, kind: int, seq: int, tag_id: int = -1, text: str = "") -> None:
        """Reset a recycled node to freshly constructed state.

        The buffer's free list (slab reuse, docs/PERFORMANCE.md) calls this
        instead of allocating: the node object and its two ``RoleSet``
        instances are reused, everything else is reset exactly as
        ``__init__`` would.  The caller guarantees the node is detached.
        """
        self.kind = kind
        self.tag_id = tag_id
        self.text = text
        self.parent = None
        self.prev_sibling = None
        self.next_sibling = None
        self.first_child = None
        self.last_child = None
        self.seq = seq
        self.born_tokens = 0
        self.finished = kind == TEXT
        self.marked_deleted = False
        self.roles.clear()
        self.aggregate_roles.clear()
        self.subtree_roles = 0
        self.acc = None
        self.witnesses = None
        self.span = None

    # -- structure -------------------------------------------------------

    def append_child(self, child: "BufferNode") -> None:
        child.parent = self
        child.prev_sibling = self.last_child
        if self.last_child is not None:
            self.last_child.next_sibling = child
        else:
            self.first_child = child
        self.last_child = child

    def unlink(self) -> None:
        """Remove this node (with its subtree) from its parent's child list."""
        parent = self.parent
        if parent is None:
            return
        if self.prev_sibling is not None:
            self.prev_sibling.next_sibling = self.next_sibling
        else:
            parent.first_child = self.next_sibling
        if self.next_sibling is not None:
            self.next_sibling.prev_sibling = self.prev_sibling
        else:
            parent.last_child = self.prev_sibling
        self.parent = None
        self.prev_sibling = None
        self.next_sibling = None

    def children(self) -> Iterator["BufferNode"]:
        node = self.first_child
        while node is not None:
            yield node
            node = node.next_sibling

    def iter_subtree(self) -> Iterator["BufferNode"]:
        """This node and all descendants, in document order."""
        yield self
        child = self.first_child
        while child is not None:
            yield from child.iter_subtree()
            child = child.next_sibling

    def descendants(self) -> Iterator["BufferNode"]:
        child = self.first_child
        while child is not None:
            yield from child.iter_subtree()
            child = child.next_sibling

    def ancestors(self) -> Iterator["BufferNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # -- role / GC predicates ---------------------------------------------

    @property
    def is_irrelevant(self) -> bool:
        """No role on this node or any descendant (Figure 10's test).

        Aggregate coverage by *ancestors* is checked by the garbage
        collector, which sees the whole path.
        """
        return self.subtree_roles == 0

    @property
    def live(self) -> bool:
        return not self.marked_deleted

    # -- values ------------------------------------------------------------

    def string_value(self) -> str:
        """Concatenated text content of the subtree (document order)."""
        if self.kind == TEXT:
            return self.text
        parts = [node.text for node in self.iter_subtree() if node.kind == TEXT]
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = {DOC: "doc", ELEMENT: "elem", TEXT: "text"}[self.kind]
        flags = []
        if self.finished:
            flags.append("fin")
        if self.marked_deleted:
            flags.append("marked")
        return (
            f"BufferNode({kind} tag_id={self.tag_id} seq={self.seq} "
            f"roles={self.roles!r} agg={self.aggregate_roles!r} {' '.join(flags)})"
        )
