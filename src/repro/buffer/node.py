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

from typing import Callable, Iterator, Optional

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

    def descendants(
        self,
        pull: Optional[Callable[[], bool]] = None,
        keep: Optional[Callable[["BufferNode"], bool]] = None,
        depth: Optional[int] = None,
        skip_marked: bool = False,
    ) -> Iterator["BufferNode"]:
        """The nodes below this one in document order: the one resumable
        pre-order cursor every walk over the buffer goes through.

        ``keep`` filters what is yielded (never twice), ``depth`` bounds the
        walk (1: the children) and ``skip_marked`` leaves marked-deleted
        subtrees out.  With ``pull`` (only together with ``skip_marked``)
        the walk calls it, ending when it returns False, wherever it has
        seen all that arrived below an unfinished element or stands at a
        marked node (one is unfinished: a role arriving below may un-mark
        it).  Without ``pull`` the buffer must not change under the walk.

        ``chain`` is the path of open frames, ``frame`` the deepest and
        ``last`` its last visited child.  While a pulling walk is suspended
        the collector may purge or mark nodes: a purged frame (detached, or
        recycled under a new seq) is dropped and the walk goes on in the
        nearest live frame after it, by seq, since children are in seq
        order; a marked frame is waited at, then walked again once
        un-marked, skipping what was yielded.
        """
        if pull is not None and not skip_marked:
            raise ValueError("a pulling walk skips marked subtrees")
        frame = self
        chain: list[BufferNode] = [self]
        seqs = [self.seq]
        last: Optional[BufferNode] = None
        last_seq = 0
        done = -1  # seq of the last node yielded
        bound = 0  # deepest frame holding a role (0: the walk's root)
        level = 1  # len(chain)
        while True:
            nxt = frame.first_child if last is None else last.next_sibling
            if nxt is None:
                if pull is None or frame.finished:
                    if level == 1:
                        return
                    last = chain.pop()
                    last_seq = seqs.pop()
                    frame = chain[-1]
                    level -= 1
                    continue
                if not pull():
                    return
            elif skip_marked and nxt.marked_deleted:
                if pull is None:
                    last = nxt
                    continue
                if not pull():
                    return
            else:
                last = nxt
                seq = last_seq = nxt.seq
                if nxt.kind != TEXT and level != depth:
                    chain.append(nxt)
                    seqs.append(seq)
                    frame = nxt
                    last = None
                    level += 1
                if seq <= done or (keep is not None and not keep(nxt)):
                    continue
                done = seq
                yield nxt
                if pull is None:
                    continue
            # A pulling walk resumed, after a pull or a yield.
            if level > 1:
                # Drop purged frames: a purge detaches every node it
                # takes, so a live deepest frame means every frame is live.
                while level > 1 and (frame.parent is None or frame.seq != seqs[-1]):
                    last = chain.pop()
                    last_seq = seqs.pop()
                    frame = chain[-1]
                    level -= 1
                # A marked node holds no role in its subtree, and marking
                # climbs to the first ancestor that holds one: if any
                # frame is marked, the shallowest roleless frame is.
                top = level - 1
                if bound > top:
                    bound = top
                while bound and not chain[bound].subtree_roles:
                    bound -= 1
                while bound < top and chain[bound + 1].subtree_roles:
                    bound += 1
                if bound < top and chain[bound + 1].marked_deleted:
                    last = chain[bound + 1].prev_sibling
                    last_seq = 0 if last is None else last.seq
                    del chain[bound + 1 :]
                    del seqs[bound + 1 :]
                    frame = chain[-1]
                    level = bound + 1
                    continue
            if last is not None and (last.parent is None or last.seq != last_seq):
                child = frame.first_child
                last = None
                while child is not None and child.seq <= last_seq:
                    last = child
                    child = child.next_sibling
                if last is not None:
                    last_seq = last.seq

    # -- role / GC predicates ---------------------------------------------

    @property
    def is_irrelevant(self) -> bool:
        """No role on this node or any descendant (Figure 10's test).

        Aggregate coverage by *ancestors* is checked by the garbage
        collector, which sees the whole path.
        """
        return self.subtree_roles == 0

    # -- values ------------------------------------------------------------

    def string_value(self) -> str:
        """Concatenated text content of the subtree (document order)."""
        if self.kind == TEXT:
            return self.text
        return "".join([n.text for n in self.descendants() if n.kind == TEXT])

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
