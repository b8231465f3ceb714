"""The buffer manager: projected document buffer with active garbage
collection (Section 5, Figure 10).

The buffer holds the incrementally projected document.  Role updates arrive
from two sides:

* the stream preprojector *assigns* roles when it copies matched tokens into
  the buffer, and
* the query evaluator *removes* roles when it executes signOff statements,
  upon which the localized garbage collection of Figure 10 runs.

Two refinements beyond the paper's pseudo-code (see docs/ARCHITECTURE.md):

* *Pending cancellations.*  A signOff executed while its region (the
  binding's subtree) is not fully read registers a cancellation; the
  preprojector consults it so later-arriving nodes do not keep roles nobody
  will ever remove.
* *Close-time recheck.*  Purging a marked-deleted node when its closing tag
  arrives re-checks irrelevance, because role-carrying descendants may have
  arrived after the mark; conversely positive role updates un-mark nodes on
  the ancestor path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.roles import Role
from repro.buffer.node import BufferNode, DOC, ELEMENT, TEXT
from repro.buffer.stats import BufferCostModel, BufferStats
from repro.xmlio.tokens import EndTag, Span, StartTag
from repro.xquery.paths import Path

__all__ = ["BufferTree", "CancelEntry", "FREE_LIST_CAP"]

#: Upper bound on parked recycled nodes.  Bounds the slab so a huge purge
#: (one big irrelevant subtree) cannot pin its node count in memory forever;
#: steady-state streaming churns far fewer nodes than this.
FREE_LIST_CAP = 4096


@dataclass
class CancelEntry:
    """A pending cancellation: arrivals in the region matching ``path``
    (relative to the region root) lose ``count`` instances of ``role``."""

    path: Path
    role: Role
    aggregate: bool


class BufferTree:
    """The single buffer of the GCX architecture (Figure 11)."""

    def __init__(self, cost_model: BufferCostModel | None = None) -> None:
        self.stats = BufferStats(model=cost_model or BufferCostModel())
        self._seq = 0
        self.document = BufferNode(DOC, seq=self._next_seq())
        # Symbol table: tag names <-> integers (Section 6), plus interned
        # output tokens per tag so serialization allocates nothing per node.
        self._tag_ids: dict[str, int] = {}
        self._tag_names: list[str] = []
        self._start_tokens: list[StartTag] = []
        self._end_tokens: list[EndTag] = []
        # Slab reuse: purged nodes park here and are handed back out by
        # new_element/new_text instead of fresh allocations.
        self._free_nodes: list[BufferNode] = []
        # Pending cancellations keyed by region root node.
        self.cancellations: dict[BufferNode, list[CancelEntry]] = {}
        # Purge observers (hash-join indexes evict entries for purged
        # nodes).  Called once per physically deleted node, before the
        # node is parked on the free list.
        self._purge_listeners: list = []

    def reset(self) -> "BufferTree":
        """Clear all per-run state, keeping the tag symbol table warm.

        The compile-once/run-many session API calls this between documents:
        nodes, statistics, sequence numbers and pending cancellations are
        per-run and start fresh, while the tag-name interning table
        (Section 6's integer tags), the interned output tokens, and the
        node free list are document-independent and are carried over so
        repeated runs skip re-interning tag names and re-allocating nodes.
        Returns ``self`` for chaining.
        """
        self.stats = BufferStats(model=self.stats.model)
        self._seq = 0
        self.document = BufferNode(DOC, seq=self._next_seq())
        self.cancellations = {}
        self._purge_listeners = []
        return self

    # ------------------------------------------------------------------
    # symbol table
    # ------------------------------------------------------------------

    def tag_id(self, tag: str) -> int:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = len(self._tag_names)
            self._tag_ids[tag] = tid
            self._tag_names.append(tag)
            self._start_tokens.append(StartTag(tag))
            self._end_tokens.append(EndTag(tag))
        return tid

    def tag_name(self, tag_id: int) -> str:
        return self._tag_names[tag_id]

    def start_token(self, tag_id: int) -> StartTag:
        """The interned ``StartTag`` for a tag id (one object per tag)."""
        return self._start_tokens[tag_id]

    def end_token(self, tag_id: int) -> EndTag:
        """The interned ``EndTag`` for a tag id (one object per tag)."""
        return self._end_tokens[tag_id]

    # ------------------------------------------------------------------
    # construction (called by the preprojector)
    # ------------------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def new_element(self, parent: BufferNode, tag: str) -> BufferNode:
        free = self._free_nodes
        if free:
            node = free.pop()
            node.reinit(ELEMENT, self._next_seq(), tag_id=self.tag_id(tag))
            self.stats.nodes_recycled += 1
        else:
            node = BufferNode(
                ELEMENT, seq=self._next_seq(), tag_id=self.tag_id(tag)
            )
        node.born_tokens = self.stats.tokens_read
        parent.append_child(node)
        self.stats.on_create(self.stats.model.element_cost())
        return node

    def new_text(self, parent: BufferNode, content: str) -> BufferNode:
        free = self._free_nodes
        if free:
            node = free.pop()
            node.reinit(TEXT, self._next_seq(), text=content)
            self.stats.nodes_recycled += 1
        else:
            node = BufferNode(TEXT, seq=self._next_seq(), text=content)
        node.born_tokens = self.stats.tokens_read
        parent.append_child(node)
        self.stats.on_create(self.stats.model.text_cost(content))
        return node

    def hold_span(self, node: BufferNode, span: Span) -> None:
        """Make ``span`` the content of the just-finished element
        ``node``: its subtree arrived whole (a copy site's COPY row), and
        is charged as the text it holds."""
        node.span = span
        node.born_tokens = self.stats.tokens_read
        self.stats.on_grow(self.stats.model.text_byte * len(span.text))

    def assign_roles(
        self,
        node: BufferNode,
        normal: list[tuple[Role, int]],
        aggregate: list[tuple[Role, int]] = (),
    ) -> None:
        """Annotate a freshly buffered node with its roles."""
        total = 0
        for role, count in normal:
            node.roles.add(role, count)
            total += count
        for role, count in aggregate:
            node.aggregate_roles.add(role, count)
            total += count
        if total:
            self._bump_subtree_roles(node, total)
            self.stats.on_roles(total)

    # ------------------------------------------------------------------
    # role removal + garbage collection (Figure 10)
    # ------------------------------------------------------------------

    def remove_role(
        self, node: BufferNode, role: Role, count: int = 1, *, aggregate: bool = False
    ) -> None:
        """``rem_rho`` followed by the localized garbage collection."""
        role_set = node.aggregate_roles if aggregate else node.roles
        role_set.remove(role, count)
        self._bump_subtree_roles(node, -count)
        self.stats.on_roles(-count)
        self.collect_from(node)

    def collect_from(self, node: BufferNode) -> None:
        """Bottom-up local search for irrelevant nodes (Figure 10)."""
        self.stats.gc_invocations += 1
        while node is not self.document and node.is_irrelevant:
            if self.covered_by_aggregate(node.parent):
                return
            parent = node.parent
            if parent is None:  # already detached by an earlier purge
                return
            if node.finished:
                self._purge(node)
            else:
                node.marked_deleted = True
            node = parent

    def covered_by_aggregate(self, node: BufferNode | None) -> bool:
        """Does ``node`` or one of its ancestors hold aggregate roles?

        The garbage collector asks it of a node's parent (coverage is by
        strict ancestors); the projection lane of the node an arriving
        token would attach to.
        """
        while node is not None:
            if node.aggregate_roles:
                return True
            node = node.parent
        return False

    def _purge(self, node: BufferNode) -> None:
        """Physically delete ``node`` and its (role-free) subtree.

        Purged nodes are parked on the free list (up to
        :data:`FREE_LIST_CAP`) for :meth:`new_element`/:meth:`new_text` to
        reuse — streaming evaluation creates and purges nodes at the same
        rate, so the slab turns that churn into pointer resets instead of
        allocations.

        Why reuse-while-held cannot happen: purging requires the subtree to
        be role-free, and every node the evaluator still dereferences (a
        suspended cursor's context, an ``env`` binding) holds a role until
        its signOff — which is always the last act over that binding.  A
        parked node also keeps ``finished=True`` until :meth:`reinit`, so a
        cursor resumed against a stale reference bails out before the node
        can be handed back out.  Weakening either invariant (purging
        role-carrying nodes, or clearing ``finished`` here) would let
        ``reinit`` turn a held reference into an unrelated live node.
        """
        node.unlink()
        free = self._free_nodes
        model = self.stats.model
        stack = [node]
        while stack:
            member = stack.pop()
            child = member.first_child
            while child is not None:
                stack.append(child)
                child = child.next_sibling
            if member.kind == TEXT:
                cost = model.text_cost(member.text)
            elif member.span is not None:
                cost = model.text_cost(member.span.text)
            else:
                cost = model.element_cost()
            self.stats.on_purge(cost)
            self.cancellations.pop(member, None)
            for listener in self._purge_listeners:
                listener(member)
            # Detached even when not parked: a cursor resuming over a purged
            # subtree detects it at any depth (BufferNode.descendants).
            member.parent = None
            if len(free) < FREE_LIST_CAP:
                member.prev_sibling = None
                member.next_sibling = None
                member.first_child = None
                member.last_child = None
                member.text = ""
                member.span = None
                free.append(member)

    # ------------------------------------------------------------------
    # stream progress (called by the preprojector)
    # ------------------------------------------------------------------

    def finish(self, node: BufferNode) -> None:
        """The node's closing tag was read from the input.

        Besides purging nodes marked deleted, this also collects roleless
        *structural* nodes (preserved only by the promotion guard): once
        finished and irrelevant they can never become relevant again, and no
        future role removal would ever reach them.
        """
        node.finished = True
        self.cancellations.pop(node, None)
        if node.is_irrelevant and not self.covered_by_aggregate(node.parent):
            parent = node.parent
            self._purge(node)
            if parent is not None:
                self.collect_from(parent)
        else:
            node.marked_deleted = False

    def finish_document(self) -> None:
        """End of input: the document node itself is finished."""
        self.document.finished = True

    # ------------------------------------------------------------------
    # cancellations
    # ------------------------------------------------------------------

    def add_purge_listener(self, listener) -> None:
        """Register a callable invoked with each physically purged node."""
        self._purge_listeners.append(listener)

    def register_cancellation(
        self, region: BufferNode, path: Path, role: Role, *, aggregate: bool
    ) -> None:
        self.cancellations.setdefault(region, []).append(
            CancelEntry(path=path, role=role, aggregate=aggregate)
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _bump_subtree_roles(self, node: BufferNode, delta: int) -> None:
        current: BufferNode | None = node
        while current is not None:
            current.subtree_roles += delta
            if delta > 0 and current.marked_deleted:
                # New relevance resurrects nodes awaiting close-time purge.
                current.marked_deleted = False
            current = current.parent

    # ------------------------------------------------------------------
    # inspection helpers (tests, trace output)
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        return self.document.first_child is None

    def format_contents(self) -> list[str]:
        """Render buffer contents like Figure 2: ``tag{r2,r5}`` per node."""
        lines: list[str] = []
        depths = {self.document: -1}
        for node in self.document.descendants():
            depth = depths[node] = depths[node.parent] + 1
            if node.kind == TEXT:
                label = f'"{node.text}"'
            else:
                label = self.tag_name(node.tag_id)
            roles = node.roles.as_names() + [
                name + "*" for name in node.aggregate_roles.as_names()
            ]
            suffix = "{" + ",".join(roles) + "}" if roles else "{}"
            marker = " (deleted)" if node.marked_deleted else ""
            lines.append("  " * depth + label + suffix + marker)
        return lines
