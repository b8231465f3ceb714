"""The stream preprojector (Figure 11, right component).

Pulls tokens from the XML tokenizer one at a time, matches them against the
projection tree, and copies relevant tokens into the buffer together with
their roles.  In contrast to projection as implemented in Galax, where the
whole document is projected before evaluation starts, the buffer is filled
incrementally as the evaluator demands input (Section 1).

Besides matching, the preprojector applies *pending cancellations*: role
instances whose signOff already executed (while the region was unfinished)
are subtracted at arrival, so post-scope arrivals do not retain roles
forever (see docs/ARCHITECTURE.md).

Since the multi-query engine, the per-query state machine lives in
:class:`ProjectionLane` — the match-frame stack, open-element bookkeeping,
buffering decisions and cancellation handling for *one* query.
:class:`StreamPreprojector` is the lane that pumps itself: it holds the
token source, and its :meth:`~StreamPreprojector.pull` is the solo run's
one input step.  The shared-stream dispatcher
(:class:`~repro.stream.shared.SharedPreprojector`) drives N lanes from a
pump of its own, so the two paths share the lane, not the pump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.analysis.projection_tree import ProjectionTree
from repro.analysis.roles import Role
from repro.buffer.buffer import BufferTree, CancelEntry
from repro.buffer.node import BufferNode
from repro.stream.matcher import MatchFrame, StreamMatcher, Transition
from repro.xmlio.tokens import EndTag, Skipped, Span, StartTag, Text, Token
from repro.xquery.paths import Axis, Path, Step

__all__ = ["ProjectionLane", "StreamPreprojector"]


@dataclass(slots=True)
class _OpenElement:
    """Bookkeeping for one open input element."""

    tag: str  # "" for text pseudo entries (never stacked)
    frame: MatchFrame
    buffer_node: BufferNode | None  # None when the token was not preserved
    attach: BufferNode  # nearest buffered ancestor


class ProjectionLane:
    """Projection of one query's view of a token stream into its buffer.

    A lane owns all per-query dynamic state — the matcher frame stack, the
    open-element stack, consumed-``[1]`` counts and pending-cancellation
    application — but *not* the token source: the caller feeds it events
    through :meth:`open`, :meth:`close`, :meth:`text`, :meth:`skipped`,
    :meth:`copied` and :meth:`finish_stream`.  One lane behind one
    tokenizer is the classic single-query preprojector; N lanes behind one
    tokenizer is the shared multi-query pass.  A guided tokenizer replaces
    runs of dead tokens with :meth:`skipped` counts and an unguided stream
    never sends one, so the lane takes either vocabulary and ends with the
    same counters.  A copy site's subtree may also arrive whole, as one
    :class:`~repro.xmlio.tokens.Span` for :meth:`copied`: in a solo run
    wherever the lane's matcher copies, and in the shared pass where
    every other lane is dead.
    """

    def __init__(
        self,
        tree: ProjectionTree,
        buffer: BufferTree,
        *,
        aggregate_roles: bool = True,
        matcher: StreamMatcher | None = None,
        accumulators: "object | None" = None,
    ) -> None:
        self.buffer = buffer
        # Optional aggregate accumulator automaton
        # (repro.engine.relops.aggregates.AccumulatorRuntime): fed every
        # event this lane observes, so count/sum/avg states are complete
        # by the time a binding's subtree is finished.
        self.accumulators = accumulators
        # A caller may pass a warm matcher (compile-once/run-many sessions
        # do): its lazily built transition table carries over, so repeated
        # documents replay memoized transitions from the first token.
        if matcher is not None:
            if matcher.tree is not tree:
                raise ValueError(
                    "matcher was built for a different projection tree"
                )
            if matcher.aggregate != aggregate_roles:
                raise ValueError(
                    "matcher was built with aggregate_roles="
                    f"{matcher.aggregate}, preprojector asked for "
                    f"{aggregate_roles}"
                )
            self.matcher = matcher
        else:
            self.matcher = StreamMatcher(tree, aggregate_roles=aggregate_roles)
        root_frame = self.matcher.initial_frame()
        self._stack: list[_OpenElement] = [
            _OpenElement("", root_frame, buffer.document, buffer.document)
        ]
        # The matcher sees the frame stack; keep it materialized instead of
        # rebuilding a list per token, and count frames holding consumed
        # [1]-steps so the DFA fast path needs no per-token stack scan.
        self._frames: list[MatchFrame] = [root_frame]
        self._consumed_frames = 0

    @property
    def depth(self) -> int:
        return len(self._stack) - 1

    # ------------------------------------------------------------------
    # stream events
    # ------------------------------------------------------------------

    def open(self, tag: str) -> Transition:
        """An opening tag was read for this lane; returns its transition."""
        buffer = self.buffer
        stats = buffer.stats
        stats.tokens_read += 1
        frames = self._frames
        transition = self.matcher.match_token(
            frames, tag=tag, is_text=False, any_consumed=self._consumed_frames > 0
        )
        if transition.consumed_first:
            self._consumed_frames += self.matcher.apply_consumptions(
                frames, transition
            )
        normal = transition.normal_items
        aggregate = transition.aggregate_items
        if buffer.cancellations and (normal or aggregate):
            normal, aggregate = self._apply_cancellations(transition, tag)
        parent_entry = self._stack[-1]
        attach = parent_entry.attach
        if normal or aggregate:
            node = buffer.new_element(attach, tag)
            buffer.assign_roles(node, normal, aggregate)
        elif transition.structural or buffer.covered_by_aggregate(attach):
            node = buffer.new_element(attach, tag)
        else:
            stats.nodes_dropped += 1
            node = None
        if transition.consumed_first:
            self._record_witnesses(transition, node)
        frame = MatchFrame(
            transition.matches, transition.cumulative, transition.state_id
        )
        frames.append(frame)
        self._stack.append(
            _OpenElement(tag, frame, node, attach if node is None else node)
        )
        if self.accumulators is not None:
            self.accumulators.on_open(tag, transition.matches, node)
        return transition

    def close(self) -> None:
        """The closing tag of the lane's deepest open element was read."""
        self.buffer.stats.tokens_read += 1
        entry = self._stack.pop()
        frame = self._frames.pop()
        if frame.consumed:
            self._consumed_frames -= 1
        if self.accumulators is not None:
            self.accumulators.on_close()
        if entry.buffer_node is not None:
            self.buffer.finish(entry.buffer_node)

    def text(self, token: "Text | str") -> None:
        """A text token (or its content) was read for this lane.

        Passing the token itself keeps decode-on-demand intact: a
        :class:`~repro.xmlio.tokens.LazyText`'s UTF-8 decode runs when the
        node is buffered below, i.e. only when the projection actually
        preserves it.  Text the matcher discards — and every node in a
        parked lane's withheld subtree — stays an undecoded byte span.
        """
        buffer = self.buffer
        stats = buffer.stats
        stats.tokens_read += 1
        frames = self._frames
        transition = self.matcher.match_token(
            frames, tag=None, is_text=True, any_consumed=self._consumed_frames > 0
        )
        if transition.consumed_first:
            self._consumed_frames += self.matcher.apply_consumptions(
                frames, transition
            )
        normal = transition.normal_items
        aggregate = transition.aggregate_items
        if buffer.cancellations and (normal or aggregate):
            normal, aggregate = self._apply_cancellations(transition, None)
        attach = self._stack[-1].attach
        if normal or aggregate or buffer.covered_by_aggregate(attach):
            node = buffer.new_text(
                attach, token.content if isinstance(token, Text) else token
            )
            if normal or aggregate:
                buffer.assign_roles(node, normal, aggregate)
        else:
            stats.nodes_dropped += 1
            node = None
        if transition.consumed_first:
            self._record_witnesses(transition, node)
        if self.accumulators is not None:
            # The runtime decodes lazily: counting needs no content, only
            # value credits and open captures materialize the text.
            self.accumulators.on_text(token)

    def skipped(self, tokens: int, dropped: int) -> None:
        """``tokens`` tokens, ``dropped`` of them start tags or text, were
        validated ahead of this lane and found dead: count them as read
        and dropped, exactly as delivering them would have."""
        stats = self.buffer.stats
        stats.tokens_read += tokens
        stats.tokens_skipped += tokens
        stats.nodes_dropped += dropped

    def copied(self, span: Span) -> None:
        """A copy site's element arrived whole, as ``span``.

        Where the lane's matcher copies the element, open it as LIVE
        would, keep the span as the buffered element's content — charged
        as text bytes — and close it: nothing below the element can
        concern the lane but through its aggregate cover, so no other node
        is built for the subtree.  Where the element is dead to the lane,
        charge the open and close a parked lane pays.  Any other lane
        reads below the element and refuses the span with a
        ``TypeError``: its subtree cannot be delivered token by token.
        """
        tag = span.start.tag
        transition = self.open(tag)
        if self.subtree_dead():
            self.close()
            return
        if not self.matcher.copies(transition, tag):
            raise TypeError(
                f"this query's lane takes no Span (a copied <{tag}>): it reads "
                "below that element; feed it the document itself, or an "
                "unguided token stream"
            )
        node = self._stack[-1].buffer_node
        stats = self.buffer.stats
        stats.tokens_read += span.tokens - 2  # open() and close() count 2
        stats.tokens_copied += span.tokens
        self.close()
        # The content arrives with the close tag.  An element holding an
        # aggregate role survives its finish (the role covers it until the
        # evaluator signs off); one without is dropped content and all.
        if node is not None and node.aggregate_roles:
            self.buffer.hold_span(node, span)

    def finish_stream(self) -> None:
        """The input ended: the lane's document node is finished — the one
        record of end of stream a run reads."""
        self.buffer.finish_document()

    # ------------------------------------------------------------------
    # routing support (the shared dispatcher's skip decision)
    # ------------------------------------------------------------------

    def subtree_dead(self) -> bool:
        """Can the subtree of the just-opened element be withheld entirely?

        True when the element was not preserved and its frame carries no
        exact or cumulative matches: every per-query effect — child/
        descendant contributions, role assignment, the promotion guard,
        aggregate coverage — derives from those multisets, so nothing in
        the subtree can ever concern this lane.  (Not-preserved implies
        not covered by an aggregate scope, which is what licenses dropping
        the descendants too.)  The caller must then also withhold the
        matching close event *except* the one that pops this element.
        """
        entry = self._stack[-1]
        if entry.buffer_node is not None:
            return False
        frame = entry.frame
        return not frame.matches and not frame.cumulative

    # ------------------------------------------------------------------

    def _record_witnesses(
        self, transition: Transition, node: BufferNode | None
    ) -> None:
        """Pin the arriving token as the ``[1]`` witness of its contexts.

        ``transition.consumed_first`` lists the (stack depth, step node)
        contexts whose first witness this arrival is.  The evaluator and
        the signOff machinery must navigate ``[1]`` steps through this
        record rather than taking the first *buffered* match: once the true
        witness is garbage-collected, the first buffered match is a later
        sibling the stream already disqualified, and stepping through it
        would read (or cancel) role instances that belong to a different
        binding.
        """
        for depth, w in transition.consumed_first:
            context = self._stack[depth].buffer_node
            if context is None:
                continue
            table = context.witnesses
            if table is None:
                table = context.witnesses = {}
            if w.step not in table:
                table[w.step] = (node, node.seq if node is not None else -1)

    # ------------------------------------------------------------------
    # pending cancellations
    # ------------------------------------------------------------------

    def _apply_cancellations(
        self, transition: Transition, tag: str | None
    ) -> tuple[list[tuple[Role, int]], list[tuple[Role, int]]]:
        """Subtract already-signed-off role instances from fresh assignments.

        Only called with a non-empty cancellation registry and a transition
        that assigns roles; ``tag`` is ``None`` for a text token.
        """
        normal = dict(transition.normal_roles)
        aggregate = dict(transition.aggregate_roles)
        registry = self.buffer.cancellations
        cancelled_total = 0
        for depth, entry in enumerate(self._stack):
            region = entry.buffer_node
            if region is None or region not in registry:
                continue
            # The input tag sequence from (below) the region to this token.
            sequence: list[str | None] = [
                self._stack[i].tag for i in range(depth + 1, len(self._stack))
            ]
            sequence.append(tag)
            nodes: list[BufferNode | None] | None = None
            for cancel in registry[region]:
                target = aggregate if cancel.aggregate else normal
                available = target.get(cancel.role, 0)
                if available <= 0:
                    continue
                if cancel.path[-1].first:
                    embeddings = self._first_witness_cancellations(
                        cancel, transition, depth
                    )
                else:
                    if nodes is None and any(step.first for step in cancel.path):
                        nodes = [
                            self._stack[i].buffer_node
                            for i in range(depth + 1, len(self._stack))
                        ]
                        # The arriving token itself: bound only by the last
                        # step, which is not positional on this branch.
                        nodes.append(None)
                    embeddings = _count_embeddings_first_aware(
                        cancel.path, sequence, nodes, region
                    )
                if embeddings <= 0:
                    continue
                amount = min(available, embeddings)
                if amount == available:
                    del target[cancel.role]
                else:
                    target[cancel.role] = available - amount
                cancelled_total += amount
        if cancelled_total:
            self.buffer.stats.on_cancelled(cancelled_total)
        return list(normal.items()), list(aggregate.items())

    def _first_witness_cancellations(
        self, cancel: CancelEntry, transition: Transition, depth: int
    ) -> int:
        """Cancellable instances of a ``[1]``-terminated path at this token.

        The matcher assigns a first-witness role only at the arrival that
        consumes the ``[1]`` for a context frame, so the region's share
        cannot be read off the tag sequence (which is blind to consumption):
        an outer region whose witness was already consumed contributes
        nothing to this arrival, and its pending cancellation must not eat
        instances earned by an inner, still-live binding's fresh context.
        ``transition.consumed_first`` lists exactly the contexts consumed
        *now*; the region's share is the embeddings of the path prefix that
        end at such a context below (or at) the region.
        """
        last = cancel.path[-1]
        prefix = cancel.path[:-1]
        total = 0
        for d, node in transition.consumed_first:
            if node.role is not cancel.role or d < depth:
                continue
            if last.axis is Axis.CHILD and d != len(self._stack) - 1:
                continue
            if not prefix:
                # Single-step path: the context frame is the region itself.
                if d == depth:
                    total += 1
            else:
                sequence: list[str | None] = [
                    self._stack[i].tag for i in range(depth + 1, d + 1)
                ]
                nodes: list[BufferNode | None] | None = None
                if any(step.first for step in prefix):
                    nodes = [
                        self._stack[i].buffer_node
                        for i in range(depth + 1, d + 1)
                    ]
                total += _count_embeddings_first_aware(
                    prefix, sequence, nodes, self._stack[depth].buffer_node
                )
        return total


class StreamPreprojector(ProjectionLane):
    """Incremental projection of a token stream into the buffer.

    The single-query pump: a :class:`ProjectionLane` that also holds its
    token source and feeds itself one token per :meth:`pull`.  The
    evaluator drives it through that one method; end of input is recorded
    on the buffer (``buffer.document.finished``), not here.
    """

    def __init__(
        self,
        tokens: Iterator[Token],
        tree: ProjectionTree,
        buffer: BufferTree,
        *,
        aggregate_roles: bool = True,
        matcher: StreamMatcher | None = None,
        accumulators: "object | None" = None,
    ) -> None:
        super().__init__(
            tree,
            buffer,
            aggregate_roles=aggregate_roles,
            matcher=matcher,
            accumulators=accumulators,
        )
        # Tokenizers deliver through ``__iter__`` only.
        self._tokens = iter(tokens)

    def pull(self) -> bool:
        """Process one input token.  Returns False when input is exhausted
        (and on every pull after that: a spent iterator stays spent)."""
        token = next(self._tokens, None)
        if token is None:
            self.finish_stream()
            return False
        if isinstance(token, StartTag):
            self.open(token.tag)
        elif isinstance(token, EndTag):
            self.close()
        elif isinstance(token, Text):
            self.text(token)
        elif isinstance(token, Skipped):
            self.skipped(token.tokens, token.dropped)
        elif isinstance(token, Span):
            self.copied(token)
        else:
            raise TypeError(
                f"the preprojector takes no {type(token).__name__} token"
            )
        return True

    def run_to_completion(self) -> None:
        """Project the whole input (the Galax-style, non-incremental mode)."""
        while self.pull():
            pass


def _count_embeddings_first_aware(
    path: Path,
    sequence: list[str | None],
    nodes: list[BufferNode | None] | None,
    region_node: BufferNode | None,
) -> int:
    """Count embeddings of ``path`` into the tag sequence, the last step
    binding the last element.  ``None`` entries denote text tokens.

    Plain and ``[last()]`` steps are unrestricted; over-counting is
    clamped by the caller against the actually assigned instances.  A
    ``[1]`` step may only bind the element its context recorded as the
    first witness (``BufferNode.witnesses``).  Counting it as unrestricted
    and clamping over-counts, because the clamp pool is shared across
    bindings: a region whose witness subtree is already closed would eat
    role instances earned by an inner binding whose chain is still live.
    ``nodes[j]`` is the buffer node behind ``sequence[j]`` (None for
    unpreserved elements and for the arriving token, which only the final
    step can bind); a path without ``[1]`` steps never reads it, so it may
    be ``None`` as a whole.
    """
    n_steps, n_seq = len(path), len(sequence)
    if n_steps == 0 or n_seq == 0:
        return 0

    def test_ok(step: Step, index: int) -> bool:
        label = sequence[index]
        if label is None:
            return step.test.matches_text()
        return step.test.matches_element(label)

    def witness_ok(step: Step, j: int, k: int) -> bool:
        if not step.first:
            return True
        context = region_node if j == 0 else nodes[j - 1]
        elem = nodes[k]
        if context is None or elem is None:
            return False
        table = context.witnesses
        if not table:
            return False
        rec = table.get(step)
        return rec is not None and rec[0] is elem and rec[1] == elem.seq

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(i: int, j: int) -> int:
        """Embeddings of path[i:] into sequence[j:] (last binds last)."""
        if i == n_steps:
            return 1 if j == n_seq else 0
        step = path[i]
        total = 0
        if step.axis is Axis.CHILD:
            if j < n_seq and test_ok(step, j) and witness_ok(step, j, j):
                total += count(i + 1, j + 1)
        elif step.axis is Axis.DESCENDANT:
            for k in range(j, n_seq):
                if test_ok(step, k) and witness_ok(step, j, k):
                    total += count(i + 1, k + 1)
        else:  # DOS: self or any descendant (never positional)
            for k in range(j - 1, n_seq):
                if k == j - 1:
                    total += count(i + 1, j)
                elif test_ok(step, k):
                    total += count(i + 1, k + 1)
        return total

    return count(0, 0)
