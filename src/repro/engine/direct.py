"""The zero-buffer direct runner for schema-certified queries.

When the schema-constraint pass (:mod:`repro.analysis.schema_constraints`)
certifies a query — a single for-loop chain whose body emits one item per
binding, over a schema that proves chain matches cannot nest — the whole
evaluation collapses to a single streaming pass: every input token either
belongs to the current match (and is transformed straight into output) or
to none (and is dropped by projection).  The buffer stays empty, so the
high watermark of a certified run on a conforming document is **zero**.

The certificate promises non-nesting only for *conforming* documents, and
the engine's contract is byte-identical output on every document.  The
runner therefore never trusts the certificate blindly: it detects nested
chain matches structurally (a second match opening while one is being
streamed) and falls back to buffering just those matches — each nested
match's subtree is captured and replayed through the body emitter after
the enclosing match closes, which is exactly the document-order output the
buffered engine produces.  Fallback captures are charged to the run's
:class:`~repro.buffer.stats.BufferStats` under the same cost model as
buffered nodes, so the reported high watermark stays honest, and
``schema_fallbacks`` counts the matches that needed it.

The chain also guides the scanner (:class:`ChainGuide`, a lazy DFA
memoised on ``(state, tag)`` and shared by every run of a session or
pool): subtrees no chain state survives arrive as
:class:`~repro.xmlio.tokens.Skipped` counts, and for ``{$x}`` bodies each
match arrives as one :class:`~repro.xmlio.tokens.Span` — its output text,
copied by the scanner — so on a conforming document nothing is built
but the few tokens above the matches (docs/PERFORMANCE.md, "The COPY
row").

:class:`DirectEvaluator` is the evaluator of its
:class:`~repro.engine.session.StreamingRun` and its own pump: it reads the
token stream itself and, at its end, marks its (empty) buffer's document
finished, the end-of-stream record every run reads.
"""

from __future__ import annotations

import threading
from sys import intern
from typing import Iterator

from repro.analysis.schema_constraints import ZeroBufferPlan
from repro.buffer.buffer import BufferTree
from repro.buffer.stats import BufferStats
from repro.xmlio.lexer import COPY, DEAD, RunGuide, scan_entry
from repro.xmlio.tokens import EndTag, Skipped, Span, StartTag, Token
from repro.xquery.paths import Axis, Path, TestKind

__all__ = ["DirectEvaluator"]


class _SubtreeEmitter:
    """Body emitter for ``{$x}`` bodies: the match subtree, verbatim."""

    __slots__ = ()

    def feed(self, token: Token) -> tuple[Token, ...]:
        return (token,)


class _PathEmitter:
    """Body emitter for ``{$x/path}`` bodies (child-axis steps only).

    Tracks, per open element inside the match, whether its tag chain
    matches a prefix of the output path; a full element match copies the
    element's subtree, a ``text()`` final step emits matching text nodes.
    Child-axis paths address fixed relative depths, so output matches can
    never nest and one copy window suffices.
    """

    __slots__ = ("_path", "_k", "_stack", "_copy_depth")

    def __init__(self, path: Path) -> None:
        self._path = path
        self._k = len(path)
        self._stack: list[bool] = []  # matched-through flags, [0] = binding
        self._copy_depth: int | None = None

    def feed(self, token: Token) -> tuple[Token, ...]:
        stack = self._stack
        if isinstance(token, StartTag):
            if self._copy_depth is not None:
                stack.append(False)
                return (token,)
            level = len(stack)  # binding element is level 0
            if level == 0:
                matched = True
            else:
                matched = (
                    level <= self._k
                    and stack[-1]
                    and self._path[level - 1].test.matches_element(token.tag)
                )
            stack.append(matched)
            if matched and level == self._k:
                self._copy_depth = level
                return (token,)
            return ()
        if isinstance(token, EndTag):
            level = len(stack) - 1
            stack.pop()
            if self._copy_depth is not None:
                emitted = (token,)
                if level == self._copy_depth:
                    self._copy_depth = None
                    return emitted
                return emitted
            return ()
        # Text: matched when its parent matched through all element steps
        # and the final step is text().
        if self._copy_depth is not None:
            return (token,)
        if (
            len(stack) == self._k
            and stack
            and stack[-1]
            and self._path[self._k - 1].test.kind is TestKind.TEXT
        ):
            return (token,)
        return ()


def _make_emitter(plan: ZeroBufferPlan):
    if plan.kind == "subtree":
        return _SubtreeEmitter()
    return _PathEmitter(plan.body_path)


class _PendingMatch:
    """A nested chain match captured on the structural fallback path: the
    slice ``[start, end)`` of the capture log that all pending matches
    share (``end`` is ``None`` while the match is still open).

    The log records each captured token once, with the modelled cost
    charged for it (zero for close tags) so the flush can refund exactly
    what the capture charged, and the ``tokens_read`` count at capture
    time so the flush can account how long the token was held before
    emission (``BufferStats.tokens_held_before_emit``).
    """

    __slots__ = ("depth", "start", "end")

    def __init__(self, depth: int, start: int) -> None:
        self.depth = depth
        self.start = start
        self.end: int | None = None


class _ChainState:
    """One state of the chain's lazy DFA: the set of NFA states alive at
    an open element (NFA state *i* = the first *i* chain steps matched).

    ``next`` memoises the transition per tag and ``row`` is the state's
    scan row; entries are published under the guide's lock and never
    change afterwards.
    """

    __slots__ = ("states", "match", "next", "row")

    def __init__(self, states: frozenset[int], full: int) -> None:
        self.states = states
        #: A binding match opens here.
        self.match = full in states
        self.next: dict[str, _ChainState] = {}
        self.row = _ChainRow(self)


class _ChainRow(dict):
    """A chain state's scan row: tag-name bytes -> scan entry or ``DEAD``."""

    __slots__ = ("state",)

    def __init__(self, state: _ChainState) -> None:
        self.state = state


class ChainGuide:
    """The chain's lazy DFA, and the scan guide it publishes.

    One per compiled certified query, shared by every run of its session
    or pool and warmed by them.  The runner steps it per delivered start
    tag; the tokenizer reads its rows (``root_row()``/``miss()``, the
    protocol of :class:`~repro.xmlio.lexer.XMLTokenizer`):

    * DEAD where no chain state survives — nothing below can match;
    * character data outside matches is dead (the runner drops it);
    * COPY at a match start when the body copies the bound subtree and the
      chain's last step is a name test: the subtree arrives as one
      :class:`~repro.xmlio.tokens.Span` (or LIVE, when the scanner bails —
      inside a match nothing is consulted, so a nested match is seen);
    * LIVE at any other match start.

    Memoisation is published under a lock taken on the miss path only;
    :attr:`size` counts memoised transitions so an owner can replace a
    guide that an adversarial document bloated (``MATCHER_STATE_CAP``).
    """

    def __init__(self, plan: ZeroBufferPlan) -> None:
        self.plan = plan
        chain = plan.chain
        self._full = len(chain)
        self._lock = threading.Lock()
        self._states: dict[frozenset[int], _ChainState] = {}
        #: Memoised (state, tag) transitions.
        self.size = 0
        last = chain[-1].test
        self._copies = plan.kind == "subtree" and last.kind is TestKind.TAG
        self.initial = self._intern(frozenset({0}))

    def step(self, state: _ChainState, tag: str) -> _ChainState:
        """The state below ``state`` for an element labelled ``tag``."""
        nxt = state.next.get(tag)
        if nxt is not None:
            return nxt
        chain = self.plan.chain
        out = set()
        for index in state.states:
            if index == self._full:
                # No step beyond the last; descendant re-entry happens from
                # the persisting state below the full state, not from it.
                continue
            step = chain[index]
            if step.test.matches_element(tag):
                out.add(index + 1)
            if step.axis is Axis.DESCENDANT:
                out.add(index)
        nxt = self._intern(frozenset(out))
        with self._lock:
            if tag not in state.next:
                self.size += 1
            return state.next.setdefault(tag, nxt)

    def _intern(self, states: frozenset[int]) -> _ChainState:
        with self._lock:
            state = self._states.get(states)
            if state is None:
                state = self._states[states] = _ChainState(states, self._full)
            return state

    # -- the scan guide ----------------------------------------------------

    def root_row(self) -> _ChainRow:
        return self.initial.row

    def miss(self, row: _ChainRow, name_key: bytes):
        """Decide, publish and return ``row``'s entry for a new tag."""
        state = self.step(row.state, intern(name_key.decode("utf-8")))
        if not state.states:
            entry = DEAD
        elif state.match:
            entry = scan_entry(name_key, COPY if self._copies else None, row)
        else:
            entry = scan_entry(name_key, state.row, row, True)
        with self._lock:
            return row.setdefault(name_key, entry)

    def for_run(self, stats: BufferStats) -> RunGuide:
        """The guide one run's tokenizer reads: these rows, with copy
        fallbacks counted on the run's statistics."""
        return RunGuide(self, stats)


class DirectEvaluator:
    """Single-pass evaluation of a :class:`ZeroBufferPlan` over a stream.

    The chain runs as the guide's lazy DFA over open tags, one state per
    open element; a state holding the full chain marks a binding match.
    The first match with no match in flight streams its body output live
    (or arrives whole, as a :class:`~repro.xmlio.tokens.Span` the scanner
    copied); matches opening inside it (schema violations) are captured
    and replayed in document order once it closes.
    """

    def __init__(
        self, guide: ChainGuide, tokens: Iterator[Token], buffer: BufferTree
    ) -> None:
        self._guide = guide
        self._plan = guide.plan
        self._tokens = tokens
        # The buffer stays empty: it carries the run's statistics (whose
        # cost model prices fallback captures) and its end-of-stream mark.
        self._buffer = buffer
        self._stats = buffer.stats
        self._cost = buffer.stats.model

    # -- output ----------------------------------------------------------

    def iter_tokens(self) -> Iterator[Token]:
        plan = self._plan
        stats = self._stats
        step = self._guide.step
        wrapper_open = tuple(StartTag(tag) for tag in plan.wrappers)
        wrapper_close = tuple(EndTag(tag) for tag in reversed(plan.wrappers))

        for tag in plan.envelope:
            yield StartTag(tag)

        state_stack: list[_ChainState] = [self._guide.initial]
        head_depth: int | None = None  # stack depth of the streaming match
        emitter = None
        pending: list[_PendingMatch] = []  # capture order = document order
        open_pending: list[_PendingMatch] = []
        # One capture log shared by every pending match, so a token inside
        # k nested matches is held (and charged) once, not k times.
        log: list[tuple[Token, int, int]] = []  # (token, cost, born)

        for token in self._tokens:
            if isinstance(token, StartTag):
                stats.tokens_read += 1
                top = state_stack[-1]
                nxt = top.next.get(token.tag)
                if nxt is None:
                    nxt = step(top, token.tag)
                state_stack.append(nxt)
                if head_depth is None:
                    if nxt.match:
                        head_depth = len(state_stack)
                        emitter = _make_emitter(plan)
                        yield from wrapper_open
                        yield from emitter.feed(token)
                    else:
                        stats.nodes_dropped += 1
                    continue
                if nxt.match:
                    # Nested match: the certificate said this cannot happen
                    # on conforming input — capture it for replay.
                    stats.schema_fallbacks += 1
                    match = _PendingMatch(len(state_stack), len(log))
                    pending.append(match)
                    open_pending.append(match)
                if open_pending:
                    cost = self._cost.element_cost()
                    log.append((token, cost, stats.tokens_read))
                    stats.on_create(cost)
                yield from emitter.feed(token)
            elif isinstance(token, EndTag):
                stats.tokens_read += 1
                depth = len(state_stack)
                state_stack.pop()
                if head_depth is None:
                    continue
                if open_pending:
                    log.append((token, 0, stats.tokens_read))
                    if open_pending[-1].depth == depth:
                        open_pending.pop().end = len(log)
                yield from emitter.feed(token)
                if depth == head_depth:
                    # The streaming match closed: replay captured nested
                    # matches in the order they opened (document order,
                    # which is what the buffered engine emits).
                    head_depth = None
                    emitter = None
                    yield from wrapper_close
                    for match in pending:
                        replay = _make_emitter(plan)
                        yield from wrapper_open
                        for captured, _cost, born in log[match.start : match.end]:
                            stats.tokens_held_before_emit += (
                                stats.tokens_read - born
                            )
                            yield from replay.feed(captured)
                        yield from wrapper_close
                    for _token, cost, _born in log:
                        if cost:
                            stats.on_purge(cost)
                    pending.clear()
                    log.clear()
            elif isinstance(token, Span):
                # A whole match the scanner copied (COPY rows are consulted
                # only outside matches): the body output, verbatim.
                stats.tokens_read += token.tokens
                stats.tokens_copied += token.tokens
                yield from wrapper_open
                yield token
                yield from wrapper_close
            elif isinstance(token, Skipped):
                # Dead to the chain: what the unguided stream would have
                # delivered and this loop dropped, as counts.
                stats.tokens_read += token.tokens
                stats.tokens_skipped += token.tokens
                stats.nodes_dropped += token.dropped
            else:  # Text (or CData)
                stats.tokens_read += 1
                if head_depth is None:
                    stats.nodes_dropped += 1
                    continue
                if open_pending:
                    cost = self._cost.text_cost(token.content)
                    log.append((token, cost, stats.tokens_read))
                    stats.on_create(cost)
                yield from emitter.feed(token)

        self._buffer.finish_document()
        for tag in reversed(plan.envelope):
            yield EndTag(tag)
