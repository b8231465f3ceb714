"""The shared-stream dispatcher: one token pass feeding N query lanes.

Where :class:`~repro.stream.preprojector.StreamPreprojector` is one
:class:`~repro.stream.preprojector.ProjectionLane` pumping its own
tokenizer, :class:`SharedPreprojector` pumps one tokenizer into N lanes —
the runtime half of the multi-query engine (:mod:`repro.engine.multi`),
whose member evaluators all call its :meth:`~SharedPreprojector.pull`.  The
document is tokenized exactly once (``tokens_read`` counts the single
scan, the invariant the tests assert); each surviving token is
routed to the subset of lanes that still care about it.

Routing maintains the *live bitmask* the union projection tree
(:mod:`repro.analysis.union_tree`) describes statically, as three
disjoint lane sets:

* **active** lanes receive every token;
* **parked** lanes declared the current subtree dead
  (:meth:`ProjectionLane.subtree_dead`: the element was not preserved and
  its frame carries no matches — nothing below can ever concern the
  query).  A parked lane is withheld the whole subtree except the closing
  tag of the element it parked at, which pops its stack and reactivates
  it.  Parks are subtree-shaped, so the park registry is a stack whose
  depths strictly increase;
* **retired** lanes finished their evaluation — every signOff executed —
  and receive nothing further, not even stream-end bookkeeping, because
  their buffers have already been released to their owners.

This is the merged-signoff release rule in dynamic form: a document
region stops being scanned on behalf of a query exactly when that query
has either proven the region irrelevant (park) or signed off everything
it held (retire); the region leaves the *shared* pass when every
interested query has done one or the other.

The per-lane ``buffer.stats.tokens_read`` counts only the tokens actually
dispatched to that lane, so ``RunResult.stats.tokens_read`` reports each
query's routed share of the single scan — the routing savings are the
difference to ``tokens_read * N``.

The park rule is also evaluated *ahead* of the stream: :class:`ProductGuide`
composes the lanes' scan rows (:mod:`repro.stream.matcher`) into one guide
for the shared tokenizer, so a subtree that every lane would park on is
validated by the scanner but never built, and arrives as one
:class:`~repro.xmlio.tokens.Skipped` that the dispatcher charges to the
lanes exactly as the withheld open/park/close would have been.  A copy
site that every other lane is dead at arrives as one
:class:`~repro.xmlio.tokens.Span`: the copying lanes buffer it as their
solo runs do, and the others are charged the open and close of a park.
"""

from __future__ import annotations

import threading
from typing import Iterator, Sequence

from repro.stream.preprojector import ProjectionLane
from repro.xmlio.lexer import COPY, DEAD, RunGuide, scan_entry
from repro.xmlio.tokens import EndTag, Skipped, Span, StartTag, Text, Token

__all__ = ["ProductGuide", "SharedPreprojector"]


class _ProductRow(dict):
    """A :class:`ProductGuide` row: tag-name bytes → scan entry or ``DEAD``."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple) -> None:
        #: Per lane, that lane's own row for the open element — or ``DEAD``
        #: once the lane would have parked at an enclosing element.
        self.parts = parts


class ProductGuide:
    """The scan guide of a shared pass: the lanes' guides, multiplied.

    A product row is the tuple of the lanes' own rows.  A tag is ``DEAD``
    iff it is dead for every lane, LIVE as soon as one lane is LIVE (that
    lane needs every token below, so nothing can be skipped), and a lane
    that goes ``DEAD`` stays dead in the rows below until its element
    closes — :class:`SharedPreprojector`'s park rule, decided from the
    lanes' static rows instead of their dynamic state.  A tag is COPY when
    at least one lane's entry is COPY and every other lane's is ``DEAD``:
    the scanner delivers one :class:`~repro.xmlio.tokens.Span`, which
    the copying lanes buffer and the dead ones are charged as a park.  A
    COPY entry beside a lane that still needs a child row there is LIVE:
    that lane reads below the copy site.  Retirement stays
    dynamic and only makes the product conservative: a retired lane keeps
    vetoing skips it no longer needs.

    Character data directly inside a delivered element is never reported
    dead, so every token a shared pass skips lies inside one of the
    ``roots`` its ``Skipped`` reports — which is what lets the dispatcher
    charge it as ``roots`` open/park/close triples per active lane.

    Rows are memoised on the guide; build one per tuple of lane guides and
    reuse it while those stay the same objects.
    """

    def __init__(self, guides: Sequence) -> None:
        self.guides = tuple(guides)
        self._lock = threading.Lock()
        self._rows: dict[tuple[int, ...], _ProductRow] = {}

    def root_row(self) -> _ProductRow | None:
        parts = tuple(guide.root_row() for guide in self.guides)
        if any(part is None for part in parts):
            return None  # one lane is LIVE from the document node down
        return self._row(parts)

    def miss(self, row: _ProductRow, name_key: bytes) -> "tuple | object":
        children = []  # per lane: its child row, COPY or DEAD
        for guide, part in zip(self.guides, row.parts):
            entry = DEAD
            if part is not DEAD:
                entry = part.get(name_key) or guide.miss(part, name_key)
            if entry is not DEAD:
                entry = entry[5]
                if entry is None:
                    # LIVE for this lane: LIVE for the pass.
                    children = None
                    break
            children.append(entry)
        if children is None:
            entry = scan_entry(name_key, None, row)
        elif all(child is DEAD for child in children):
            entry = DEAD
        else:
            copiers = tuple(i for i, child in enumerate(children) if child is COPY)
            if not copiers:
                entry = scan_entry(name_key, self._row(tuple(children)), row)
            elif all(child is COPY or child is DEAD for child in children):
                # Field 8, past what the scanner reads: the copying lanes.
                entry = scan_entry(name_key, COPY, row) + (copiers,)
            else:
                # A copying lane takes the subtree whole, another reads
                # below it: both need every token.
                entry = scan_entry(name_key, None, row)
        with self._lock:
            return row.setdefault(name_key, entry)

    def for_run(self, stats: Sequence) -> "_ProductRun":
        """The guide one pass's tokenizer reads: these rows, with each
        copy fallback counted on the statistics (``stats``, one per lane,
        in lane order) of every lane that was to copy the subtree."""
        return _ProductRun(self, stats)

    def _row(self, parts: tuple) -> _ProductRow:
        # The lanes' rows are unhashable dicts, pinned by their matchers
        # (and by the product row) for as long as this guide is in use.
        key = tuple(map(id, parts))
        row = self._rows.get(key)
        if row is None:
            with self._lock:
                row = self._rows.setdefault(key, _ProductRow(parts))
        return row


class _ProductRun(RunGuide):
    """One pass's view of a :class:`ProductGuide` (see
    :class:`~repro.xmlio.lexer.RunGuide`): a copy fallback counts on each
    lane the product entry was to copy for."""

    __slots__ = ()

    def copy_failed(self, entry: tuple) -> None:
        for index in entry[8]:
            self._stats[index].copy_fallbacks += 1


class SharedPreprojector:
    """One tokenizer scan dispatched to N projection lanes.

    Every member query's evaluator pulls this pump directly: a pull by any
    of them reads one token and dispatches it to every active lane, so
    demand from any query fills all queries' buffers.  A
    :class:`~repro.xmlio.tokens.Span` goes to every active lane's
    :meth:`~repro.stream.preprojector.ProjectionLane.copied`, which
    buffers it, charges it as a park, or refuses it.
    """

    def __init__(self, tokens: Iterator[Token], lanes: list[ProjectionLane]) -> None:
        if not lanes:
            raise ValueError("SharedPreprojector needs at least one lane")
        self._tokens = iter(tokens)
        self.lanes = list(lanes)
        #: Tokens read from the shared stream — the single-scan count; the
        #: whole point of the subsystem is that this stays one document
        #: scan however many queries run.
        self.tokens_read = 0
        #: The part of ``tokens_read`` the guided scanner never built.
        self.tokens_skipped = 0
        self.exhausted = False
        self._depth = 0
        self._active: list[int] = list(range(len(lanes)))
        # Stack of (depth, [lane indices]) parks; depths strictly increase,
        # so the closing tag at the top entry's depth is the reactivation
        # point for exactly those lanes.
        self._parked: list[tuple[int, list[int]]] = []
        self._retired: set[int] = set()

    # -- routing telemetry ----------------------------------------------

    @property
    def active_mask(self) -> int:
        """The live bitmask: queries currently receiving tokens."""
        mask = 0
        for index in self._active:
            mask |= 1 << index
        return mask

    @property
    def parked_count(self) -> int:
        return sum(len(indices) for _depth, indices in self._parked)

    # -- lane lifecycle --------------------------------------------------

    def retire(self, index: int) -> None:
        """Stop routing to lane ``index`` forever (its run completed).

        A retired lane's buffer belongs to its owner again (it may already
        be recycled into another run), so the dispatcher must never touch
        the lane after this — including the stream-end bookkeeping.
        """
        self._retired.add(index)
        try:
            self._active.remove(index)
        except ValueError:
            pass  # parked (or already retired): the park pop skips it

    # -- the shared pump -------------------------------------------------

    def pull(self) -> bool:
        """Read one token from the shared stream and route it.

        Returns False when the input is exhausted, after marking every
        non-retired lane's stream finished.
        """
        if self.exhausted:
            return False
        token = next(self._tokens, None)
        if token is None:
            self.exhausted = True
            for index, lane in enumerate(self.lanes):
                if index not in self._retired:
                    lane.finish_stream()
            return False
        self.tokens_read += 1
        lanes = self.lanes
        active = self._active
        if isinstance(token, StartTag):
            self._depth += 1
            tag = token.tag
            newly_parked: list[int] | None = None
            for index in active:
                lane = lanes[index]
                lane.open(tag)
                if lane.subtree_dead():
                    if newly_parked is None:
                        newly_parked = []
                    newly_parked.append(index)
            if newly_parked is not None:
                for index in newly_parked:
                    active.remove(index)
                self._parked.append((self._depth, newly_parked))
        elif isinstance(token, EndTag):
            for index in active:
                lanes[index].close()
            if self._parked and self._parked[-1][0] == self._depth:
                _depth, indices = self._parked.pop()
                for index in indices:
                    if index not in self._retired:
                        # Pop the element the lane parked at; the subtree
                        # between open and close was withheld entirely.
                        lanes[index].close()
                        active.append(index)
            self._depth -= 1
        elif isinstance(token, Text):
            # Hand lanes the token, not ``token.content``: decoding a
            # LazyText here would charge every skipped subtree for a str
            # conversion its lanes never asked for.
            for index in active:
                lanes[index].text(token)
        elif isinstance(token, Skipped):
            # ``roots`` subtrees dead to every lane: undelivered, each
            # would have cost every active lane an open (dropped), a park
            # and the close that ends it — and a parked lane nothing.
            self.tokens_read += token.tokens - 1  # one was counted above
            self.tokens_skipped += token.tokens
            roots = token.roots
            for index in active:
                lanes[index].skipped(2 * roots, roots)
        elif isinstance(token, Span):
            # A copy site every other lane is dead at: each copying lane
            # buffers the span, each dead one is charged a parked
            # open/close, and any other lane refuses it.
            self.tokens_read += token.tokens - 1  # one was counted above
            for index in active:
                lanes[index].copied(token)
        else:
            raise TypeError(
                f"the shared preprojector takes no {type(token).__name__} token"
            )
        return True

    def run_to_completion(self) -> None:
        """Drain the shared stream (all lanes projected in one scan)."""
        while self.pull():
            pass
