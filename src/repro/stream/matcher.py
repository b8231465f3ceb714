"""Projection-tree matching over the input stream (Section 2, Figure 5).

The paper realizes stream preprojection with a lazily constructed DFA whose
states map to multisets of projection tree nodes — multiplicities count the
number of path-step assignments that match (Example 1).  This module
implements that machine literally: every distinct multiset pair
(``matches``, ``cumulative``) is *interned* into a small integer DFA state
id, and transitions are memoized in a table keyed by ``(state_id, tag)``.
After the first occurrence of a tag in a given state, matching that tag
again is a single dict lookup — the lazy DFA construction of Section 2,
with :attr:`StreamMatcher.table_hits` / :attr:`StreamMatcher.table_misses`
exposing how often the table short-circuits the multiset computation.

* each open element carries the multiset of projection tree nodes matched
  exactly at it (``matches``) and the accumulated multiset of ancestor-or-
  self matches that can still extend through descendant steps
  (``cumulative``), plus the interned ``state_id`` of that pair,
* reading an opening tag computes the child's multiset from child-axis
  contributions of the parent's ``matches`` and descendant/dos-axis
  contributions of the parent's ``cumulative``,
* ``[1]`` (first witness) steps are consumed per context node, so only the
  first match per context is preserved (Figure 1's ``price[1]``).  Frames
  that consumed a ``[1]`` step take the matcher off the DFA: the transition
  then depends on how matches distribute across frames, which a
  single-state key cannot see, so it is computed directly (rare),
* ``dos::node()`` leaves assign their role at the node their parent step
  matched — as an *aggregate* role covering the subtree (Section 6) or,
  with ``aggregate_roles=False``, as plain roles on every subtree node
  (the formulation of Sections 2–5 and Figure 2).

Preservation of a token follows the two conditions of Section 2: (1) some
matched projection tree node forces preservation (it carries a role, or the
token lies under an aggregate scope), and (2) the *promotion guard*: a node
is preserved, even without roles, when the current state matches nodes
``v`` (with a child-axis child labeled ``a``) and ``w`` (with a
descendant-axis child labeled ``a``) for overlapping tests — discarding it
would promote a descendant into a false child-axis match (Example 2).

Scan rows (docs/PERFORMANCE.md, "Scan-time projection").  The matcher is
also the tokenizer's *scan guide*: per DFA state it publishes a lazily
filled :class:`ScanRow` telling the scanner, for each tag, whether the
element is worth building at all.

* ``DEAD`` is :meth:`ProjectionLane.subtree_dead` decided ahead of the
  stream: the transition has no ``matches`` and no ``cumulative`` (hence no
  roles — every role derives from a match), is not ``structural``, and no
  tracked ancestor carried an aggregate role (such an ancestor made its
  whole subtree LIVE, so no row is consulted below it).  Every per-query
  effect of a token — child and descendant contributions, role assignment,
  the promotion guard, aggregate coverage, accumulator credits (their
  chains are projection-tree nodes) — derives from those multisets, so
  nothing in the subtree can concern the query.  It is the criterion the
  shared dispatcher already parks lanes on.
* A transition with a non-empty ``cumulative`` gets a *descend row* when
  every descendant step still to fire from it is a plain name test (not
  ``*``, ``node()``, ``text()``, ``dos::node()`` or ``[1]``): a
  descendant step can fire anywhere below and ``cumulative`` never
  shrinks downwards, so such a row never says DEAD, but it keeps the
  scanner looking tags up — text directly inside is dead per row as for
  any row, and a copy site below can still be COPY.
* LIVE ("stop consulting rows until this element closes") is a transition
  that carries an aggregate role (the subtree is covered) and is not a
  COPY entry, or a non-empty ``cumulative`` with any other descendant
  step: a ``*``/``node()``/``text()`` step or an unrolled ``dos::node()``
  can match almost anything below, and a descendant-axis ``[1]`` step's
  matching reads the whole frame stack rather than the state.
* COPY is a transition whose aggregate roles all belong to *copy sites*
  (:func:`repro.analysis.dependencies.copy_site_roles`: output sites
  nothing else reads) while nothing else can match below it but elements
  named like its own tag, which the scanner's copy bails on.  The whole
  subtree then arrives as one :class:`~repro.xmlio.tokens.Span` that the
  lane buffers as the element's content (or LIVE, when the scanner cannot
  copy it).  Only a matcher built with ``copy_roles`` has COPY entries.
* Rows are computed on **consumption-free** frames.  ``[1]`` consumption
  and pending cancellations only ever *remove* matches and roles, and
  child-axis contributions are monotone in the parent's matches, so the
  lane's dynamic multisets are always contained in the row's static ones:
  DEAD in the row implies dead for the lane whatever its dynamic state.
  The tokenizer runs a whole batch ahead of the lane and never asks it.

Thread safety (see docs/CONCURRENCY.md).  One matcher may serve concurrent
runs: all per-run state lives in the :class:`MatchFrame` stacks owned by
each run's preprojector, while the shared state — the interned DFA states
and the transition table — is *immutable after publish*: a
:class:`Transition` (and the dicts it carries) is never mutated once it is
stored, and frames only read the dicts they borrow from it.  Publication —
of states, transitions, scan rows and their entries — is guarded by a
single lock taken on the memoization **miss** path only; the hot hit path
(one dict ``get``) stays lock-free.  The ``table_hits`` /
``off_dfa_computes`` counters are updated without the lock and may
undercount under concurrency; they are exact in single-threaded use.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, field
from sys import intern

from repro.analysis.projection_tree import ProjectionTree, PTNode
from repro.analysis.roles import Role
from repro.buffer.stats import BufferStats
from repro.xmlio.lexer import COPY, DEAD, RunGuide, scan_entry
from repro.xquery.paths import Axis, NodeTest, TestKind

__all__ = ["MatchFrame", "Transition", "StreamMatcher"]


@dataclass(slots=True)
class Transition:
    """The result of matching one token: everything the preprojector needs.

    A published transition is a frozen *action record*: nothing in it
    changes after the matcher stores it, so what the lane would otherwise
    re-derive per delivered token — the role assignments as item tuples,
    ready for :meth:`BufferTree.assign_roles` — is derived once here.
    """

    matches: dict[PTNode, int]  # exact matches at the new node
    cumulative: dict[PTNode, int]  # ancestor-or-self matches, desc-capable
    normal_roles: dict[Role, int]
    aggregate_roles: dict[Role, int]
    structural: bool  # preservation condition (2) fired
    consumed_first: list[tuple[int, PTNode]]  # (stack depth, [1]-node) pairs
    state_id: int = -1  # interned DFA state of (matches, cumulative)
    normal_items: tuple[tuple[Role, int], ...] = field(init=False)
    aggregate_items: tuple[tuple[Role, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        self.normal_items = tuple(self.normal_roles.items())
        self.aggregate_items = tuple(self.aggregate_roles.items())


class ScanRow(dict):
    """One DFA state's scan row: tag-name bytes → scan entry or ``DEAD``.

    What the guided tokenizer looks start tags up in while the element of
    this state is the innermost delivered one (see
    :func:`repro.xmlio.lexer.scan_entry` for the entry layout; a LIVE
    child is an entry without a child row, a COPY child one whose child
    row is :data:`~repro.xmlio.lexer.COPY`).  Filled lazily by
    :meth:`StreamMatcher.miss`.
    """

    __slots__ = ("matches", "cumulative", "text_dead")

    def __init__(
        self,
        matches: dict[PTNode, int],
        cumulative: dict[PTNode, int],
        text_dead: bool,
    ) -> None:
        #: The state's multisets (a ``cumulative`` whose descendant steps
        #: are all plain name tests, or the element would have been LIVE).
        self.matches = matches
        self.cumulative = cumulative
        #: Character data directly inside the element is dead.
        self.text_dead = text_dead


_NOTHING_CONSUMED: frozenset = frozenset()


class MatchFrame:
    """Matcher state for one open element of the input stream."""

    __slots__ = ("matches", "cumulative", "consumed", "state_id")

    def __init__(
        self,
        matches: dict[PTNode, int],
        cumulative: dict[PTNode, int],
        state_id: int | None = None,
    ) -> None:
        self.matches = matches
        self.cumulative = cumulative
        # [1]-steps already satisfied from this frame's context; the set
        # is allocated by the first consumption (most frames never see one).
        self.consumed: "set[PTNode] | frozenset[PTNode]" = _NOTHING_CONSUMED
        # Interned DFA state; None for frames built outside the matcher
        # (tests), interned lazily on first lookup.
        self.state_id = state_id


class StreamMatcher:
    """Incremental matcher with an interned-state transition table.

    This is the paper's lazy DFA: states are discovered on demand as the
    document exposes new (``matches``, ``cumulative``) multiset pairs, and
    the transition table maps ``(state_id, tag)`` — with ``tag=None``
    standing for character data — straight to the memoized
    :class:`Transition`.

    Tag strings arriving from the bytes-domain lexer are ``sys.intern``-ed
    (one decode per distinct spelling per document), so the ``(state_id,
    tag)`` keys share one cached hash and pointer-compare on lookup.
    """

    def __init__(
        self,
        tree: ProjectionTree,
        *,
        aggregate_roles: bool = True,
        copy_roles: frozenset[Role] = frozenset(),
    ) -> None:
        self.tree = tree
        self.aggregate = aggregate_roles
        # The aggregate roles a COPY entry may carry (copy sites); copying
        # rides the aggregate cover, so it needs aggregate roles.
        self._copy_roles = copy_roles if aggregate_roles else frozenset()
        self._index: dict[int, int] = {}  # id(PTNode) -> small int (state keys)
        for i, node in enumerate(tree.all_nodes()):
            self._index[id(node)] = i
        # Lazy DFA: interned states and the memoized transition table.
        # Readers go lock-free (GIL-atomic dict gets); every write — state
        # interning and transition publication — happens under this lock,
        # which is only ever taken on the miss path.
        self._lock = threading.Lock()
        self._state_ids: dict[tuple, int] = {}
        self._table: dict[tuple[int, str | None], Transition] = {}
        # Scan rows by state id; they live and die with this matcher, so
        # recycling a bloated matcher replaces rows and table together.
        self._rows: dict[int, ScanRow] = {}
        #: Transition-table lookups that hit a memoized transition.
        self.table_hits = 0
        #: Lookups that had to compute (and then memoize) the transition.
        self.table_misses = 0
        #: Tokens matched off-DFA because a frame consumed a [1]-step.
        self.off_dfa_computes = 0

    # ------------------------------------------------------------------

    @property
    def state_count(self) -> int:
        """Number of DFA states discovered so far."""
        return len(self._state_ids)

    @property
    def table_size(self) -> int:
        """Number of memoized transitions."""
        return len(self._table)

    def initial_frame(self) -> MatchFrame:
        """The frame of the document node: the root ``/`` matched once."""
        root = self.tree.root
        matches = {root: 1}
        cumulative = {root: 1} if _desc_capable(root) else {}
        return MatchFrame(matches, cumulative, self._intern(matches, cumulative))

    def match_token(
        self,
        stack: list[MatchFrame],
        *,
        tag: str | None,
        is_text: bool,
        any_consumed: bool | None = None,
    ) -> Transition:
        """Match an opening tag (``tag``) or a text token against the stack.

        The caller applies ``consumed_first`` updates and pushes a new frame
        built from the transition for element tokens.  ``any_consumed``
        short-circuits the per-frame consumption scan when the caller
        already tracks it (the preprojector does); ``None`` means "look".
        """
        if any_consumed is None:
            any_consumed = any(frame.consumed for frame in stack)
        if any_consumed:
            # Past [1]-consumptions make the transition depend on how
            # matches are distributed across frames, which the table key
            # cannot see; compute directly (rare in practice).
            self.off_dfa_computes += 1
            return self._compute(stack, tag=tag, is_text=is_text)
        top = stack[-1]
        state_id = top.state_id
        if state_id is None:
            state_id = top.state_id = self._intern(top.matches, top.cumulative)
        key = (state_id, tag)
        cached = self._table.get(key)
        if cached is not None:
            self.table_hits += 1
            return cached
        self.table_misses += 1
        transition = self._compute(stack, tag=tag, is_text=is_text)
        if not transition.consumed_first:
            # Transitions that consume [1]-steps mutate frame state and are
            # not safely shareable; everything else is.  Publish under the
            # lock: the transition is fully built and never mutated after
            # this point, so concurrent readers either miss (and recompute
            # an identical transition) or see the complete object.
            with self._lock:
                self._table[key] = transition
        return transition

    def frame_for(self, transition: Transition) -> MatchFrame:
        """The frame a start tag pushes: carries the transition's state."""
        return MatchFrame(
            transition.matches, transition.cumulative, transition.state_id
        )

    # ------------------------------------------------------------------
    # the scan guide (what the tokenizer consults ahead of the lane)
    # ------------------------------------------------------------------

    def root_row(self) -> ScanRow | None:
        """The row for the document's top level; ``None`` when the root
        itself is LIVE (a query rooted at ``//*`` can skip nothing)."""
        frame = self.initial_frame()
        if not _descends(frame.cumulative):
            return None
        return self._row(frame.state_id, frame.matches, frame.cumulative)

    def miss(self, row: ScanRow, name_key: bytes) -> "tuple | object":
        """Decide, publish and return ``row``'s entry for a new tag."""
        tag = intern(name_key.decode("utf-8"))
        transition = self._compute(
            [MatchFrame(row.matches, row.cumulative)], tag=tag, is_text=False
        )
        if self.copies(transition, tag):
            entry = scan_entry(name_key, COPY, row)
        elif transition.aggregate_roles or not _descends(transition.cumulative):
            entry = scan_entry(name_key, None, row)  # LIVE
        elif transition.matches or transition.cumulative or transition.structural:
            child = self._row(
                transition.state_id, transition.matches, transition.cumulative
            )
            entry = scan_entry(name_key, child, row, child.text_dead)
        else:
            entry = DEAD
        with self._lock:
            return row.setdefault(name_key, entry)

    def for_run(self, stats: BufferStats) -> RunGuide:
        """The guide one run's tokenizer reads: these rows, with copy
        fallbacks counted on the run's statistics."""
        return RunGuide(self, stats)

    def copies(self, transition: Transition, tag: str) -> bool:
        """Is the transition's element a COPY entry?  Its aggregate roles
        all belong to copy sites, the nodes matched at it have no other
        children (so nothing below is read but through the aggregate
        cover, and the promotion guard cannot fire below), and no
        descendant step can match below but one named like ``tag``."""
        copy_roles = self._copy_roles
        roles = transition.aggregate_roles
        if not roles or not copy_roles.issuperset(roles):
            return False
        for node in transition.matches:
            for child in node.children:
                if child.step.axis is not Axis.DOS or child.role not in copy_roles:
                    return False
        for node in transition.cumulative:
            for child in node.children:
                step = child.step
                if step.axis is Axis.DESCENDANT and (
                    step.first
                    or step.test.kind is not TestKind.TAG
                    or step.test.name != tag
                ):
                    return False
        return True

    def _row(
        self,
        state_id: int,
        matches: dict[PTNode, int],
        cumulative: dict[PTNode, int],
    ) -> ScanRow:
        row = self._rows.get(state_id)
        if row is None:
            text = self._compute(
                [MatchFrame(matches, cumulative)], tag=None, is_text=True
            )
            # No match means no role and no accumulator credit: text is
            # never structural, and under a row nothing is covered.
            row = ScanRow(matches, cumulative, not text.matches)
            with self._lock:
                row = self._rows.setdefault(state_id, row)
        return row

    # ------------------------------------------------------------------

    def _intern(
        self, matches: dict[PTNode, int], cumulative: dict[PTNode, int]
    ) -> int:
        index = self._index
        key = (
            tuple(sorted((index[id(n)], c) for n, c in matches.items())),
            tuple(sorted((index[id(n)], c) for n, c in cumulative.items())),
        )
        state_id = self._state_ids.get(key)
        if state_id is None:
            # Double-checked interning: without the lock two threads could
            # both assign ``len(self._state_ids)`` and alias distinct ids to
            # one multiset state, splitting its transitions across keys.
            with self._lock:
                state_id = self._state_ids.get(key)
                if state_id is None:
                    state_id = self._state_ids[key] = len(self._state_ids)
        return state_id

    def _compute(
        self, stack: list[MatchFrame], *, tag: str | None, is_text: bool
    ) -> Transition:
        top = stack[-1]
        matches: dict[PTNode, int] = {}
        consumed_first: list[tuple[int, PTNode]] = []

        def test_ok(test: NodeTest) -> bool:
            return test.matches_text() if is_text else test.matches_element(tag or "")

        # Child-axis contributions from the parent's exact matches.
        for v, count in top.matches.items():
            for w in v.children:
                if w.step is None or w.step.axis is not Axis.CHILD:
                    continue
                if not test_ok(w.step.test):
                    continue
                if w.step.first:
                    if w in top.consumed:
                        continue
                    consumed_first.append((len(stack) - 1, w))
                matches[w] = matches.get(w, 0) + count

        # Descendant and dos contributions from ancestor-or-self matches.
        for v, count in top.cumulative.items():
            for w in v.children:
                if w.step is None or w.step.axis is Axis.CHILD:
                    continue
                if w.step.axis is Axis.DOS and self.aggregate:
                    # dos::node() roles live on the subtree root (aggregate
                    # mode); descendants inherit instead of matching.
                    continue
                if not test_ok(w.step.test):
                    continue
                if w.step.first:
                    added = self._first_witness_contributions(
                        stack, w, consumed_first
                    )
                    if added:
                        matches[w] = matches.get(w, 0) + added
                    continue
                matches[w] = matches.get(w, 0) + count

        # Roles carried by the matched nodes themselves.
        normal_roles: dict[Role, int] = {}
        for w, count in matches.items():
            if w.role is not None:
                normal_roles[w.role] = normal_roles.get(w.role, 0) + count

        # Self part of dos::node() children: the paper assigns the dos role
        # to the node its parent step matched (Figure 2: book gets r5).
        aggregate_roles: dict[Role, int] = {}
        for w, count in matches.items():
            for u in w.children:
                if u.step is None or u.step.axis is not Axis.DOS:
                    continue
                if u.role is None:
                    continue
                if not test_ok(u.step.test):
                    continue
                target = aggregate_roles if self.aggregate else normal_roles
                target[u.role] = target.get(u.role, 0) + count

        structural = not is_text and self._promotion_guard(top)
        cumulative = dict(top.cumulative)
        for w, count in matches.items():
            if _desc_capable(w) or (not self.aggregate and _has_dos_child(w)):
                cumulative[w] = cumulative.get(w, 0) + count
        return Transition(
            matches=matches,
            cumulative=cumulative,
            normal_roles=normal_roles,
            aggregate_roles=aggregate_roles,
            structural=structural,
            consumed_first=consumed_first,
            state_id=self._intern(matches, cumulative),
        )

    def _first_witness_contributions(
        self,
        stack: list[MatchFrame],
        w: PTNode,
        consumed_first: list[tuple[int, PTNode]],
    ) -> int:
        """Per-frame contributions for a descendant-axis ``[1]`` step.

        Each open element where ``w``'s parent matched is its own context;
        the first witness is consumed per context (frame), so later matches
        in the same subtree are not preserved again.
        """
        parent = w.parent
        added = 0
        for depth, frame in enumerate(stack):
            if w in frame.consumed:
                continue
            count = frame.matches.get(parent, 0)
            if count:
                added += count
                consumed_first.append((depth, w))
        return added

    def _promotion_guard(self, top: MatchFrame) -> bool:
        """Preservation condition (2): child-axis vs descendant-axis clash."""
        child_tests: list[NodeTest] = []
        for v in top.matches:
            for w in v.children:
                if w.step is not None and w.step.axis is Axis.CHILD:
                    child_tests.append(w.step.test)
        if not child_tests:
            return False
        for v in top.cumulative:
            for w in v.children:
                if w.step is None or w.step.axis is Axis.CHILD:
                    continue
                if w.step.axis is Axis.DOS and self.aggregate:
                    # In aggregate mode a dos::node() subtree is preserved
                    # via coverage or not at all — either way no descendant
                    # can outlive this node, so no promotion is possible.
                    continue
                for test in child_tests:
                    if test.overlaps(w.step.test):
                        return True
        return False

    # ------------------------------------------------------------------

    def apply_consumptions(
        self, stack: list[MatchFrame], transition: Transition
    ) -> int:
        """Record consumed [1]-steps; returns how many frames newly hold one.

        The return value lets the preprojector maintain its count of
        consumption-carrying frames without rescanning the stack per token.
        """
        newly_consumed = 0
        for depth, node in transition.consumed_first:
            consumed = stack[depth].consumed
            if not consumed:
                consumed = stack[depth].consumed = set()
                newly_consumed += 1
            consumed.add(node)
        return newly_consumed


def _descends(cumulative: dict[PTNode, int]) -> bool:
    """May a scan row track the elements below a state with this
    ``cumulative``?  Yes when every descendant step that can still fire
    is a plain name test without ``[1]`` (no ``dos::node()`` either)."""
    for node in cumulative:
        for child in node.children:
            step = child.step
            if step.axis is not Axis.CHILD and (
                step.axis is not Axis.DESCENDANT
                or step.first
                or step.test.kind is not TestKind.TAG
            ):
                return False
    return True


def _desc_capable(node: PTNode) -> bool:
    """Does the node have descendant- or dos-axis children to extend through?"""
    return any(
        child.step is not None and child.step.axis is not Axis.CHILD
        for child in node.children
    )


def _has_dos_child(node: PTNode) -> bool:
    return any(
        child.step is not None and child.step.axis is Axis.DOS
        for child in node.children
    )
