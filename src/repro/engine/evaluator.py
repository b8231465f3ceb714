"""The pull-based query evaluator (Sections 5 and 6, Figure 11).

The evaluator interprets the rewritten query strictly sequentially.  When it
needs data that is not yet buffered — binding the next node of a for-loop,
deciding a condition, serializing an output subtree — it blocks and asks the
buffer manager for input, which in turn drives the stream preprojector one
token at a time.  When it encounters a signOff statement it notifies the
buffer manager, which performs the role update and invokes active garbage
collection (Figure 10).

The interpreter is written as a *generator* of output tokens:
:meth:`Evaluator.iter_tokens` lazily yields each output token the moment the
query semantics determine it, interleaved with the demand-driven input
reads.  This is what makes the engine incremental on the output side — a
consumer holding the generator receives the first result fragment as soon
as the first match is decided, long before the input stream is exhausted.
It is the evaluator's only entry point: a caller that wants the result
buffered drains it into a :class:`~repro.xmlio.serialize.TokenSink`.

Input arrives through ``pull``, the step of the run's pump (a solo run's
:class:`~repro.stream.preprojector.StreamPreprojector` or the shared
pass's :class:`~repro.stream.shared.SharedPreprojector`): one token into
the buffer, False once the input is exhausted.

Iteration discipline: every step walk, pulling or over buffered data only,
is the buffer's one resumable pre-order cursor (``BufferNode.descendants``):
it resumes after the last node it yielded, surviving garbage collection
under it, so a walk visits each node once however deep.  Marked-deleted
subtrees are skipped; being unfinished, a marked node may be un-marked by a
role arriving below, so a pulling cursor waits at it and then walks it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

from repro.analysis.roles import Role
from repro.buffer.buffer import BufferTree
from repro.buffer.node import BufferNode, DOC, ELEMENT, TEXT
from repro.engine.relops.aggregates import accumulable, format_number
from repro.engine.relops.hashjoin import JoinIndex, canon_key
from repro.xmlio.tokens import EndTag, StartTag, Text, Token
from repro.xquery.ast import (
    Aggregate,
    And,
    CloseTag,
    Comparison,
    Condition,
    Element,
    Empty,
    Exists,
    Expr,
    ForLoop,
    IfThenElse,
    LiteralOperand,
    Not,
    OpenTag,
    Or,
    PathOperand,
    PathOutput,
    Quantified,
    Query,
    ROOT_VAR,
    Sequence,
    SignOff,
    TextLiteral,
    TrueCond,
    VarRef,
)
from repro.xquery.paths import Axis, Path, Step, dos_node

__all__ = ["Evaluator", "EvaluationError"]

_DOS_STEP = dos_node()

Env = dict[str, BufferNode]


class EvaluationError(RuntimeError):
    """Raised when evaluation hits an inconsistent state."""


class Evaluator:
    """Sequential evaluation of a rewritten XQ query over the buffer."""

    def __init__(
        self,
        query: Query,
        buffer: BufferTree,
        pull: Callable[[], bool],
        *,
        aggregate_roles: bool = True,
        execute_signoffs: bool = True,
        eager_leaf_bindings: bool = False,
        earliness_sites: "frozenset[tuple[str, Path]] | None" = None,
        single_match_loops: "frozenset[str] | None" = None,
        join_plan: "object | None" = None,
        on_event: Callable[[str], None] | None = None,
    ) -> None:
        self.query = query
        self.buffer = buffer
        self._pull = pull
        # Per step: (step, node-test predicate, cursor depth).  Keyed by id,
        # as hashing a Step costs more than a short walk; holding the step
        # keeps its id from being reused.
        self._keeps: dict[int, tuple[Step, Callable, int | None]] = {}
        self.aggregate = aggregate_roles
        self.execute_signoffs = execute_signoffs
        self.on_event = on_event
        # Decided-watermark plan (docs/EARLINESS.md).  ``earliness_sites``
        # holds the (var, path) output sites whose ``open`` watermark lets
        # the subtree stream out as tokens arrive; ``None`` disables the
        # pass entirely (conservative emission, no first-witness
        # short-circuit), which is what direct constructions in tests get.
        self._early_sites = earliness_sites
        self._earliness = earliness_sites is not None
        # Schema-certified at-most-once loops (trusted mode only): the
        # session passes these exclusively under trust_schema=True.
        self._single_match = single_match_loops or frozenset()
        # Compile-time join plan (repro.analysis.joinplan): loops it names
        # dispatch to the hash build/probe path instead of re-evaluating
        # the equi-condition per binding pair.  Indexes are cached per
        # (loop, context) and evicted via the buffer's purge listener.
        self._join_plan = join_plan
        self._join_indexes: dict[tuple[int, int], JoinIndex] = {}
        self._join_listener_installed = False
        # Push-based engines (the flux-like baseline) cannot short-circuit
        # within a binding: by the time they may emit, the binding's subtree
        # has streamed through their buffers.  Model this by reading leaf
        # for-loop bindings (loops without nested loops) to their closing
        # tag before evaluating the body.
        self._eager_loops: set[int] = set()
        if eager_leaf_bindings:
            from repro.xquery.ast import walk

            for node in walk(query.root):
                if isinstance(node, ForLoop) and not any(
                    isinstance(sub, ForLoop)
                    for sub in walk(node.body)
                ):
                    self._eager_loops.add(id(node))

    # ------------------------------------------------------------------

    def iter_tokens(self) -> Iterator[Token]:
        """Lazily evaluate the query, yielding output tokens as decided.

        Input is consumed on demand between yields, so the consumer
        controls the pace of the whole Figure 11 pipeline: not pulling the
        next token means not reading more input.
        """
        env: Env = {ROOT_VAR: self.buffer.document}
        yield from self._eval(self.query.root, env)

    # ------------------------------------------------------------------
    # expression dispatch
    # ------------------------------------------------------------------

    def _eval(self, expr: Expr, env: Env) -> Iterator[Token]:
        if isinstance(expr, Empty):
            return
        if isinstance(expr, Sequence):
            for item in expr.items:
                yield from self._eval(item, env)
            return
        if isinstance(expr, Element):
            yield StartTag(expr.tag)
            yield from self._eval(expr.body, env)
            yield EndTag(expr.tag)
            return
        if isinstance(expr, OpenTag):
            yield StartTag(expr.tag)
            return
        if isinstance(expr, CloseTag):
            yield EndTag(expr.tag)
            return
        if isinstance(expr, TextLiteral):
            yield Text(expr.content)
            return
        if isinstance(expr, VarRef):
            if self._early_sites is not None and (expr.var, ()) in self._early_sites:
                yield from self._output_streaming(env[expr.var])
            else:
                yield from self._output_subtree(env[expr.var])
            return
        if isinstance(expr, PathOutput):
            early = (
                self._early_sites is not None
                and (expr.var, expr.path) in self._early_sites
            )
            for node in self._iter_path(env[expr.var], expr.path):
                if early:
                    yield from self._output_streaming(node)
                else:
                    yield from self._output_subtree(node)
            return
        if isinstance(expr, ForLoop):
            context = env[expr.source]
            step = expr.path[0] if len(expr.path) == 1 else None
            if step is None:
                raise EvaluationError("for-loops must be single-step at runtime")
            eager = id(expr) in self._eager_loops
            if (
                self._join_plan is not None
                and not eager
                and expr.var not in self._single_match
            ):
                site = self._join_plan.site_for(expr)
                if site is not None:
                    yield from self._eval_hash_join(expr, site, env)
                    return
            nodes = self._iter_step(context, step)
            if expr.var in self._single_match:
                # at-most-once watermark (docs/EARLINESS.md): the schema
                # proves a second match cannot occur, so do not drain the
                # binding scanning for one.
                nodes = itertools.islice(nodes, 1)
            for node in nodes:
                if eager:
                    self._ensure_finished(node)
                env[expr.var] = node
                yield from self._eval(expr.body, env)
            env.pop(expr.var, None)
            return
        if isinstance(expr, IfThenElse):
            if self._eval_condition(expr.cond, env):
                yield from self._eval(expr.then_branch, env)
            else:
                yield from self._eval(expr.else_branch, env)
            return
        if isinstance(expr, Aggregate):
            yield from self._eval_aggregate(expr, env)
            return
        if isinstance(expr, SignOff):
            if self.execute_signoffs:
                self._execute_signoff(env[expr.var], expr.path, expr.role)
            return
        raise EvaluationError(f"cannot evaluate {expr!r}")

    # ------------------------------------------------------------------
    # relational operators (repro.engine.relops)
    # ------------------------------------------------------------------

    def _eval_aggregate(self, expr: Aggregate, env: Env) -> Iterator[Token]:
        """Emit the aggregate's value for the current binding.

        Accumulable paths read the O(1) state the projection lane's
        :class:`~repro.engine.relops.aggregates.AccumulatorRuntime`
        maintained on the anchor node — nothing below the anchor was
        buffered for it.  Positional paths (``[1]``/``[last()]``) navigate
        their buffered dependency subtree instead.
        """
        anchor = env[expr.var]
        self._ensure_finished(anchor)
        if accumulable(expr.path):
            state = anchor.acc.get((expr.var, expr.path)) if anchor.acc else None
            if state is None:
                raise EvaluationError(
                    f"no accumulator state for {expr.func}() on {expr.var}: "
                    "the run was built without an AccumulatorRuntime"
                )
            count, total, numeric_n = state
        else:
            count, total, numeric_n = 0, 0.0, 0
            for node in self._iter_path(anchor, expr.path):
                count += 1
                if expr.func != "count":
                    self._ensure_finished(node)
                    try:
                        value = float(node.string_value())
                    except ValueError:
                        continue
                    total += value
                    numeric_n += 1
        if expr.func == "count":
            yield Text(str(count))
        elif expr.func == "sum":
            yield Text(format_number(total))
        elif numeric_n:  # avg of an empty/non-numeric sequence emits nothing
            yield Text(format_number(total / numeric_n))

    def _eval_hash_join(self, expr: ForLoop, site, env: Env) -> Iterator[Token]:
        """Probe the loop's equi-join index instead of nested re-testing.

        Byte-identical to the nested loop: probe results come back in
        document order, the gate condition is true for exactly the
        returned bindings (``canon_key`` mirrors ``=``), and the gated
        body — which produces nothing for non-matching bindings — is
        evaluated per match with its own condition checks intact.
        """
        context = env[expr.source]
        index = self._join_index(expr, site, context)
        stats = self.buffer.stats
        keys = set()
        for node in self._iter_path(env[site.outer_var], site.outer_path):
            self._ensure_finished(node)
            keys.add(canon_key(node.string_value()))
        stats.join_probes += 1
        matches = index.probe(keys) if keys else []
        stats.join_probe_hits += len(matches)
        for node in matches:
            env[expr.var] = node
            yield from self._eval(site.body, env)
        env.pop(expr.var, None)

    def _join_index(self, expr: ForLoop, site, context: BufferNode) -> JoinIndex:
        cache_key = (id(expr), context.seq)
        index = self._join_indexes.get(cache_key)
        if index is not None:
            return index
        # Build over the finished context: every binding the nested loop
        # would ever see is buffered (or already purged/marked — which the
        # nested loop would skip too).
        self._ensure_finished(context)
        index = JoinIndex()
        stats = self.buffer.stats
        for node in self._iter_step(context, expr.path[0], buffered=True):
            keys = set()
            for target in self._iter_path(node, site.inner_path):
                keys.add(canon_key(target.string_value()))
            if not keys:
                # No key values: the equi-condition is false for every
                # probe, exactly as the nested loop would decide.
                continue
            stats.join_keys += index.add(node, keys)
        stats.join_indexes_built += 1
        self._join_indexes[cache_key] = index
        if not self._join_listener_installed:
            self.buffer.add_purge_listener(self._on_join_purge)
            self._join_listener_installed = True
        return index

    def _on_join_purge(self, node: BufferNode) -> None:
        for index in self._join_indexes.values():
            index.evict(node.seq)

    # ------------------------------------------------------------------
    # conditions
    # ------------------------------------------------------------------

    def _eval_condition(self, cond: Condition, env: Env) -> bool:
        if isinstance(cond, TrueCond):
            return True
        if isinstance(cond, Exists):
            for _node in self._iter_path(env[cond.var], cond.path):
                return True
            return False
        if isinstance(cond, Comparison):
            return self._eval_comparison(cond, env)
        if isinstance(cond, And):
            return self._eval_condition(cond.left, env) and self._eval_condition(
                cond.right, env
            )
        if isinstance(cond, Or):
            return self._eval_condition(cond.left, env) or self._eval_condition(
                cond.right, env
            )
        if isinstance(cond, Not):
            return not self._eval_condition(cond.operand, env)
        if isinstance(cond, Quantified):
            some = cond.quantifier == "some"
            for witness in self._iter_path(env[cond.source], cond.path):
                env[cond.var] = witness
                try:
                    holds = self._eval_condition(cond.inner, env)
                finally:
                    env.pop(cond.var, None)
                if some:
                    if holds:
                        return True
                elif not holds:
                    return False
            return not some  # some over nothing: False; every: vacuously True
        raise EvaluationError(f"cannot evaluate condition {cond!r}")

    def _eval_comparison(self, cond: Comparison, env: Env) -> bool:
        """General comparison: existential over both operand sequences."""
        if self._earliness:
            return self._eval_comparison_early(cond, env)
        left_values = list(self._operand_values(cond.left, env))
        if not left_values:
            return False
        for right_value in self._operand_values(cond.right, env):
            for left_value in left_values:
                if _compare(left_value, cond.op, right_value):
                    return True
        return False

    def _eval_comparison_early(self, cond: Comparison, env: Env) -> bool:
        """First-witness comparison (the earliness pass's second watermark).

        A comparison is existential, so it is *decided true* at the first
        witnessing pair: no future token can flip it.  Iterating the
        operands lazily and returning at that witness means a satisfied
        condition stops pulling input immediately — the conservative
        version above materializes the left operand, which drags the scan
        to the end of the binding's subtree (every step cursor runs until
        its context is finished).  A false result still
        drains both operands, exactly like the conservative path, so the
        boolean — and therefore the output — is identical either way.  An
        empty left operand is decided false before the right one is read,
        as on the conservative path.
        """
        left_iter = self._operand_values(cond.left, env)
        first = next(left_iter, None)
        if first is None:
            return False
        left_values = [first]
        for right_value in self._operand_values(cond.right, env):
            for left_value in left_values:
                if _compare(left_value, cond.op, right_value):
                    return True
            for left_value in left_iter:
                left_values.append(left_value)
                if _compare(left_value, cond.op, right_value):
                    return True
        return False

    def _operand_values(self, operand, env: Env) -> Iterator[str]:
        if isinstance(operand, LiteralOperand):
            yield operand.value
            return
        assert isinstance(operand, PathOperand)
        for node in self._iter_path(env[operand.var], operand.path):
            self._ensure_finished(node)
            yield node.string_value()

    # ------------------------------------------------------------------
    # path iteration with demand-driven input
    # ------------------------------------------------------------------

    def _iter_path(self, context: BufferNode, path: Path) -> Iterator[BufferNode]:
        """All nodes reachable from ``context`` via ``path``, document order
        per step (descendant steps in multi-step paths may revisit nodes,
        which is harmless for the existential conditions that use them)."""
        if not path:
            yield context
            return
        step, rest = path[0], path[1:]
        if step.last:
            # [last()]: drain the step (the scan pulls input until the
            # context is finished), then continue from the final match.
            final: BufferNode | None = None
            for node in self._iter_step(context, step):
                final = node
            if final is not None:
                yield from self._iter_path(final, rest)
            return
        if step.first:
            # [1]: the witness is the first match in *document* order, not
            # the first still-buffered one — navigate through the record
            # the projection lane pinned at the witness's arrival.
            witness = self._first_witness(context, step)
            if witness is not None:
                yield from self._iter_path(witness, rest)
            return
        for node in self._iter_step(context, step):
            yield from self._iter_path(node, rest)

    def _first_witness(
        self, context: BufferNode, step: Step
    ) -> BufferNode | None:
        """The [1] witness of ``step`` below ``context``, pulling on demand.

        The projection lane records the witness at the arrival that
        consumed the step's first-witness transition, so a missing record
        means no match has streamed yet: keep pulling until it appears or
        the context finishes without one.  A recorded witness that was
        dropped or garbage-collected yields nothing — rebinding the [1] to
        the first still-buffered match would step into a later sibling's
        subtree and read another binding's data.
        """
        while True:
            witness = self._buffered_witness(context, step)
            if witness is not None:
                return witness
            table = context.witnesses
            if table is not None and step in table:
                return None  # witness recorded but dropped or collected
            if context.finished:
                return None
            if not self._pull():
                return None

    def _buffered_witness(
        self, context: BufferNode, step: Step
    ) -> BufferNode | None:
        """The recorded [1] witness, if it is still live in the buffer."""
        table = context.witnesses
        rec = table.get(step) if table is not None else None
        if rec is None:
            return None
        node, seq = rec
        if (
            node is None
            or node.seq != seq  # recycled: the witness was purged
            or node.parent is None
            or node.marked_deleted
        ):
            return None
        return node

    def _iter_step(
        self, context: BufferNode, step: Step, *, buffered: bool = False
    ) -> Iterator[BufferNode]:
        """``step``'s matches from ``context`` in document order, pulling
        until the context is finished unless ``buffered`` (signOff, join
        builds: what is buffered now)."""
        entry = self._keeps.get(id(step))
        if entry is None:
            depth = 1 if step.axis is Axis.CHILD else None
            entry = self._keeps[id(step)] = (step, _matcher(step, self.buffer), depth)
        _, keep, depth = entry
        nodes = context.descendants(
            None if buffered else self._pull, keep, depth, skip_marked=True
        )
        if step.axis is Axis.DOS and keep(context):
            return itertools.chain((context,), nodes)
        return nodes

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------

    def _output_subtree(self, node: BufferNode) -> Iterator[Token]:
        self._ensure_finished(node)
        yield from self._serialize(node)

    def _serialize(self, node: BufferNode) -> Iterator[Token]:
        """Emit ``node``'s subtree in document order.

        A finished subtree is emitted as it stands — a copied one as its
        one :class:`~repro.xmlio.tokens.Span` — and an unfinished one (an
        ``open`` site, see :meth:`_output_streaming`) in arrival order,
        pulling input whenever the walk reaches the end of what has
        arrived so far.  Iterative: ``current`` is the open element being
        emitted, ``last`` its most recently visited child (None: none yet)
        and ``stack`` the (ancestor, child descended into) pairs above it,
        so an arbitrarily deep subtree costs one generator frame.
        """
        stats = self.buffer.stats
        stats.tokens_held_before_emit += stats.tokens_read - node.born_tokens
        if node.kind == TEXT:
            yield Text(node.text)
            return
        if node.kind == DOC:
            raise EvaluationError("cannot output the document node")
        if node.span is not None:
            # A copy site's subtree, buffered whole as the scanner copied
            # it.  Rows (and so COPY entries) are only consulted below
            # elements no aggregate role covers, so a copied element is
            # never inside another output subtree: only here.
            yield node.span
            return
        # Interned per-tag tokens from the buffer's symbol table: emitting a
        # subtree allocates no tag objects (docs/PERFORMANCE.md).
        buffer = self.buffer
        start_token = buffer.start_token
        end_token = buffer.end_token
        yield start_token(node.tag_id)
        stack: list[tuple[BufferNode, BufferNode]] = []
        current = node
        last: BufferNode | None = None
        while True:
            nxt = current.first_child if last is None else last.next_sibling
            if nxt is None:
                if not current.finished:
                    if not self._pull():
                        raise EvaluationError(
                            "input exhausted with an unfinished node"
                        )
                    continue
                yield end_token(current.tag_id)
                if not stack:
                    return
                current, last = stack.pop()
                continue
            last = nxt
            if nxt.marked_deleted:
                continue
            stats.tokens_held_before_emit += stats.tokens_read - nxt.born_tokens
            if nxt.kind == TEXT:
                yield Text(nxt.text)
                continue
            yield start_token(nxt.tag_id)
            stack.append((current, nxt))
            current = nxt
            last = None

    def _output_streaming(self, node: BufferNode) -> Iterator[Token]:
        """Emit an ``open``-watermark site as its tokens arrive.

        The static certificate (an aggregate dep role on the target) is
        re-checked on the concrete buffer node: under trusted-schema
        pruning or a cancellation racing the node's arrival the cover may
        be absent, and then the conservative path is the only sound one.
        The check is purely structural — it never consults schema facts —
        so streaming stays sound on schema-violating documents.
        """
        covered = self.buffer.covered_by_aggregate
        if node.finished or node.kind != ELEMENT or not covered(node):
            yield from self._output_subtree(node)
            return
        self.buffer.stats.early_flushes += 1
        # Arrival order is the final order because the aggregate cover
        # freezes the region: every arriving descendant is preserved
        # (``_maybe_buffer`` keeps covered nodes even when cancelled),
        # ``collect_from`` skips covered nodes before marking, ``finish``
        # never purges them, children only ever append, and no signoff runs
        # while one output expression is being emitted.
        yield from self._serialize(node)

    def _ensure_finished(self, node: BufferNode) -> None:
        while not node.finished:
            if not self._pull():
                # The final pull is the one that marks the document node
                # finished, so re-check before declaring the input short.
                if node.finished:
                    return
                raise EvaluationError("input exhausted with an unfinished node")

    # ------------------------------------------------------------------
    # signOff execution (Figure 10's entry point)
    # ------------------------------------------------------------------

    def _execute_signoff(self, binding: BufferNode, path: Path, role) -> None:
        if not isinstance(role, Role):
            raise EvaluationError(
                f"signOff role {role!r} was not resolved by static analysis"
            )
        self.buffer.stats.signoffs_executed += 1
        aggregate = False
        match_path = path
        if self.aggregate and path and path[-1] == _DOS_STEP:
            match_path = path[:-1]
            aggregate = True
        for node, count in self._match_path_counts(binding, match_path).items():
            self.buffer.remove_role(node, role, count, aggregate=aggregate)
        if self.on_event is not None:
            self.on_event(f"signOff path={match_path} role={role.name}")
        # Future arrivals inside the unfinished region must not keep the role.
        if not binding.finished and match_path:
            self.buffer.register_cancellation(
                binding, match_path, role, aggregate=aggregate
            )

    def _match_path_counts(
        self, binding: BufferNode, path: Path
    ) -> dict[BufferNode, int]:
        """Nodes reachable via ``path`` with embedding counts (multiset P)."""
        positions: dict[BufferNode, int] = {binding: 1}
        for step in path:
            next_positions: dict[BufferNode, int] = {}
            for node, count in positions.items():
                if step.first:
                    # The recorded document-order witness, never the first
                    # buffered match (see _first_witness).
                    witness = self._buffered_witness(node, step)
                    targets: Iterator[BufferNode] | list[BufferNode] = (
                        [] if witness is None else [witness]
                    )
                else:
                    targets = self._iter_step(node, step, buffered=True)
                for target in targets:
                    next_positions[target] = next_positions.get(target, 0) + count
            positions = next_positions
            if not positions:
                break
        return positions


# ---------------------------------------------------------------------------


def _matcher(step: Step, buffer: BufferTree) -> Callable[[BufferNode], bool]:
    """``step``'s node test as a predicate on buffer nodes."""
    test, tag_name, text = step.test, buffer.tag_name, step.test.matches_text()

    def keep(node: BufferNode) -> bool:
        if node.kind == ELEMENT:
            return test.matches_element(tag_name(node.tag_id))
        return node.kind == TEXT and text

    return keep


def _compare(left: str, op: str, right: str) -> bool:
    """Numeric comparison when both operands parse as numbers, else string.

    The paper's grammar compares against string literals; XMark Q20's income
    brackets need numeric order, matching how untyped atomics compare in
    practice.
    """
    try:
        left_key: object = float(left)
        right_key: object = float(right)
    except ValueError:
        left_key, right_key = left, right
    if op == "=":
        return left_key == right_key
    if op == "<":
        return left_key < right_key
    if op == "<=":
        return left_key <= right_key
    if op == ">":
        return left_key > right_key
    if op == ">=":
        return left_key >= right_key
    raise EvaluationError(f"unknown operator {op!r}")
