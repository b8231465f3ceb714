"""The naive in-memory baseline: buffer everything, then evaluate.

Models the class of engines in Table 1 that load the complete document
before query evaluation — Galax (the XQuery reference implementation,
"not designed with XML stream processing in mind"), Saxon and QizX.  Their
memory high watermark is proportional to the whole document regardless of
the query, which is exactly the behaviour this engine reproduces under the
shared buffer cost model.

The evaluator here is deliberately independent from the streaming engine:
it interprets the *normalized* query (no signOffs) over a DOM built by
:func:`repro.xmlio.tree.parse_tree`.  Tests use it as the semantic oracle
for every other engine.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.analysis.compile import CompiledQuery, CompileOptions, compile_query
from repro.buffer.stats import BufferCostModel, BufferStats
from repro.engine.evaluator import _compare
from repro.engine.gcx import RunResult
from repro.xmlio.serialize import StringSink
from repro.xmlio.tokens import EndTag, StartTag, Text
from repro.xmlio.tree import DocumentNode, ElementNode, TextNode, XMLNode
from repro.xmlio.tree import parse_tree, tree_tokens
from repro.engine.relops.aggregates import format_number
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
from repro.xquery.paths import Axis, Path, Step

__all__ = ["NaiveDomEngine", "evaluate_on_tree"]


class NaiveDomEngine:
    """Parse the whole document into memory, then evaluate the query."""

    name = "naive-dom"
    description = "full in-memory DOM, no projection (Galax/Saxon/QizX class)"
    supports_descendant = True

    def __init__(self, cost_model: BufferCostModel | None = None) -> None:
        self.cost_model = cost_model or BufferCostModel()

    def compile(self, query: Query | str, *, schema=None) -> CompiledQuery:
        # Analysis is only needed for normalization; the Section 6
        # optimizations are meaningless without a managed buffer.  A schema
        # still yields the constraint report on the compiled artifact.
        return compile_query(
            query,
            CompileOptions(early_updates=False, eliminate_redundant=False),
            schema=schema,
        )

    def run(self, query: Query | str | CompiledQuery, document: str) -> RunResult:
        compiled = query if isinstance(query, CompiledQuery) else self.compile(query)
        started = time.perf_counter()
        tree = parse_tree(document)
        stats = BufferStats(model=self.cost_model)
        self._account_tree(tree, stats)
        sink = StringSink()
        evaluate_on_tree(compiled.normalized, tree, sink)
        elapsed = time.perf_counter() - started
        return RunResult(
            output=sink.getvalue(),
            stats=stats,
            compiled=compiled,
            elapsed_seconds=elapsed,
            exhausted_input=True,
        )

    def _account_tree(self, tree: DocumentNode, stats: BufferStats) -> None:
        for node in tree.iter_subtree():
            if isinstance(node, DocumentNode):
                continue
            if isinstance(node, TextNode):
                stats.on_create(stats.model.text_cost(node.content))
            else:
                stats.on_create(stats.model.element_cost())


# ---------------------------------------------------------------------------
# The DOM evaluator (semantic oracle)
# ---------------------------------------------------------------------------


def evaluate_on_tree(query: Query, tree: DocumentNode, sink) -> None:
    """Evaluate a normalized XQ query over a DOM, writing output tokens."""
    _Interp(tree, sink).eval(query.root, {ROOT_VAR: tree})


class _Interp:
    def __init__(self, tree: DocumentNode, sink) -> None:
        self.tree = tree
        self.sink = sink

    def eval(self, expr: Expr, env: dict[str, XMLNode]) -> None:
        if isinstance(expr, Empty) or isinstance(expr, SignOff):
            return
        if isinstance(expr, Sequence):
            for item in expr.items:
                self.eval(item, env)
        elif isinstance(expr, Element):
            self.sink.write(StartTag(expr.tag))
            self.eval(expr.body, env)
            self.sink.write(EndTag(expr.tag))
        elif isinstance(expr, OpenTag):
            self.sink.write(StartTag(expr.tag))
        elif isinstance(expr, CloseTag):
            self.sink.write(EndTag(expr.tag))
        elif isinstance(expr, TextLiteral):
            self.sink.write(Text(expr.content))
        elif isinstance(expr, VarRef):
            self._output(env[expr.var])
        elif isinstance(expr, PathOutput):
            for node in iter_path(env[expr.var], expr.path):
                self._output(node)
        elif isinstance(expr, ForLoop):
            for node in iter_path(env[expr.source], expr.path):
                env[expr.var] = node
                self.eval(expr.body, env)
            env.pop(expr.var, None)
        elif isinstance(expr, IfThenElse):
            branch = expr.then_branch if self.cond(expr.cond, env) else expr.else_branch
            self.eval(branch, env)
        elif isinstance(expr, Aggregate):
            self._aggregate(expr, env)
        else:
            raise TypeError(f"cannot evaluate {expr!r}")

    def _aggregate(self, expr: Aggregate, env: dict[str, XMLNode]) -> None:
        count = 0
        total = 0.0
        numeric_n = 0
        for node in iter_path(env[expr.var], expr.path):
            count += 1
            if expr.func in ("sum", "avg"):
                try:
                    value = float(node.string_value())
                except ValueError:
                    continue
                total += value
                numeric_n += 1
        if expr.func == "count":
            self.sink.write(Text(str(count)))
        elif expr.func == "sum":
            self.sink.write(Text(format_number(total)))
        elif numeric_n:  # avg of an empty/non-numeric sequence is no output
            self.sink.write(Text(format_number(total / numeric_n)))

    def cond(self, cond: Condition, env: dict[str, XMLNode]) -> bool:
        if isinstance(cond, TrueCond):
            return True
        if isinstance(cond, Exists):
            return any(True for _ in iter_path(env[cond.var], cond.path))
        if isinstance(cond, Quantified):
            some = cond.quantifier == "some"
            for witness in iter_path(env[cond.source], cond.path):
                env[cond.var] = witness
                try:
                    holds = self.cond(cond.inner, env)
                finally:
                    env.pop(cond.var, None)
                if some:
                    if holds:
                        return True
                elif not holds:
                    return False
            return not some
        if isinstance(cond, Comparison):
            left = list(self._values(cond.left, env))
            if not left:
                return False
            for right_value in self._values(cond.right, env):
                if any(_compare(lv, cond.op, right_value) for lv in left):
                    return True
            return False
        if isinstance(cond, And):
            return self.cond(cond.left, env) and self.cond(cond.right, env)
        if isinstance(cond, Or):
            return self.cond(cond.left, env) or self.cond(cond.right, env)
        if isinstance(cond, Not):
            return not self.cond(cond.operand, env)
        raise TypeError(f"cannot evaluate condition {cond!r}")

    def _values(self, operand, env) -> Iterator[str]:
        if isinstance(operand, LiteralOperand):
            yield operand.value
            return
        assert isinstance(operand, PathOperand)
        for node in iter_path(env[operand.var], operand.path):
            yield node.string_value()

    def _output(self, node: XMLNode) -> None:
        if isinstance(node, DocumentNode):
            raise TypeError("cannot output the document node")
        write = self.sink.write
        for token in tree_tokens(node):
            write(token)


def iter_path(context: XMLNode, path: Path) -> Iterator[XMLNode]:
    """All nodes reachable via ``path`` (single-step doc order per level)."""
    if not path:
        yield context
        return
    step, rest = path[0], path[1:]
    if step.last:
        final: XMLNode | None = None
        for node in iter_step(context, step):
            final = node
        if final is not None:
            yield from iter_path(final, rest)
        return
    for node in iter_step(context, step):
        yield from iter_path(node, rest)
        if step.first:
            return


def iter_step(context: XMLNode, step: Step) -> Iterator[XMLNode]:
    if step.axis is Axis.CHILD:
        candidates: Iterator[XMLNode] = iter(context.children)
    elif step.axis is Axis.DESCENDANT:
        candidates = context.descendants()
    else:  # DOS
        candidates = context.iter_subtree()
    for node in candidates:
        if step_matches(node, step):
            yield node


def step_matches(node: XMLNode, step: Step) -> bool:
    if isinstance(node, TextNode):
        return step.test.matches_text()
    if isinstance(node, ElementNode):
        return step.test.matches_element(node.tag)
    return False
