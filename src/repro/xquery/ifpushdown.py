"""If-pushdown rewriting (Figure 7): rules DECOMP, SEQ, NC, FOR.

The static analysis inserts signOff statements at the end of for-loop bodies
(Section 4).  Because role assignment happens during projection, before
conditions can be decided, no signOff may end up inside an if-expression.
Pushing all if-expressions down into for-loops guarantees this:

* DECOMP splits ``if X then a else b`` into two one-sided ifs,
* SEQ distributes an if over a sequence,
* NC decomposes a node constructor under an if into bare open/close tag
  emissions guarded by the same condition (the grammar's third production),
* FOR pushes an if inside a for-loop body.

DECOMP is applied once to every if-expression; the remaining rules are
applied in arbitrary order until a fixpoint is reached.
"""

from __future__ import annotations

from repro.xquery.ast import (
    CloseTag,
    Element,
    Empty,
    Expr,
    ForLoop,
    IfThenElse,
    Not,
    OpenTag,
    Query,
    Sequence,
    sequence_of,
)
from repro.xquery.normalize import map_expr

__all__ = ["push_ifs_down", "decompose_ifs"]


def decompose_ifs(expr: Expr) -> Expr:
    """Apply rule DECOMP to every if-then-else with a non-empty else branch.

    ``if X then a else b`` becomes
    ``(if X then a else (), if (not X) then b else ())``.
    """

    def transform(node: Expr) -> Expr:
        if isinstance(node, IfThenElse) and not isinstance(node.else_branch, Empty):
            positive = IfThenElse(node.cond, node.then_branch, Empty())
            negative = IfThenElse(Not(node.cond), node.else_branch, Empty())
            return sequence_of([positive, negative])
        return node

    return map_expr(expr, transform)


def push_ifs_down(expr: Expr) -> Expr:
    """Rewrite with DECOMP once, then SEQ/NC/FOR to a fixpoint."""
    expr = decompose_ifs(expr)

    def transform(node: Expr) -> Expr:
        if not isinstance(node, IfThenElse) or not isinstance(node.else_branch, Empty):
            return node
        cond, body = node.cond, node.then_branch
        if isinstance(body, Sequence):  # rule SEQ
            return sequence_of(
                [_push(IfThenElse(cond, item, Empty())) for item in body.items]
            )
        if isinstance(body, Element):  # rule NC
            return sequence_of(
                [
                    IfThenElse(cond, OpenTag(body.tag), Empty()),
                    _push(IfThenElse(cond, body.body, Empty())),
                    IfThenElse(cond, CloseTag(body.tag), Empty()),
                ]
            )
        if isinstance(body, ForLoop):  # rule FOR
            inner = _push(IfThenElse(cond, body.body, Empty()))
            return ForLoop(body.var, body.source, body.path, inner, body.where)
        if isinstance(body, Empty):
            return Empty()
        return node

    def _push(node: Expr) -> Expr:
        return map_expr(node, transform)

    return _push(expr)


def push_ifs_down_query(query: Query) -> Query:
    """Apply :func:`push_ifs_down` to a whole query."""
    root = push_ifs_down(query.root)
    if not isinstance(root, Element):
        raise TypeError("if-pushdown must preserve the root constructor")
    return Query(root)
