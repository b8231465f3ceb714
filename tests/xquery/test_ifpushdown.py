"""Tests for the if-pushdown rules of Figure 7."""

from repro.xquery import (
    CloseTag,
    Empty,
    ForLoop,
    IfThenElse,
    Not,
    OpenTag,
    Sequence,
    parse_expr,
    push_ifs_down,
)
from repro.xquery.ast import walk
from repro.xquery.ifpushdown import decompose_ifs


def no_loop_or_constructor_under_if(expr) -> bool:
    """After pushdown, no if contains a for-loop, sequence or constructor."""
    from repro.xquery.ast import Element

    for node in walk(expr):
        if isinstance(node, IfThenElse):
            for sub in walk(node.then_branch):
                if isinstance(sub, (ForLoop, Element, Sequence)):
                    return False
            if not isinstance(node.else_branch, Empty):
                return False
    return True


class TestDecomp:
    def test_two_sided_if_splits(self):
        expr = parse_expr("if (exists $x/a) then $x else $y")
        result = decompose_ifs(expr)
        assert isinstance(result, Sequence)
        positive, negative = result.items
        assert isinstance(positive.else_branch, Empty)
        assert isinstance(negative.cond, Not)
        assert negative.cond.operand == positive.cond

    def test_one_sided_if_untouched(self):
        expr = parse_expr("if (exists $x/a) then $x else ()")
        assert decompose_ifs(expr) == expr


class TestSeq:
    def test_if_distributes_over_sequence(self):
        expr = parse_expr("if (exists $x/a) then ($y, $z) else ()")
        result = push_ifs_down(expr)
        assert isinstance(result, Sequence)
        assert all(isinstance(item, IfThenElse) for item in result.items)
        assert [item.then_branch for item in result.items] == [
            parse_expr("$y"),
            parse_expr("$z"),
        ]


class TestNC:
    def test_constructor_decomposes_into_tags(self):
        expr = parse_expr("if (exists $x/a) then <w>{$y}</w> else ()")
        result = push_ifs_down(expr)
        assert isinstance(result, Sequence)
        first, middle, last = result.items
        assert first.then_branch == OpenTag("w")
        assert middle.then_branch == parse_expr("$y")
        assert last.then_branch == CloseTag("w")
        # All three share the same condition (the grammar's requirement).
        assert first.cond == middle.cond == last.cond


class TestFor:
    def test_if_moves_inside_loop(self):
        expr = parse_expr("if (exists $x/a) then for $y in $x/b return $y else ()")
        result = push_ifs_down(expr)
        assert isinstance(result, ForLoop)
        assert isinstance(result.body, IfThenElse)
        assert result.body.then_branch == parse_expr("$y")


class TestFixpoint:
    def test_deep_combination(self):
        expr = parse_expr(
            "if (exists $x/a) then "
            "<w>{(for $y in $x/b return <i>{$y}</i>, $x/c)}</w> else $x/d"
        )
        result = push_ifs_down(expr)
        assert no_loop_or_constructor_under_if(result)

    def test_idempotent(self):
        expr = parse_expr(
            "if (exists $x/a) then (for $y in $x/b return $y, <k/>) else ()"
        )
        once = push_ifs_down(expr)
        assert push_ifs_down(once) == once

    def test_empty_then_collapses(self):
        expr = parse_expr("if (exists $x/a) then () else ()")
        assert push_ifs_down(expr) == Empty()
