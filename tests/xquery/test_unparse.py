"""Unparser tests: rendering and parse-unparse-parse stability."""

import pytest

from repro.xmark import XMARK_QUERIES
from repro.xquery import parse_expr, parse_query, unparse
from repro.xquery.unparse import unparse_condition

ROUNDTRIP_CASES = [
    "()",
    "$x",
    "$x/title",
    "$x//b",
    "<a/>",
    "<a>{$x}</a>",
    "($a, $b, $c)",
    "for $x in $y/a return $x",
    "for $x in $root/bib return for $y in $x/* return $y",
    "if (exists($x/price)) then $x else ()",
    'if ($x/id = "p0") then $x/name else ()',
    "if (not(exists($x/a))) then <t/> else <f/>",
    "if ((exists($x/a) and exists($x/b)) or true()) then $x else ()",
    "signOff($x, r3)",
    "signOff($x/price[1], r4)",
    "signOff($x/dos::node(), r5)",
    "signOff($b/title/dos::node(), r7)",
    "if ($a/k <= $b/k) then <m/> else ()",
]


class TestRoundtrip:
    @pytest.mark.parametrize("text", ROUNDTRIP_CASES)
    def test_parse_unparse_parse_is_identity(self, text):
        first = parse_expr(text)
        rendered = unparse(first)
        second = parse_expr(rendered)
        assert first == second, f"{text!r} -> {rendered!r}"

    @pytest.mark.parametrize("name", sorted(XMARK_QUERIES))
    def test_xmark_query_roundtrip(self, name):
        query = parse_query(XMARK_QUERIES[name].adapted)
        assert parse_query(unparse(query)) == query

    def test_query_roundtrip(self):
        query = parse_query("<r>{for $b in /bib return $b/title}</r>")
        assert parse_query(unparse(query)) == query


class TestRendering:
    def test_flat_for(self):
        expr = parse_expr("for $x in $y/a return $x")
        assert unparse(expr) == "for $x in $y/a return $x"

    def test_descendant_rendering(self):
        assert unparse(parse_expr("$x//b")) == "$x/descendant::b"

    def test_condition_rendering(self):
        cond = parse_expr("if (not(exists $x/a)) then () else ()").cond
        assert unparse_condition(cond) == "not(exists($x/a))"

    def test_pretty_print_contains_structure(self):
        query = parse_query(
            "<r>{for $b in /bib return if (exists $b/a) then $b else ()}</r>"
        )
        pretty = unparse(query, indent=2)
        assert "for $b in $root/bib return" in pretty
        assert pretty.count("\n") >= 2

    def test_string_operand_quoting(self):
        expr = parse_expr('if ($x/id = "p0") then $x else ()')
        assert '"p0"' in unparse(expr)
