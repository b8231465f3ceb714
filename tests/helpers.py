"""Shared test utilities: the paper's queries, a query corpus, comparators."""

from __future__ import annotations

from repro.baselines import ENGINES, UnsupportedQueryError

# ---------------------------------------------------------------------------
# Queries from the paper
# ---------------------------------------------------------------------------

INTRO_QUERY = """
<r> {
for $bib in /bib return
((for $x in $bib/* return
if (not(exists $x/price)) then $x else ()),
for $b in $bib/book return $b/title)
} </r>
"""

EXAMPLE4_QUERY = """
<q> {for $a in //a
return
<a>
{for $b in $a//b
return <b/>}
</a>}
</q>
"""

FIGURE9_QUERY = """
<q>
{for $a in //a
return
<a>
{for $b in //b
return <b/>}
</a>
} </q>
"""

FIGURE4_DOC = "<a><a><b/></a><b/></a>"  # the tree of Figure 4(a)

INTRO_DOC = (
    "<bib>"
    "<book><title/><author/></book>"
    "<book><price>49</price><title>Data on the Web</title></book>"
    "<cd><price>17</price><title>CD title</title></cd>"
    "<journal><title>J1</title></journal>"
    "</bib>"
)

# ---------------------------------------------------------------------------
# A corpus of (name, query, document) cases covering the fragment
# ---------------------------------------------------------------------------

CORPUS: list[tuple[str, str, str]] = [
    ("intro", INTRO_QUERY, INTRO_DOC),
    ("example4", EXAMPLE4_QUERY, FIGURE4_DOC),
    ("figure9", FIGURE9_QUERY, FIGURE4_DOC),
    (
        "flat-output",
        "<out>{for $b in /bib/book return $b/title}</out>",
        "<bib><book><title>T1</title></book><book><title>T2</title></book></bib>",
    ),
    (
        "bare-var-output",
        "<out>{for $b in /bib/book return $b}</out>",
        "<bib><book><title>T1</title>text</book><book/></bib>",
    ),
    (
        "wildcard",
        "<out>{for $x in /r/* return <item>{$x/name}</item>}</out>",
        "<r><a><name>n1</name></a><b><name>n2</name><junk/></b><c/></r>",
    ),
    (
        "descendant",
        "<out>{for $x in //b return $x}</out>",
        "<r><a><b>1</b><c><b>2</b></c></a><b>3</b></r>",
    ),
    (
        "nested-descendant",
        "<out>{for $a in //a return for $b in $a//b return <hit/>}</out>",
        "<r><a><a><b/></a><b/></a><b/></r>",
    ),
    (
        "exists-positive",
        "<out>{for $x in /r/item return if (exists $x/price) then <has/> else <no/>}</out>",
        "<r><item><price>1</price></item><item/><item><x/><price>2</price></item></r>",
    ),
    (
        "exists-multistep",
        "<out>{for $x in /r/item return if (exists $x/a/b) then <hit/> else ()}</out>",
        "<r><item><a/></item><item><a><b/></a></item><item><a/><a><b/></a></item></r>",
    ),
    (
        "compare-literal",
        '<out>{for $p in /ps/p return if ($p/id = "p1") then $p/name else ()}</out>',
        "<ps><p><id>p0</id><name>zero</name></p><p><id>p1</id><name>one</name></p></ps>",
    ),
    (
        "compare-numeric",
        '<out>{for $p in /ps/p return if ($p/v >= "10") then <big/> else <small/>}</out>',
        "<ps><p><v>9.5</v></p><p><v>10</v></p><p><v>100</v></p></ps>",
    ),
    (
        "compare-path-path",
        "<out>{for $a in /r/a return for $b in /r/b return "
        "if ($a/k = $b/k) then <match/> else ()}</out>",
        "<r><a><k>1</k></a><a><k>2</k></a><b><k>2</k></b><b><k>3</k></b></r>",
    ),
    (
        "join-q8-style",
        "<out>{for $p in /site/people/person return <row>{($p/name/text(), "
        "for $t in /site/sales/sale return "
        "if ($t/buyer = $p/id) then <s/> else ())}</row>}</out>",
        "<site><people>"
        "<person><id>p0</id><name>ann</name></person>"
        "<person><id>p1</id><name>bob</name></person></people>"
        "<sales><sale><buyer>p1</buyer></sale><sale><buyer>p0</buyer></sale>"
        "<sale><buyer>p1</buyer></sale></sales></site>",
    ),
    (
        "boolean-logic",
        "<out>{for $x in /r/i return "
        "if ((exists $x/a and exists $x/b) or not(exists $x/c)) "
        "then <t/> else <f/>}</out>",
        "<r><i><a/><b/></i><i><c/></i><i><a/><c/></i><i/></r>",
    ),
    (
        "if-else-both-sides",
        "<out>{for $x in /r/i return if (exists $x/a) then <has>{$x/a}</has> else <none/>}</out>",
        "<r><i><a>x</a></i><i/><i><a/></i></r>",
    ),
    (
        "text-output",
        "<out>{for $p in /ps/p return $p/name/text()}</out>",
        "<ps><p><name>alpha</name></p><p><name>beta</name></p></ps>",
    ),
    (
        "where-clause",
        '<out>{for $p in /ps/p where $p/id = "x" return $p/name}</out>',
        "<ps><p><id>x</id><name>n1</name></p><p><id>y</id><name>n2</name></p></ps>",
    ),
    (
        "let-binding",
        "<out>{for $p in /ps/p return let $n := $p/name return <row>{$n}</row>}</out>",
        "<ps><p><name>n1</name></p><p><name>n2</name><name>n3</name></p></ps>",
    ),
    (
        "multistep-for",
        "<out>{for $t in /site/people/person/name return $t}</out>",
        "<site><people><person><name>a</name></person>"
        "<person><name>b</name></person></people><junk/></site>",
    ),
    (
        "empty-result",
        "<out>{for $z in /r/zzz return $z}</out>",
        "<r><a/><b>text</b></r>",
    ),
    (
        "deep-nesting",
        "<out>{for $a in /r/a return for $b in $a/b return for $c in $b/c return $c/d}</out>",
        "<r><a><b><c><d>1</d></c><c/></b></a><a><b/></a></r>",
    ),
    (
        "true-cond",
        "<out>{for $x in /r/a return if (true()) then <t/> else <f/>}</out>",
        "<r><a/><a/></r>",
    ),
    (
        "mixed-content-literal",
        "<out>{for $x in /r/a return <w>label</w>}</out>",
        "<r><a/><a/></r>",
    ),
    (
        "sibling-revisit",
        # The same nodes bound by two sequential loops (Fig. 9 pattern, but
        # with a relative absolute mix): bs are needed after the a-loop.
        "<out>{(for $a in /r/a return <a/>, for $b in /r/b return $b)}</out>",
        "<r><a/><b>1</b><a/><b>2</b></r>",
    ),
    (
        "empty-doc-root-only",
        "<out>{for $x in /r/a return $x}</out>",
        "<r/>",
    ),
]


def deep_items(d: int) -> str:
    """``<site><regions><africa>`` over ``d`` nested ``<item><name>a</name>``
    levels, closed in reverse: a document ``2 * d + 3`` elements deep."""
    return (
        "<site><regions><africa>"
        + "<item><name>a</name>" * d
        + "</item>" * d
        + "</africa></regions></site>"
    )


# ---------------------------------------------------------------------------
# Comparators
# ---------------------------------------------------------------------------


def run_all_engines(query: str, document: str) -> dict[str, str]:
    """Outputs of every engine that supports the query."""
    outputs: dict[str, str] = {}
    for name, factory in ENGINES.items():
        try:
            outputs[name] = factory().run(query, document).output
        except UnsupportedQueryError:
            continue
    return outputs


def assert_engines_agree(query: str, document: str) -> str:
    outputs = run_all_engines(query, document)
    assert outputs, "no engine supported the query"
    distinct = set(outputs.values())
    assert len(distinct) == 1, f"engines disagree: {outputs}"
    return distinct.pop()
