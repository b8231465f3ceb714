"""The COPY row on the buffered engine: a copy site's subtree as one ``Span``.

A *copy site* is an output ``{$x}``/``{$x/p}`` whose subtree nothing else
reads (:func:`repro.analysis.dependencies.copy_site_roles`).  Where the
run's matcher can prove nothing else matches below such an element, its
scan row says COPY: the scanner delivers the subtree as one
:class:`~repro.xmlio.tokens.Span`, the projection lane buffers it as the
element's content and the evaluator emits it whole — or, when the scanner
cannot copy it (a nested element or attribute named like it, malformed or
non-UTF-8 input, a subtree larger than one batch), the element arrives
LIVE from the same row.  Either way every route must give the unguided
run's output — and its error, after the same output — read the same
number of tokens, and leave the strict-mode safety checks satisfied.
"""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import FluxLikeEngine, NaiveDomEngine
from repro.buffer.stats import BufferStats
from repro.engine import EngineOptions, GCXEngine, MultiQuerySession, QuerySession
from repro.xmark.queries import XMARK_QUERIES
from repro.xmlio import text_decode_count
from repro.xmlio.filelexer import FileTokenizer
from repro.xmlio.lexer import BATCH_BYTES, XMLSyntaxError, tokenize
from repro.xmlio.tokens import Skipped, Span

from tests.engine.test_direct import outcome
from tests.xmlio.test_copy_scan import damaged
from tests.xmlio.test_copy_scan import documents as copy_documents

GOLDENS = Path(__file__).parent / "goldens"

#: Copy-site queries over the generated documents' ``<r>``/``<a>``/``<b>``.
QUERIES = {
    "descendant": "<o>{for $x in //a return $x}</o>",
    "child": "<o>{for $x in /r/a return $x}</o>",
    "mixed": "<o>{for $x in /r//a return $x}</o>",
    "through-c": "<o>{for $x in /r/c/a return $x}</o>",
    "path": "<o>{for $x in /r/a return $x/b}</o>",
}

#: One ``<a>`` subtree bigger than a scan batch: it cannot be copied.
BIG = b"<a>" + b"<b>filler</b>" * (BATCH_BYTES // 10) + b"</a>"


def chunked(session: QuerySession, document: bytes, chunk_size: int):
    """A guided scan in ``chunk_size``-byte chunks under the session's
    matcher, fed to the session as a token stream (so the lane takes the
    spans it delivers)."""
    guide = session.runtime.matcher().for_run(BufferStats())
    return FileTokenizer(io.BytesIO(document), chunk_size=chunk_size, guide=guide)


def routes(session: QuerySession, document: bytes, directory: Path) -> dict:
    """Every way the document reaches the session, each guided."""
    path = directory / "document.xml"
    path.write_bytes(document)
    made = {
        "bytes": lambda: document,
        "path": lambda: path,
        **{
            f"chunked-{size}": lambda size=size: chunked(session, document, size)
            for size in (16, 17, 64)
        },
    }
    try:
        text = document.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        made["str"] = lambda: text
    return made


def assert_copy_conformance(query: str, document: bytes) -> int:
    """Every guided route against the unguided run and the DOM oracle;
    returns the tokens the whole-``bytes`` route copied."""
    session = QuerySession(query)
    assert session.compiled.copy_roles
    unguided = session.run_streaming(tokenize(document))
    expected = outcome(unguided)
    if expected[1] is None:
        assert unguided.result.stats.tokens_copied == 0
        tokens_read = unguided.result.stats.tokens_read
        # The oracle decodes the whole document first.
        if b"\xff" not in document:
            oracle = NaiveDomEngine().run(query, document.decode("utf-8"))
            assert expected[0] == oracle.output
    copied = 0
    with tempfile.TemporaryDirectory() as directory:
        for route, make in routes(session, document, Path(directory)).items():
            run = session.run_streaming(make())
            assert outcome(run) == expected, route
            if expected[1] is None:
                stats = run.result.stats
                assert stats.tokens_read == tokens_read, route
                if route == "bytes":
                    copied = stats.tokens_copied
    return copied


class TestConformance:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_fixed_document(self, name):
        document = (
            "<r a='named like the root'><c><a id='1' x=''><b>é日😀</b>"
            "<![CDATA[ <raw> & ]]><b></b></a></c>"
            "<a><b>one &amp; &lt;two&gt; &#60;</b><!-- é --><?pi?><b> </b></a>"
            "<x><a/></x><a><b>t</b><a/></a><a>last > least </a>"
        ).encode()
        assert assert_copy_conformance(QUERIES[name], document + b"</r>") > 0
        bad = document + b"<a><b>bad \xff utf-8</b></a></r>"
        assert_copy_conformance(QUERIES[name], bad)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_subtree_larger_than_a_batch(self, name):
        small = b"<a><b>small</b></a>"
        document = b"<r>" + small + BIG + b"<c>" + BIG + small + b"</c><a/></r>"
        assert assert_copy_conformance(QUERIES[name], document) > 0

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        document=copy_documents(),
        big=st.sampled_from([b"", BIG]),
        name=st.sampled_from(sorted(QUERIES)),
    )
    def test_generated_documents(self, document, big, name):
        assert_copy_conformance(QUERIES[name], document[:-4] + big + b"</r>")

    @settings(max_examples=60, deadline=None)
    @given(
        document=copy_documents(),
        name=st.sampled_from(sorted(QUERIES)),
        data=st.data(),
    )
    def test_damaged_documents(self, document, name, data):
        assert_copy_conformance(QUERIES[name], damaged(document, data))


class TestCopyAccounting:
    def test_a_copied_element_is_one_node_and_one_span(self):
        session = QuerySession(QUERIES["child"])
        document = "<r><a><b>one</b><b>two</b></a><z><y/></z><a/></r>"
        run = session.run_streaming(document)
        items = list(run)
        spans = [item for item in items if isinstance(item, Span)]
        assert [span.text for span in spans] == ["<a><b>one</b><b>two</b></a>", "<a/>"]
        stats = run.result.stats
        assert stats.tokens_copied == 8 + 2
        assert stats.copy_fallbacks == 0
        assert stats.nodes_created == 1 + 2  # <r>, one per copied subtree
        unguided = session.run(tokenize(document)).stats
        assert stats.tokens_read == unguided.tokens_read
        assert stats.nodes_created < unguided.nodes_created

    def test_the_span_is_charged_as_text(self):
        session = QuerySession(QUERIES["child"])
        stats = session.run("<r><a><b>one</b></a></r>").stats
        model = stats.model
        r_node = model.element_cost() + model.role_instance
        a_node = model.text_cost("<a><b>one</b></a>") + model.role_instance
        assert stats.hwm_bytes == r_node + a_node

    def test_copy_fallbacks_are_counted_per_run(self):
        session = QuerySession(QUERIES["descendant"])
        nested = "<r><a><a/></a><a/></r>"
        first = session.run(nested).stats
        second = session.run(nested).stats  # the warm rows count again
        assert first.copy_fallbacks == second.copy_fallbacks == 1
        assert first.tokens_copied == second.tokens_copied == 2  # the last <a/>

    def test_copied_text_is_never_a_lazy_text(self):
        document = "<r><a><b>é😀</b></a><skip>dropped</skip></r>".encode()
        before = text_decode_count()
        result = GCXEngine().run(QUERIES["child"], document)
        assert result.output == "<o><a><b>é😀</b></a></o>"
        assert text_decode_count() == before


# ---------------------------------------------------------------------------
# which outputs are copy sites: negative and positive cases
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def xmark() -> str:
    return (GOLDENS / "document.xml").read_text(encoding="utf-8")


def golden(name: str) -> str:
    return (GOLDENS / f"{name}.expected").read_text(encoding="utf-8")


#: Outputs something else reads, or below which something else can match.
NOT_COPIED = {
    "condition": '<o>{for $i in //item return if ($i/name = "x") then $i else ()}</o>',
    "second-output": "<o>{for $i in //item return ($i, $i/name)}</o>",
    "accumulator": "<o>{for $i in //item return ($i, count($i//keyword))}</o>",
    "first-witness": "<o>{for $r in /site/regions return $r//item[1]}</o>",
    "wildcard": "<o>{for $i in /site//* return $i}</o>",
    # ``$i`` alone is a copy site, but ``//name`` can match inside the
    # items, and ``$j``, bound to the same items, reads below them: only
    # the matcher sees the two meet.
    "descendant-below": (
        "<o>{(for $i in /site/regions/africa/item return $i, "
        "for $n in //name return $n/text())}</o>"
    ),
    "two-loops": (
        "<o>{(for $i in /site/regions/africa/item return $i, "
        "for $j in /site/regions/africa/item return $j/name)}</o>"
    ),
}


class TestCopySites:
    @pytest.mark.parametrize("name", sorted(NOT_COPIED))
    def test_not_copied(self, name, xmark):
        query = NOT_COPIED[name]
        result = GCXEngine().run(query, xmark)
        if name in ("descendant-below", "two-loops"):
            assert GCXEngine().session(query).compiled.copy_roles
        assert result.stats.tokens_copied == 0
        assert result.stats.copy_fallbacks == 0
        assert result.output == NaiveDomEngine().run(query, xmark).output

    def test_a_condition_sharing_the_output_dependency(self, xmark):
        """Without early updates ``$i/name`` stays a path output whose
        ``name/dos::node()`` dependency the condition reads too."""
        query = (
            "<o>{for $i in //item return "
            'if ($i/name = "shield brook fen granary") then $i/name else ()}</o>'
        )
        engine = GCXEngine(EngineOptions(early_updates=False))
        assert not engine.session(query).compiled.copy_roles
        result = engine.run(query, xmark)
        assert result.stats.tokens_copied == 0
        assert result.output == NaiveDomEngine().run(query, xmark).output
        assert "granary" in result.output

    def test_a_join_is_not_copied(self, xmark):
        result = GCXEngine().run(XMARK_QUERIES["Q8"].adapted, xmark)
        assert result.stats.tokens_copied == 0
        assert result.output == golden("Q8")

    def test_the_flux_like_baseline_copies_nothing(self, xmark):
        query = "<o>{for $i in /site/regions/africa/item return $i}</o>"
        expected = NaiveDomEngine().run(query, xmark).output
        assert GCXEngine().run(query, xmark).stats.tokens_copied > 0
        flux = FluxLikeEngine().run(query, xmark)
        assert flux.output == expected and flux.stats.tokens_copied == 0
        eager = GCXEngine(EngineOptions(eager_leaf_bindings=True)).run(query, xmark)
        assert eager.output == expected and eager.stats.tokens_copied == 0

    @pytest.mark.parametrize("name", ["Q6", "Q13"])
    def test_copied(self, name, xmark):
        """Q6's ``$i`` and Q13's ``$i/description``."""
        result = GCXEngine().run(XMARK_QUERIES[name].adapted, xmark)
        assert result.output == golden(name)
        assert result.stats.tokens_copied > 0
        assert result.stats.copy_fallbacks == 0
        unguided = GCXEngine().run(XMARK_QUERIES[name].adapted, tokenize(xmark))
        assert result.stats.tokens_read == unguided.stats.tokens_read

    @pytest.mark.parametrize("name", ["Q6", "Q13"])
    def test_the_shared_pass_copies_where_every_other_lane_is_dead(
        self, name, xmark
    ):
        """Q1 is dead below ``/site/regions``: each copy site arrives as one
        span, taken by the copying lane alone, which then builds what its
        solo run builds."""
        queries = {other: XMARK_QUERIES[other].adapted for other in ("Q1", name)}
        results = MultiQuerySession(queries).run(xmark)
        for other, result in results.items():
            assert result.output == golden(other)
        solo = GCXEngine().run(queries[name], xmark).stats
        mine = results[name].stats
        assert mine.tokens_copied == solo.tokens_copied > 0
        assert mine.nodes_created == solo.nodes_created
        assert mine.copy_fallbacks == solo.copy_fallbacks == 0
        assert results["Q1"].stats.tokens_copied == 0

    def test_a_lane_reading_below_a_copy_site_keeps_it_live(self, xmark):
        """Q13 reads the australia items Q6 copies, so those arrive token by
        token for both lanes; Q6 still copies every other item, and Q13's
        descriptions, inside items Q6 needs LIVE, are not copied."""
        queries = {name: XMARK_QUERIES[name].adapted for name in ("Q1", "Q6", "Q13")}
        results = MultiQuerySession(queries).run(xmark)
        for name, result in results.items():
            assert result.output == golden(name)
        solo = GCXEngine().run(queries["Q6"], xmark).stats
        assert 0 < results["Q6"].stats.tokens_copied < solo.tokens_copied
        assert results["Q13"].stats.tokens_copied == 0
        assert results["Q1"].stats.tokens_copied == 0


# ---------------------------------------------------------------------------
# the shared pass: a copy site every other lane is dead at
# ---------------------------------------------------------------------------


def covered(tokens) -> tuple[list[tuple[int, int]], set[tuple[int, int]]]:
    """Where a guided stream stands for more than one unguided token, in
    unguided token positions: its ``Skipped`` and its ``Span`` intervals."""
    skipped: list[tuple[int, int]] = []
    spans: set[tuple[int, int]] = set()
    at = 0
    for token in tokens:
        count = getattr(token, "tokens", 1)
        if isinstance(token, Span):
            spans.add((at, at + count))
        elif isinstance(token, Skipped):
            skipped.append((at, at + count))
        at += count
    return skipped, spans


def dead_over(skipped: list[tuple[int, int]], start: int, end: int) -> bool:
    """Do the (sorted, disjoint) skipped intervals cover ``[start, end)``?"""
    for low, high in skipped:
        if low <= start < high:
            start = high
        if start >= end:
            return True
    return False


def copied_alone(name: str, members: dict, document: str) -> bool:
    """Is every site ``name``'s solo run copies dead to every other member,
    or copied by it too?  Decided from the members' own guided scans, not
    from the shared pass's product guide."""
    scans = {
        member: covered(
            tokenize(document, guide=QuerySession(query).runtime.matcher())
        )
        for member, query in members.items()
    }
    sites = scans[name][1]
    return all(
        site in spans or dead_over(skipped, *site)
        for member, (skipped, spans) in scans.items()
        if member != name
        for site in sites
    )


GOLDEN_NAMES = sorted(XMARK_QUERIES)

#: The copy-site queries and one that leaves every ``<a>`` dead.
SHARED_MEMBERS = dict(QUERIES, hits="<o>{for $x in /r/c return <hit/>}</o>")


def shared_outcomes(members: dict, source) -> dict[str, tuple[str, str | None]]:
    """Each member's (output, error) from one shared pass over ``source``.

    A member whose run completed has no error; every other member's
    output stops where the pass raised, followed by the pass's error."""
    stream = MultiQuerySession(members).run_streaming(source)
    tokens: dict[str, list] = {name: [] for name in members}
    error = None
    try:
        for name, token in stream:
            tokens[name].append(token)
    except (XMLSyntaxError, UnicodeDecodeError) as raised:
        error = raised

    def replay(name: str):
        yield from tokens[name]
        if name not in stream.results:
            raise error

    return {name: outcome(replay(name)) for name in members}


def assert_shared_like_solo(members: dict, document: bytes) -> None:
    """A shared pass over ``document``, whose product guide copies sites
    every other member is dead at, against each member's solo run and
    against the same pass fed the unguided stream, which copies nothing.

    A member that completes gives its solo run's output, and the
    unguided pass's where that completes too.  When the pass
    fails, it fails with the error the unguided pass raises, which is one
    member's solo error, and every member still open has written a prefix
    of its solo output: the pass stops at the first member's error."""
    shared = shared_outcomes(members, document)
    unguided = shared_outcomes(members, tokenize(document))
    solo = {
        name: outcome(QuerySession(query).run_streaming(document))
        for name, query in members.items()
    }
    raised = {error for _output, error in shared.values()} - {None}
    assert raised == {error for _output, error in unguided.values()} - {None}
    assert raised <= {error for _output, error in solo.values()}
    for name, (output, error) in shared.items():
        if error is None:
            assert (output, error) == solo[name], name
            if unguided[name][1] is None:
                assert output == unguided[name][0], name
        else:
            assert solo[name][0].startswith(output), name


class TestSharedCopy:
    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.sampled_from(GOLDEN_NAMES), min_size=1))
    def test_a_member_copies_what_no_other_member_reads(self, names):
        """Every member's output is its solo run's; a member whose copy
        sites no other member reads builds and copies what its solo run
        does, and one whose sites another member reads copies less."""
        document = (GOLDENS / "document.xml").read_text(encoding="utf-8")
        members = {name: XMARK_QUERIES[name].adapted for name in sorted(names)}
        results = MultiQuerySession(members).run(document)
        for name, query in members.items():
            solo = QuerySession(query).run(document)
            mine = results[name]
            assert mine.output == solo.output == golden(name)
            figures = ("nodes_created", "tokens_copied", "copy_fallbacks")
            if copied_alone(name, members, document):
                for figure in figures:
                    assert getattr(mine.stats, figure) == getattr(solo.stats, figure)
            else:
                assert mine.stats.tokens_copied < solo.stats.tokens_copied

    @pytest.mark.parametrize(
        "site",
        [BIG, b"<a><a>nested</a></a>"],
        ids=["larger-than-a-batch", "nested-same-name"],
    )
    def test_copy_fallbacks_count_alike(self, site):
        """A site the scanner cannot copy arrives LIVE, and counts one
        fallback on the copying lane, as in its solo run."""
        document = b"<r>" + site + b"<a><b>1</b></a><q>x</q></r>"
        members = {
            "copying": QUERIES["child"],
            "dead": "<o>{for $x in /r/q return $x/text()}</o>",
        }
        results = MultiQuerySession(members).run(document)
        for name, query in members.items():
            solo = QuerySession(query).run(document)
            assert results[name].output == solo.output
            assert results[name].output == NaiveDomEngine().run(query, document).output
            assert results[name].stats.copy_fallbacks == solo.stats.copy_fallbacks
            assert results[name].stats.tokens_copied == solo.stats.tokens_copied
        assert results["copying"].stats.copy_fallbacks == 1
        assert results["copying"].stats.tokens_copied == 5  # the second <a>

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        document=copy_documents(),
        names=st.sets(st.sampled_from(sorted(SHARED_MEMBERS)), min_size=1),
        data=st.data(),
    )
    def test_generated_and_damaged_documents(self, document, names, data):
        members = {name: SHARED_MEMBERS[name] for name in sorted(names)}
        assert_shared_like_solo(members, document)
        assert_shared_like_solo(members, damaged(document, data))
