"""Scan-time projection, end to end: guided and unguided runs agree.

Every route that reads bytes — ``str``, ``bytes``, ``memoryview``,
``Path`` — scans under the run's matcher (or the shared pass's product
guide) and never builds a subtree that is dead to the projection; a
pre-tokenised iterator is the unguided route.  Nothing observable may
tell them apart except ``tokens_skipped``: output is byte-identical and
every other counter equal field for field, in every front-end, with the
strict-mode safety checks on (the default) — except on a solo run of a
query with copy sites, where the scanner copies each site's subtree
whole and the lane buffers it as one span: output and ``tokens_read``
are still the unguided run's, and ``tokens_copied`` says why the buffer
counters are not.  The shared pass copies such a site where every other
lane is dead, for the copying lane alone.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.analysis import compile_query
from repro.baselines import NaiveDomEngine
from repro.engine import MultiQuerySession, QuerySession, SessionPool
from repro.stream.matcher import StreamMatcher
from repro.xmark import generate_xmark
from repro.xmark.queries import XMARK_QUERIES
from repro.xmlio import tokenize
from repro.xmlio.lexer import DEAD
from repro.xmlio.tokens import EndTag, Skipped, Span, StartTag

from tests.properties.strategies import TAGS, documents, queries

GOLDENS = Path(__file__).parent / "goldens"
QUERY_NAMES = sorted(XMARK_QUERIES)
QUERIES = {name: XMARK_QUERIES[name].adapted for name in QUERY_NAMES}

#: How a document reaches the engine; every one but the last is guided.
ROUTES = {
    "path": lambda path: path,
    "bytes": lambda path: path.read_bytes(),
    "str": lambda path: path.read_text(encoding="utf-8"),
    "memoryview": lambda path: memoryview(path.read_bytes()),
    "tokens": lambda path: tokenize(path.read_bytes()),
}
GUIDED = [route for route in ROUTES if route != "tokens"]


#: The golden queries with copy sites (``{$i}``, ``$i/description``).
COPYING = {"Q6", "Q13"}


def assert_like_unguided(name: str, guided, unguided, route: str) -> None:
    """A solo guided run against the unguided one (see the module doc)."""
    assert guided.output == expected(name), route
    if name in COPYING:
        assert guided.stats.tokens_read == unguided.stats.tokens_read, route
        assert guided.stats.tokens_copied > 0, route
        assert guided.stats.copy_fallbacks == 0, route
    else:
        assert counters(guided.stats) == counters(unguided.stats), route
    assert guided.stats.tokens_skipped > 0, route


def assert_lane_like_unguided(name: str, guided, unguided, solo) -> None:
    """A shared-pass lane fed the document against the same lane fed the
    unguided stream.  A lane that copies reads the same tokens, copies
    at most what its guided ``solo`` run copies (only sites where every
    other lane is dead), and builds no fewer nodes than that run and
    fewer than the unguided lane; every other lane matches it field for
    field."""
    if guided.tokens_copied:
        assert name in COPYING, name
        assert guided.tokens_read == unguided.tokens_read, name
        assert guided.tokens_copied <= solo.tokens_copied, name
        assert guided.copy_fallbacks == solo.copy_fallbacks == 0, name
        assert solo.nodes_created <= guided.nodes_created, name
        assert guided.nodes_created < unguided.nodes_created, name
    else:
        assert counters(guided) == counters(unguided), name


def counters(stats) -> dict:
    """Every ``BufferStats`` field but the one that names the route."""
    return {
        f.name: getattr(stats, f.name)
        for f in dataclasses.fields(stats)
        if f.name not in ("tokens_skipped", "accountant")
    }


def expected(name: str) -> str:
    return (GOLDENS / f"{name}.expected").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def document() -> Path:
    return GOLDENS / "document.xml"


# ---------------------------------------------------------------------------


class TestSoloRoutes:
    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_query_session(self, name, document):
        session = QuerySession(QUERIES[name])
        session.run(document)  # warm the recycled buffer's free list
        unguided = session.run(ROUTES["tokens"](document))
        assert unguided.output == expected(name)
        assert unguided.stats.tokens_skipped == 0
        for route in GUIDED:
            guided = session.run(ROUTES[route](document))
            assert_like_unguided(name, guided, unguided, route)

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_session_pool_run(self, name, document):
        with SessionPool(QUERIES[name], max_workers=2) as pool:
            pool.run(document)  # warm the pooled buffer's free list
            unguided = pool.run(ROUTES["tokens"](document))
            assert unguided.stats.tokens_skipped == 0
            for route in GUIDED:
                guided = pool.run(ROUTES[route](document))
                assert_like_unguided(name, guided, unguided, route)

    def test_streaming_offsets_are_unchanged(self, document):
        """``tokens_consumed`` at each output token is the emission-order
        oracle of the serve layer: a skip must land on the same count, and
        a copied ``description`` (one span) on the count at which the
        unguided run emitted its last token."""
        session = QuerySession(QUERIES["Q13"])

        def offsets(source):
            run = session.run_streaming(source)
            return [(token, run.tokens_consumed) for token in run]

        unguided = iter(offsets(ROUTES["tokens"](document)))
        spans = 0
        for token, consumed in offsets(document):
            if isinstance(token, Span):
                spans += 1
                replaced = [next(unguided) for _ in tokenize(token.text)]
                assert [t for t, _at in replaced] == list(tokenize(token.text))
                assert consumed == replaced[-1][1]
            else:
                assert (token, consumed) == next(unguided)
        assert next(unguided, None) is None
        assert spans > 0


class TestInterrupt:
    """``SessionPool.run_streaming(..., interrupt=)``: the consumer's
    cancel check rides the one place that turns bytes into tokens."""

    DTD = "<!ELEMENT r (a*)> <!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>"

    def test_called_once_per_delivered_token_or_skip(self, document):
        """The check wraps the *guided* stream, so it runs less often
        than tokens are read and changes nothing the run reports."""
        calls = 0

        def interrupt() -> None:
            nonlocal calls
            calls += 1

        with SessionPool(QUERIES["Q1"]) as pool:
            pool.run(document)  # warm the pooled buffer's free list
            plain = pool.run(document.read_bytes())
            stream = pool.run_streaming(document.read_bytes(), interrupt=interrupt)
            output = "".join(stream.serialized())
            delivered = sum(
                1 for _ in tokenize(document.read_bytes(), guide=pool.matcher)
            )
        assert output == plain.output == expected("Q1")
        assert counters(stream.result.stats) == counters(plain.stats)
        assert stream.result.stats.tokens_skipped == plain.stats.tokens_skipped > 0
        assert calls == delivered < plain.stats.tokens_read

    def test_direct_evaluator_passes_are_interruptible_too(self, direct_runners):
        from repro.analysis.schema import Schema

        calls = 0

        def interrupt() -> None:
            nonlocal calls
            calls += 1

        document = b"<r><a><b>one</b></a><a/></r>"
        schema = Schema.from_dtd_text(self.DTD)
        with SessionPool("<o>{for $x in //a return $x}</o>", schema=schema) as pool:
            stream = pool.run_streaming(document, interrupt=interrupt)
            assert len(direct_runners) == 1
            output = "".join(stream.serialized())
        # The direct runner's chain guide copies each match: <r>, one Span
        # per <a>, </r> — once per delivered item, not per token read.
        assert output == "<o><a><b>one</b></a><a/></o>"
        assert calls == 4 < stream.result.stats.tokens_read == 9
        assert stream.result.stats.tokens_copied == 7

    def test_raising_aborts_the_run_and_releases_the_checkout(self):
        class Stop(Exception):
            pass

        seen = 0

        def interrupt() -> None:
            nonlocal seen
            seen += 1
            if seen == 3:
                raise Stop

        with SessionPool("<o>{for $x in /a/b return $x}</o>") as pool:
            stream = pool.run_streaming(
                b"<a><b>1</b><b>2</b><b>3</b></a>", interrupt=interrupt
            )
            with pytest.raises(Stop):
                for _token in stream:
                    pass
            assert pool.stats.outstanding_checkouts == 0
            assert pool.stats.active_runs == 0
            assert pool.run(b"<a><b>1</b></a>").output == "<o><b>1</b></o>"


class TestSharedRoutes:
    def drain(self, session: MultiQuerySession, source):
        stream = session.run_streaming(source)
        outputs: dict[str, list] = {name: [] for name in session.names}
        for name, token in stream:
            outputs[name].append(str(token))
        return {n: "".join(parts) for n, parts in outputs.items()}, stream

    def test_multi_query_session(self, document):
        session = MultiQuerySession(QUERIES)
        session.run(document)  # warm the recycled buffers' free lists
        solo = {name: QuerySession(QUERIES[name]).run(document) for name in QUERIES}
        _outputs, unguided = self.drain(session, ROUTES["tokens"](document))
        assert unguided.stats.tokens_skipped == 0
        for route in GUIDED:
            results = session.run(ROUTES[route](document))
            for name in QUERY_NAMES:
                assert results[name].output == expected(name), (route, name)
            _outputs, guided = self.drain(session, ROUTES[route](document))
            assert guided.stats.tokens_skipped > 0, route
            mine, theirs = guided.stats, unguided.stats
            assert dataclasses.replace(mine, tokens_skipped=0) == theirs, route
            assert mine.dispatched_tokens == theirs.dispatched_tokens
            # Q13 reads the australia items: Q6 copies every other one.
            assert guided.results["Q6"].stats.tokens_copied > 0, route
            for name in QUERY_NAMES:
                assert_lane_like_unguided(
                    name,
                    guided.results[name].stats,
                    unguided.results[name].stats,
                    solo[name].stats,
                )

    def test_session_pool_map_multi(self, document):
        solo = {name: QuerySession(QUERIES[name]).run(document) for name in QUERIES}
        # The lanes that copy in this mix: Q13's descriptions lie inside
        # items Q6 reads LIVE, so only Q6 does.
        copying = {
            name
            for name, result in MultiQuerySession(QUERIES).run(document).items()
            if result.stats.tokens_copied
        }
        assert copying == {"Q6"}
        with SessionPool(QUERIES["Q1"], max_workers=2) as pool:
            (unguided,) = pool.map_multi([ROUTES["tokens"](document)], QUERIES)
            sources = [ROUTES[route](document) for route in GUIDED]
            for route, row in zip(GUIDED, pool.map_multi(sources, QUERIES)):
                for name in QUERY_NAMES:
                    assert row[name].output == expected(name), (route, name)
                    # PoolResult keeps no time-independent field but these.
                    mine = (row[name].hwm_nodes, row[name].hwm_bytes)
                    theirs = (unguided[name].hwm_nodes, unguided[name].hwm_bytes)
                    assert row[name].tokens_read == unguided[name].tokens_read
                    if name in copying:
                        # Copied sites shrink the buffer, toward the solo
                        # run's, which copies every site.
                        least = (solo[name].stats.hwm_nodes, solo[name].stats.hwm_bytes)
                        assert all(map(int.__le__, least, mine)), (route, name)
                        assert all(map(int.__le__, mine, theirs)), (route, name)
                    else:
                        assert mine == theirs, (route, name)

    def test_lanes_parked_at_different_depths_are_charged_alike(self):
        """Parks are per lane and a skip spans only what is dead to all of
        them: its charge must follow the lanes that were active for it."""
        queries = {
            "early": "<o>{for $x in /r/a return <hit/>}</o>",
            "late": "<o>{for $x in /r/z return $x}</o>",
            "deep": "<o>{for $x in /r/b return for $y in $x/c return $y/text()}</o>",
        }
        text = (
            "<r><a/><junk><a><c>1</c></a></junk><b><junk2>t</junk2><c>2</c>"
            "<d><c>3</c></d></b><junk/><z>end</z><junk>t</junk></r>"
        )
        session = MultiQuerySession(queries)
        session.run(text)
        outputs, guided = self.drain(session, text)
        reference, unguided = self.drain(session, tokenize(text))
        assert outputs == reference
        assert dataclasses.replace(guided.stats, tokens_skipped=0) == unguided.stats
        # ``late`` copies its <z>, where the other two lanes are dead: as
        # its solo run does.
        late = guided.results["late"].stats
        solo = QuerySession(queries["late"]).run(text).stats
        assert late.tokens_copied == solo.tokens_copied == 3
        assert late.nodes_created == solo.nodes_created
        assert late.tokens_read == unguided.results["late"].stats.tokens_read
        # ``early`` and ``deep`` copy nothing.  A lane's held reads are
        # sampled when its output leaves: deep's "2" leaves after late's
        # first demand, which on the guided stream reads <z> and its
        # subtree as one span, charged to deep as a park's open and close
        # (2 reads), where the unguided stream gives deep only <z> (1).
        extra = {"early": 0, "deep": 1}
        for name, more in extra.items():
            mine, theirs = (
                counters(run.results[name].stats) for run in (guided, unguided)
            )
            held = "tokens_held_before_emit"
            assert mine.pop(held) == theirs.pop(held) + more, name
            assert mine == theirs, name
        assert guided.stats.tokens_skipped > 0


class TestShapes:
    """One test per claim docs/PERFORMANCE.md makes about the guide."""

    @pytest.fixture(scope="class")
    def xmark(self) -> str:
        return generate_xmark(0.002, seed=11)

    def test_q1_delivers_under_a_tenth_of_the_stream_to_the_lane(self, xmark):
        stats = QuerySession(QUERIES["Q1"]).run(xmark).stats
        assert stats.tokens_skipped / stats.tokens_read >= 0.9
        assert stats.tokens_read == sum(1 for _ in tokenize(xmark))

    def test_q6_delivers_every_token_under_regions(self, xmark):
        """``$r//item``: the ``regions`` subtree is LIVE by construction;
        only what lies outside it can be skipped."""
        matcher = StreamMatcher(compile_query(QUERIES["Q6"]).projection_tree)

        def under_regions(tokens) -> list:
            tokens = list(tokens)
            start = tokens.index(StartTag("regions"))
            return tokens[start : tokens.index(EndTag("regions")) + 1]

        guided = under_regions(tokenize(xmark, guide=matcher))
        assert guided == under_regions(tokenize(xmark))
        assert not any(isinstance(token, Skipped) for token in guided)
        stats = QuerySession(QUERIES["Q6"]).run(xmark).stats
        assert 0 < stats.tokens_skipped == stats.tokens_read - len(guided) - 2

    def test_pre_tokenised_route_skips_nothing(self, xmark):
        for name in ("Q1", "Q6"):
            stats = QuerySession(QUERIES[name]).run(tokenize(xmark)).stats
            assert stats.tokens_skipped == 0

    @pytest.mark.parametrize(
        "query",
        [
            # descendant-axis [1]: matching reads the whole frame stack
            "<o>{for $p in /site/people/person return $p//name[1]}</o>",
            "<o>{for $a in /site/open_auctions/open_auction return $a//increase[1]/text()}</o>",
            # accumulators: chains keep what they count alive, nothing else
            "<o>{count(/site/people/person/name)}</o>",
            "<o>{for $a in /site/closed_auctions/closed_auction return sum($a/price)}</o>",
            "<o>{for $s in /site return count($s/regions//item)}</o>",
        ],
    )
    def test_first_witness_and_accumulator_queries_stay_identical(self, query, xmark):
        session = QuerySession(query)
        session.run(xmark)
        guided = session.run(xmark)
        unguided = session.run(tokenize(xmark))
        assert guided.output == unguided.output
        assert guided.output == NaiveDomEngine().run(query, xmark).output
        assert counters(guided.stats) == counters(unguided.stats)
        assert unguided.stats.tokens_skipped == 0 < guided.stats.tokens_skipped


def child_axis_queries() -> st.SearchStrategy[str]:
    """``//`` and ``*`` leave nothing dead to splice into: a loop over a
    child-axis path with one of each kind of use of the bound node."""
    path = st.lists(st.sampled_from(TAGS), min_size=1, max_size=2).map(
        lambda tags: "".join("/" + tag for tag in tags)
    )
    use = st.sampled_from(
        [
            "$x{p}",
            "$x{p}/text()",
            "$x{p}[1]",
            "if (exists $x{p}) then <y/> else <n/>",
            'if ($x{p} = "x") then $x else ()',
            "count($x{p})",
            "sum($x{p})",
        ]
    )
    return st.tuples(path, path, use).map(
        lambda t: f"<out>{{for $x in $root{t[0]} return {t[2].format(p=t[1])}}}</out>"
    )


class TestProjectionInvariance:
    """ROADMAP 6(i): splicing subtrees that are dead to the projection tree
    into a document changes neither the output nor the buffer peak."""

    @staticmethod
    def splice_points(document: str, matcher: StreamMatcher, tag: bytes) -> list[int]:
        """Token indices before which a ``tag`` element would be dead."""
        points = []
        rows: list = [matcher.root_row()]  # a row, None (LIVE) or DEAD (inside)
        for index, token in enumerate(tokenize(document)):
            row = rows[-1]  # of the innermost element open before the token
            if row is not DEAD and row is not None:
                verdict = row.get(tag) or matcher.miss(row, tag)
            if index and (row is DEAD or (row is not None and verdict is DEAD)):
                points.append(index)
            if isinstance(token, StartTag):
                if row is not DEAD and row is not None:
                    key = token.tag.encode("utf-8")
                    entry = row.get(key) or matcher.miss(row, key)
                    row = DEAD if entry is DEAD else entry[5]
                rows.append(row)
            elif isinstance(token, EndTag):
                rows.pop()
        return points

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(
        body=documents(max_depth=4),
        root=st.sampled_from(TAGS),
        query=st.one_of(queries(max_depth=3), child_axis_queries()),
        filler=documents(max_depth=3),
        data=st.data(),
    )
    def test_dead_subtrees_change_nothing(self, body, root, query, filler, data):
        # The strategies' documents are rooted at ``r``, which no generated
        # path names: re-root them so child-axis paths can match, and keep
        # ``r`` as the tag of the spliced subtrees.
        document = f"<{root}>{body[3:-4]}</{root}>"
        session = QuerySession(query)
        matcher = StreamMatcher(session.compiled.projection_tree)
        points = self.splice_points(document, matcher, b"r")
        chosen = set(data.draw(st.lists(st.sampled_from(points), max_size=4))) if points else set()
        spliced = "".join(
            (filler if index in chosen else "") + str(token)
            for index, token in enumerate(tokenize(document))
        )
        event("spliced" if chosen else "nothing dead to splice into")
        plain = session.run(document)
        grown = session.run(spliced)
        assert grown.output == plain.output
        assert grown.hwm_bytes == plain.hwm_bytes
        assert grown.output == NaiveDomEngine().run(query, spliced).output
        if chosen and grown.exhausted_input:  # else the run stopped reading early
            assert grown.stats.tokens_skipped > plain.stats.tokens_skipped


class TestConcurrentRowFilling:
    def test_cold_rows_filled_from_many_threads(self, document):
        """Scan rows are filled lazily on the pool's one shared matcher
        while other threads' tokenizers read them: more threads than cores
        start together on a cold matcher, and every run must still count
        and answer exactly as a lone session does."""
        import sys
        import threading

        name, workers, rounds = "Q8", 8, 3
        alone = QuerySession(QUERIES[name]).run(document)
        data = document.read_bytes()
        results: list = []
        barrier = threading.Barrier(workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SessionPool(QUERIES[name], max_workers=workers) as pool:

                def client() -> None:
                    barrier.wait(timeout=30)
                    for _ in range(rounds):
                        results.append(pool.run(data))

                threads = [threading.Thread(target=client) for _ in range(workers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == workers * rounds
        expected_counters = counters(alone.stats)
        del expected_counters["nodes_recycled"]  # depends on the pooled buffer
        for result in results:
            assert result.output == alone.output
            got = counters(result.stats)
            del got["nodes_recycled"]
            assert got == expected_counters
            assert result.stats.tokens_skipped == alone.stats.tokens_skipped
