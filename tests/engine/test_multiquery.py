"""The multi-query shared-stream engine: correctness, invariants, leaks.

The two load-bearing guarantees of :mod:`repro.engine.multi`:

1. **Differential conformance** — a shared pass over one document must be
   byte-identical, query by query, to sequential per-query
   :class:`~repro.engine.session.QuerySession` runs (and therefore to the
   committed goldens).
2. **Single-scan invariant** — the shared pass reads the document's token
   stream exactly once, however many queries ride along.

Plus the run-machinery properties inherited from the single-query engine:
strict safety per lane, exactly-once checkout release on completion,
close and crash, and session reusability afterwards.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine import MultiQuerySession, QuerySession, SessionPool
from repro.engine.session import EngineOptions
from repro.xmark.queries import XMARK_QUERIES
from repro.xmark.schema import xmark_schema
from repro.xmlio.lexer import tokenize

GOLDENS = Path(__file__).parent / "goldens"
QUERY_NAMES = sorted(XMARK_QUERIES)
#: The K=8 standing mix: the golden queries minus Q5.
STANDING_MIX = [name for name in QUERY_NAMES if name != "Q5"]


@pytest.fixture(scope="module")
def document() -> str:
    return (GOLDENS / "document.xml").read_text(encoding="utf-8")


def golden(name: str) -> str:
    return (GOLDENS / f"{name}.expected").read_text(encoding="utf-8")


def all_queries() -> dict[str, str]:
    return {name: XMARK_QUERIES[name].adapted for name in QUERY_NAMES}


def outstanding_checkouts(multi: MultiQuerySession) -> dict[str, int]:
    """Checkouts each member session still holds, after reaping the
    releases of abandoned runs."""
    multi._reap_dropped_runs()
    return {name: len(s._checked_out) for name, s in multi.sessions.items()}


def solo_run(query, document, schema):
    return QuerySession(query, schema=schema).run(document)


def pool_run(query, document, schema):
    with SessionPool(query, schema=schema, max_workers=2) as pool:
        return pool.run(document)


def pool_map(query, document, schema):
    with SessionPool(query, schema=schema, max_workers=2) as pool:
        (result,) = pool.map([document])
    return result


def multi_run(query, document, schema):
    return MultiQuerySession({"q": query}, schema=schema).run(document)["q"]


def pool_map_multi(query, document, schema):
    with SessionPool(query, schema=schema, max_workers=2) as pool:
        (results,) = pool.map_multi([document], {"q": query})
    return results["q"]


#: Every front-end evaluating one query over one document.
FRONT_ENDS = {
    "QuerySession.run": solo_run,
    "SessionPool.run": pool_run,
    "SessionPool.map": pool_map,
    "MultiQuerySession.run": multi_run,
    "SessionPool.map_multi": pool_map_multi,
}


def buffer_figures(result) -> tuple[int, int]:
    """``(hwm_nodes, raw hwm_bytes)`` of a RunResult or a PoolResult."""
    stats = getattr(result, "stats", result)
    return stats.hwm_nodes, stats.hwm_bytes


class TestDifferentialConformance:
    def test_all_golden_queries_in_one_pass(self, document):
        session = MultiQuerySession(all_queries())
        results = session.run(document)
        assert list(results) == QUERY_NAMES  # query order preserved
        for name in QUERY_NAMES:
            assert results[name].output == golden(name), name

    def test_repeated_passes_stay_identical(self, document):
        """Recycled buffers and warm matchers must not drift run to run."""
        session = MultiQuerySession(all_queries())
        first = session.run(document)
        second = session.run(document)
        for name in QUERY_NAMES:
            assert first[name].output == second[name].output == golden(name)
        assert session.runs_completed == 2

    def test_matches_fresh_single_query_sessions(self, document):
        results = MultiQuerySession(all_queries()).run(document)
        for name, text in all_queries().items():
            assert results[name].output == QuerySession(text).run(document).output

    @pytest.mark.parametrize(
        "schema", [None, xmark_schema()], ids=["no-schema", "xmark"]
    )
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_single_query_is_the_n1_case(self, document, name, front_end, schema):
        """Every front-end agrees with a plain QuerySession on one query.

        Without a schema every front-end runs the same buffered pipeline,
        so the buffer high watermark agrees too (raw bytes, the unit
        PoolResult reports) with the solo run of the same document: a
        one-lane shared pass copies each copy site whole exactly where the
        solo run does.  With the schema a solo run of a certified query
        goes direct while a multi session keeps the generic evaluator:
        only the output is comparable."""
        query = XMARK_QUERIES[name].adapted
        result = FRONT_ENDS[front_end](query, document, schema)
        assert result.output == golden(name)
        if schema is None:
            solo = QuerySession(query).run(document)
            assert buffer_figures(result) == buffer_figures(solo)


class TestSingleScanInvariant:
    def test_shared_pass_reads_one_document_scan(self, document):
        document_tokens = sum(1 for _token in tokenize(document))
        session = MultiQuerySession(all_queries())
        stream = session.run_streaming(document)
        for _pair in stream:
            pass
        stats = stream.stats
        assert stats.tokens_read == document_tokens
        assert stats.query_count == len(QUERY_NAMES)

    def test_scan_count_is_independent_of_query_count(self, document):
        document_tokens = sum(1 for _token in tokenize(document))
        for subset in (["Q1"], ["Q1", "Q6"], QUERY_NAMES):
            session = MultiQuerySession(
                {name: XMARK_QUERIES[name].adapted for name in subset}
            )
            stream = session.run_streaming(document)
            for _pair in stream:
                pass
            assert stream.stats.tokens_read == document_tokens, subset

    def test_routing_withholds_irrelevant_regions(self, document):
        """A people-only query must not be fed the regions subtree."""
        session = MultiQuerySession(
            {"Q1": XMARK_QUERIES["Q1"].adapted, "Q6": XMARK_QUERIES["Q6"].adapted}
        )
        stream = session.run_streaming(document)
        for _pair in stream:
            pass
        stats = stream.stats
        # Each lane saw a proper subset of the scan, and the routing saved
        # dispatches overall (both queries touch disjoint site sections).
        assert stats.lane_tokens["Q1"] < stats.tokens_read
        assert stats.lane_tokens["Q6"] < stats.tokens_read
        assert stats.routing_savings > 0
        assert stats.dispatched_tokens == sum(stats.lane_tokens.values())

    def test_standing_mix_routes_under_half_of_the_tokens(self, document):
        """Lane dispatches stay under half of feeding every token of the
        scan to every one of the K=8 queries."""
        session = MultiQuerySession(
            {name: XMARK_QUERIES[name].adapted for name in STANDING_MIX}
        )
        stream = session.run_streaming(document)
        for _pair in stream:
            pass
        stats = stream.stats
        assert stats.query_count == len(STANDING_MIX) == 8
        route_share = stats.dispatched_tokens / (stats.tokens_read * stats.query_count)
        assert route_share < 0.5


class TestRunMachinery:
    def test_a_member_answered_from_its_buffer_keeps_its_turn(self, document):
        """Queries whose data is already buffered drain it before more
        input is read: a member whose token read nothing from the shared
        stream is asked for its next one too."""
        stream = MultiQuerySession(all_queries()).run_streaming(document)
        read = 0
        kept = None  # the member whose last token read no input
        turns_kept = 0
        for name, _token in stream:
            if kept is not None and kept not in stream.results:
                assert name == kept
                turns_kept += 1
            now = stream.stats.tokens_read
            kept = name if now == read else None
            read = now
        assert turns_kept > 0
        assert set(stream.results) == set(all_queries())

    def test_streaming_yields_interleaved_named_tokens(self, document):
        session = MultiQuerySession(
            {"Q1": XMARK_QUERIES["Q1"].adapted, "Q13": XMARK_QUERIES["Q13"].adapted}
        )
        names = {name for name, _token in session.run_streaming(document)}
        assert names == {"Q1", "Q13"}

    def test_strict_safety_holds_per_lane(self, document):
        session = MultiQuerySession(all_queries())
        results = session.run(document)  # strict check_safety per run
        for result in results.values():
            assert result.stats.role_accounting_balanced()
            assert result.stats.live_role_instances == 0

    def test_close_releases_every_checkout(self, document):
        session = MultiQuerySession(
            {"Q1": XMARK_QUERIES["Q1"].adapted, "Q6": XMARK_QUERIES["Q6"].adapted}
        )
        stream = session.run_streaming(document)
        for _count, _pair in zip(range(3), stream):
            pass
        stream.close()
        # Every per-query session got its checkout back (the queued
        # releases of the closed runs are reaped first).
        assert outstanding_checkouts(session) == {"Q1": 0, "Q6": 0}
        assert session._accountant.live_nodes == 0
        # And every per-query session is serviceable again immediately.
        results = session.run(document)
        assert results["Q1"].output == golden("Q1")
        assert results["Q6"].output == golden("Q6")

    def test_close_is_idempotent(self, document):
        session = MultiQuerySession({"Q1": XMARK_QUERIES["Q1"].adapted})
        stream = session.run_streaming(document)
        next(iter(stream))
        stream.close()
        stream.close()

    def test_crash_mid_stream_releases_all_checkouts(self, document):
        """A dying input poisons the whole pass; no checkout may leak."""

        def poisoned():
            for count, token in enumerate(tokenize(document)):
                if count == 50:
                    raise RuntimeError("boom")
                yield token

        session = MultiQuerySession(
            {"Q1": XMARK_QUERIES["Q1"].adapted, "Q6": XMARK_QUERIES["Q6"].adapted}
        )
        stream = session.run_streaming(poisoned())
        with pytest.raises(RuntimeError, match="boom"):
            for _pair in stream:
                pass
        # All checkouts must be home again; the session still works.
        assert outstanding_checkouts(session) == {"Q1": 0, "Q6": 0}
        assert session._accountant.live_nodes == 0
        results = session.run(document)
        assert results["Q1"].output == golden("Q1")
        assert results["Q6"].output == golden("Q6")

    def test_a_copied_span_is_refused_not_dropped(self):
        """A stream scanned under one member's own guide carries that
        member's copy sites as Spans; the shared pass never copies, so it
        must refuse them rather than lose their subtrees."""
        copying = "<o>{for $b in /r/b return $b}</o>"
        document = "<r><b><c>x</c></b><b>y</b></r>"
        guide = QuerySession(copying).runtime.matcher()
        session = MultiQuerySession(
            {"a": copying, "z": "<o>{for $b in /r/b return <hit/>}</o>"}
        )
        with pytest.raises(TypeError, match=r"no Span \(a copied <b>\)"):
            session.run(iter(tokenize(document, guide=guide)))
        assert outstanding_checkouts(session) == {"a": 0, "z": 0}
        results = session.run(document)
        assert results["a"].output == "<o><b><c>x</c></b><b>y</b></o>"
        assert results["z"].output == "<o><hit/><hit/></o>"

    def test_result_outputs_and_wall_clock(self, document):
        session = MultiQuerySession({"Q1": XMARK_QUERIES["Q1"].adapted})
        results = session.run(document)
        result = results["Q1"]
        assert result.output == golden("Q1")
        assert result.elapsed_seconds >= 0
        assert result.exhausted_input

    def test_custom_sinks_receive_tokens(self, document):
        from repro.xmlio.serialize import StringSink

        session = MultiQuerySession({"Q1": XMARK_QUERIES["Q1"].adapted})
        sink = StringSink()
        results = session.run(document, sinks={"Q1": sink})
        assert results["Q1"].output == ""  # tokens went to the caller's sink
        sink.close()
        assert sink.getvalue() == golden("Q1")

    def test_path_documents_are_supported(self):
        session = MultiQuerySession({"Q1": XMARK_QUERIES["Q1"].adapted})
        results = session.run(GOLDENS / "document.xml")
        assert results["Q1"].output == golden("Q1")

    def test_streaming_pass_counts_as_one_completed_run(self, document):
        """A drained run_streaming pass counts once, like run(); a closed
        pass does not count."""
        session = MultiQuerySession(
            {"Q1": XMARK_QUERIES["Q1"].adapted, "Q6": XMARK_QUERIES["Q6"].adapted}
        )
        for _pair in session.run_streaming(document):
            pass
        assert session.runs_completed == 1
        assert [m.runs_completed for m in session.sessions.values()] == [1, 1]
        session.run(document)
        assert session.runs_completed == 2
        stream = session.run_streaming(document)
        next(stream)
        stream.close()
        assert session.runs_completed == 2

    def test_aggregate_accounting_settles(self, document):
        session = MultiQuerySession(all_queries())
        session.run(document)
        acct = session._accountant
        assert acct.live_nodes == 0
        assert acct.live_bytes == 0
        assert session.peak_live_nodes > 0

    def test_gc_abandoned_run_settles_the_aggregate(self, document):
        """Dropping a multi-run without close() must not inflate the
        session's live aggregate forever (the finalizer queues the open
        lanes' residency; observation points reap the queue)."""
        import gc

        session = MultiQuerySession(
            {"Q1": XMARK_QUERIES["Q1"].adapted, "Q6": XMARK_QUERIES["Q6"].adapted}
        )
        stream = session.run_streaming(document)
        for _count, _pair in zip(range(5), stream):
            pass
        assert session._accountant.live_nodes > 0  # mid-pass residency
        del stream
        gc.collect()
        assert session.peak_live_nodes > 0  # property reaps the queue
        acct = session._accountant
        assert acct.live_nodes == 0
        assert acct.live_bytes == 0
        # The sessions themselves are serviceable again (guards reaped).
        assert session.run(document)["Q1"].output == golden("Q1")


class TestConstruction:
    def test_sequence_queries_get_default_names(self, document):
        session = MultiQuerySession(
            [XMARK_QUERIES["Q1"].adapted, XMARK_QUERIES["Q13"].adapted]
        )
        assert session.names == ("q0", "q1")
        results = session.run(document)
        assert results["q0"].output == golden("Q1")

    def test_compiled_queries_are_adopted(self, document):
        from repro.analysis import compile_query

        compiled = compile_query(XMARK_QUERIES["Q1"].adapted)
        session = MultiQuerySession({"Q1": compiled})
        assert session.compiled("Q1") is compiled
        assert session.run(document)["Q1"].output == golden("Q1")

    def test_runtimes_are_adopted_with_their_options(self, document):
        """map_multi hands its workers shared runtimes: compiled and
        trusted once, never again per worker session."""
        from repro.engine.session import QueryRuntime

        options = EngineOptions(hash_joins=False)
        runtime = QueryRuntime(XMARK_QUERIES["Q1"].adapted, options)
        session = MultiQuerySession({"Q1": runtime}, options)
        assert session.sessions["Q1"].runtime is runtime
        assert session.run(document)["Q1"].output == golden("Q1")
        with pytest.raises(ValueError, match="its own options"):
            MultiQuerySession({"Q1": runtime}, EngineOptions())

    def test_empty_query_set_is_rejected(self):
        with pytest.raises(ValueError, match="at least one query"):
            MultiQuerySession({})

    def test_union_tree_masks_cover_all_queries(self):
        session = MultiQuerySession(all_queries())
        union = session.union
        assert union.query_count == len(QUERY_NAMES)
        assert union.root.mask == union.full_mask
        rendered = session.format_union()
        for name in QUERY_NAMES:
            assert name in rendered
