"""Tests for the matcher's lazy-DFA transition table (Section 2).

Covers the PR 3 satellite requirements: transition-table hit counts on
repeated tags, and byte-identical preprojection output between a memoized
(warm) matcher and a cold one.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.analysis import CompileOptions, compile_query
from repro.buffer import BufferTree
from repro.engine.pool import SessionPool
from repro.engine.session import QuerySession
from repro.stream import StreamMatcher, StreamPreprojector
from repro.xmark import generate_xmark
from repro.xmlio import tokenize

QUERY = (
    "<results>{"
    "for $i in /site/regions/europe/item return <hit>{$i/name}</hit>"
    "}</results>"
)


def compiled_tree():
    return compile_query(QUERY, CompileOptions()).projection_tree


def project(document: str, tree=None, matcher: StreamMatcher | None = None):
    """Run preprojection; returns (buffer, preprojector)."""
    buffer = BufferTree()
    preprojector = StreamPreprojector(
        tokenize(document),
        tree if tree is not None else compiled_tree(),
        buffer,
        matcher=matcher,
    )
    preprojector.run_to_completion()
    return buffer, preprojector


class TestHitCounts:
    def test_repeated_tags_hit_the_table(self):
        document = (
            "<site><regions><europe>"
            + "<item><name>n</name></item>" * 50
            + "</europe></regions></site>"
        )
        _buffer, preprojector = project(document)
        matcher = preprojector.matcher
        # 50 repetitions of the same three tags: after the first item, every
        # lookup is a table hit.
        assert matcher.table_misses > 0
        assert matcher.table_hits > matcher.table_misses * 10
        total = matcher.table_hits + matcher.table_misses
        assert matcher.table_hits / total > 0.9

    def test_distinct_contexts_create_distinct_states(self):
        document = (
            "<site><regions><europe><item><name>n</name></item></europe>"
            "</regions></site>"
        )
        _buffer, preprojector = project(document)
        matcher = preprojector.matcher
        # Lazy construction: only states the document actually exposes.
        assert 0 < matcher.state_count < 20
        assert matcher.table_size >= matcher.table_misses - matcher.off_dfa_computes

    def test_second_document_reuses_the_warm_table(self):
        tree = compiled_tree()
        document = (
            "<site><regions><europe><item><name>a</name></item></europe>"
            "</regions></site>"
        )
        _buffer1, first = project(document, tree=tree)
        warm_matcher = first.matcher
        misses_after_first = warm_matcher.table_misses
        buffer2 = BufferTree()
        preprojector2 = StreamPreprojector(
            tokenize(document), tree, buffer2, matcher=warm_matcher
        )
        preprojector2.run_to_completion()
        # The same document adds zero new transitions.
        assert warm_matcher.table_misses == misses_after_first

    def test_xmark_hit_rate_is_high(self, xmark_doc_small):
        _buffer, preprojector = project(xmark_doc_small)
        matcher = preprojector.matcher
        total = matcher.table_hits + matcher.table_misses
        # Every open tag and text token goes through the table (end tags
        # only pop the stack, so they never consult the matcher).
        assert 0 < total < preprojector.buffer.stats.tokens_read
        assert matcher.table_hits / total > 0.95


class TestMemoizedEqualsCold:
    def test_warm_matcher_produces_identical_preprojection(self, xmark_doc_small):
        tree = compiled_tree()
        cold_buffer, _ = project(xmark_doc_small, tree=tree)
        # Warm: reuse a matcher that already saw the document once.
        _b, warmed = project(xmark_doc_small, tree=tree)
        warm_buffer = BufferTree()
        preprojector = StreamPreprojector(
            tokenize(xmark_doc_small), tree, warm_buffer, matcher=warmed.matcher
        )
        preprojector.run_to_completion()
        assert warmed.matcher.table_hits > warmed.matcher.table_misses
        # Byte-identical buffered projection, roles included.
        assert warm_buffer.format_contents() == cold_buffer.format_contents()

    def test_generated_documents_identical_across_seeds(self):
        tree = compiled_tree()
        for seed in (3, 5):
            document = generate_xmark(0.0005, seed=seed)
            cold_buffer, _ = project(document, tree=tree)
            warm_buffer, _ = project(document, tree=tree)
            assert cold_buffer.format_contents() == warm_buffer.format_contents()


class TestOffDfaPath:
    def test_first_witness_steps_bypass_the_table(self):
        """[1] steps force direct computation; output must stay correct."""
        query = (
            "<o>{for $b in /site/b return "
            "if (exists($b/p)) then <hit/> else <miss/>}</o>"
        )
        tree = compile_query(query, CompileOptions()).projection_tree
        document = "<site><b><p>1</p><p>2</p></b><b><p>3</p></b></site>"
        buffer, preprojector = project(document, tree=tree)
        contents = buffer.format_contents()
        assert contents  # something was preserved
        # Consumptions happened, so some tokens computed off-DFA.
        if preprojector.matcher.off_dfa_computes:
            # A cold rerun still agrees exactly.
            buffer2, _ = project(document, tree=tree)
            assert buffer2.format_contents() == contents


class TestSharedMatcherGuard:
    def test_aggregate_flag_mismatch_is_rejected(self):
        tree = compiled_tree()
        matcher = StreamMatcher(tree, aggregate_roles=True)
        try:
            StreamPreprojector(
                tokenize("<site/>"),
                tree,
                BufferTree(),
                aggregate_roles=False,
                matcher=matcher,
            )
        except ValueError as error:
            assert "aggregate_roles" in str(error)
        else:
            raise AssertionError("mismatched matcher was accepted")


#: Each front-end (its run() executes on the calling thread, so the pool
#: starts no executor) and how to read the warm matcher its runs share.
FRONT_ENDS = {
    "QuerySession": (QuerySession, lambda session: session.runtime._matcher),
    "SessionPool": (partial(SessionPool, max_workers=1), lambda pool: pool.matcher),
}


class TestSessionMatcherCap:
    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    def test_bloated_matcher_is_replaced_between_runs(self, monkeypatch, front_end):
        from repro.engine import session as session_module

        # A small cap keeps the adversarial document shallow enough for
        # the evaluator's per-level recursion.
        monkeypatch.setattr(session_module, "MATCHER_STATE_CAP", 64)
        make, matcher_of = FRONT_ENDS[front_end]
        front = make("<out>{for $n in //x//name return $n}</out>")
        first = matcher_of(front)
        # Nested matches of the descendant step intern roughly one DFA
        # state per nesting level: a deep document inflates past the cap.
        depth = 100
        deep = "<site>" + "<x>" * depth + "</x>" * depth + "</site>"
        front.run(deep)
        assert first.state_count > 64
        front.run("<site><name>n</name></site>")
        assert matcher_of(front) is not first
        assert matcher_of(front).state_count <= 64
