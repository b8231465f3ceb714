"""The shared-stream dispatcher: routing, parking, retiring, one scan."""

from __future__ import annotations

import pytest

from repro.analysis import compile_query
from repro.buffer.buffer import BufferTree
from repro.engine.evaluator import Evaluator
from repro.stream.preprojector import ProjectionLane, StreamPreprojector
from repro.stream.shared import SharedPreprojector
from repro.xmlio.lexer import tokenize
from repro.xmlio.serialize import serialize_tokens

DOC = (
    "<r>"
    "<a><x>keep-a</x><noise><deep>skip</deep></noise></a>"
    "<b><y>keep-b</y></b>"
    "<c>plain</c>"
    "</r>"
)


def lane_for(query: str) -> ProjectionLane:
    tree = compile_query(query).projection_tree
    return ProjectionLane(tree, BufferTree())


def shared_over(document: str, *queries: str) -> SharedPreprojector:
    lanes = [lane_for(query) for query in queries]
    return SharedPreprojector(tokenize(document), lanes)


QUERY_A = "<o>{for $a in /r/a return $a/x}</o>"
QUERY_B = "<o>{for $b in /r/b return $b/y}</o>"


class TestSingleScan:
    def test_token_count_is_one_document_scan(self):
        shared = shared_over(DOC, QUERY_A, QUERY_B)
        shared.run_to_completion()
        assert shared.tokens_read == sum(1 for _token in tokenize(DOC))
        assert shared.exhausted
        for lane in shared.lanes:
            assert lane.buffer.document.finished
            assert lane.depth == 0

    def test_single_lane_equals_plain_preprojector(self):
        """The N=1 case: same buffered shape as StreamPreprojector."""
        shared = shared_over(DOC, QUERY_A)
        shared.run_to_completion()
        tree = compile_query(QUERY_A).projection_tree
        solo = StreamPreprojector(tokenize(DOC), tree, BufferTree())
        solo.run_to_completion()
        assert (
            shared.lanes[0].buffer.format_contents()
            == solo.buffer.format_contents()
        )


class TestRouting:
    def test_lanes_receive_only_their_regions(self):
        shared = shared_over(DOC, QUERY_A, QUERY_B)
        shared.run_to_completion()
        a_tokens = shared.lanes[0].buffer.stats.tokens_read
        b_tokens = shared.lanes[1].buffer.stats.tokens_read
        # Each lane is withheld the other's subtree (and <c>'s), so both
        # see proper subsets of the scan.
        assert a_tokens < shared.tokens_read
        assert b_tokens < shared.tokens_read
        # Lane A must also skip the irrelevant <noise> subtree inside <a>.
        solo_tokens = sum(1 for _token in tokenize(DOC))
        assert a_tokens < solo_tokens

    def test_parked_lane_reactivates_after_its_subtree(self):
        shared = shared_over(DOC, QUERY_A, QUERY_B)
        parked_seen = False
        while shared.pull():
            if shared.parked_count:
                parked_seen = True
        assert parked_seen
        assert shared.parked_count == 0  # all parks unwound by stream end
        assert shared.active_mask == 0b11

    def test_routing_preserves_buffered_content(self):
        """Withheld tokens must be exactly the ones projection drops."""
        for query in (QUERY_A, QUERY_B):
            shared = shared_over(DOC, QUERY_A, QUERY_B)
            shared.run_to_completion()
            tree = compile_query(query).projection_tree
            solo = StreamPreprojector(
                tokenize(DOC), tree, BufferTree()
            )
            solo.run_to_completion()
            index = 0 if query is QUERY_A else 1
            assert (
                shared.lanes[index].buffer.format_contents()
                == solo.buffer.format_contents()
            )


class TestRetire:
    def test_retired_lane_stops_receiving_tokens(self):
        shared = shared_over(DOC, QUERY_A, QUERY_B)
        for _count in range(3):
            shared.pull()
        before = shared.lanes[0].buffer.stats.tokens_read
        shared.retire(0)
        shared.run_to_completion()
        assert shared.lanes[0].buffer.stats.tokens_read == before
        # No stream-end bookkeeping for the retired lane.
        assert not shared.lanes[0].buffer.document.finished
        assert shared.lanes[1].buffer.document.finished

    def test_retire_while_parked_skips_the_reactivation(self):
        shared = shared_over(DOC, QUERY_A, QUERY_B)
        # Drive until lane B parks (inside <a>'s subtree), then retire it.
        while shared.pull():
            if not shared.active_mask & 0b10:
                break
        assert shared.parked_count >= 1
        shared.retire(1)
        before = shared.lanes[1].buffer.stats.tokens_read
        shared.run_to_completion()
        assert shared.lanes[1].buffer.stats.tokens_read == before
        assert not shared.active_mask & 0b10


class TestConstruction:
    def test_empty_lane_list_is_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            SharedPreprojector(tokenize(DOC), [])


class TestMemberEvaluators:
    def test_a_pull_through_any_member_feeds_every_active_lane(self):
        compiled = [compile_query(query) for query in (QUERY_A, QUERY_B)]
        lanes = [ProjectionLane(c.projection_tree, BufferTree()) for c in compiled]
        shared = SharedPreprojector(tokenize(DOC), lanes)
        evaluator_a, evaluator_b = (
            Evaluator(c.rewritten, lane.buffer, shared.pull)
            for c, lane in zip(compiled, lanes)
        )
        # B's demand alone drives the scan to its end...
        assert serialize_tokens(evaluator_b.iter_tokens()) == "<o><y>keep-b</y></o>"
        assert shared.exhausted
        # ...and every active lane was fed on the way: A's answer is
        # already buffered, so producing it reads nothing more.
        assert lanes[0].buffer.document.finished
        read = shared.tokens_read
        assert serialize_tokens(evaluator_a.iter_tokens()) == "<o><x>keep-a</x></o>"
        assert shared.tokens_read == read
