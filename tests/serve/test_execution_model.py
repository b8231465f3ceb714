"""The two pass drivers: one frame producer, the same wire either way.

docs/SERVING.md, "Execution model": a document of at most
``INLINE_PASS_BYTES`` is evaluated on the event loop, a larger one on an
evaluation thread, and the only thing allowed to differ is *who pulls the
frame producer*.  This suite pins that: identical frames from both
drivers, backpressure on the inline route (writes stop while ``drain()``
is pending), a free loop above the cap, PR 21's counter identity for the
now-guided serve pass, and the same typed error for malformed input as
in process.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.engine.pool import SessionPool
from repro.serve.server import INLINE_PASS_BYTES, _EvalBridge, _pass_frames
from tests.serve.harness import ServerFixture
from repro.xmlio.lexer import XMLSyntaxError, tokenize

from tests.serve.test_faults import (
    AMPLIFIED,
    PADDED,
    QUERY,
    ROUTES,
    sized_document,
    stalled_client,
    wait_until,
)
from tests.xmlio import test_guided_lexer as guided_corpus

routes = pytest.mark.parametrize("route", ROUTES)


def comparable(frames: list[bytes]) -> list[dict]:
    """Decoded frames without the one field that is a wall-clock reading."""
    decoded = [json.loads(frame) for frame in frames]
    assert decoded[-1]["type"] == "done"
    del decoded[-1]["elapsed_ms"]
    return decoded


async def pumped_frames(pool: SessionPool, document: bytes) -> list[bytes]:
    """The thread driver by hand: a thread pumps, this coroutine takes."""
    loop = asyncio.get_running_loop()
    bridge = _EvalBridge(loop, 4)
    frames = _pass_frames(
        pool, "q", document, time.perf_counter(), bridge.check_cancelled
    )
    pump = loop.run_in_executor(None, bridge.pump, frames)
    taken = []
    while (item := await bridge.queue.get()) is not None:
        assert isinstance(item, bytes), item
        taken.append(item)
    await pump
    return taken


class TestOneFrameProducer:
    @pytest.mark.parametrize(
        "document",
        [
            "<a><b><c>1</c></b><x>dead</x><b><c>2</c></b></a>",
            sized_document("inline", PADDED),
            sized_document("threaded", PADDED),
        ],
        ids=["tiny", "at-the-cap", "over-the-cap"],
    )
    def test_both_drivers_forward_byte_identical_frames(self, document):
        data = document.encode("utf-8")
        with SessionPool(QUERY) as pool:
            pulled = list(_pass_frames(pool, "q", data, time.perf_counter()))
            pumped = asyncio.run(pumped_frames(pool, data))
            assert comparable(pumped) == comparable(pulled)
            assert [json.loads(f)["seq"] for f in pulled[:-1]] == list(
                range(1, len(pulled))
            )
            assert pool.stats.outstanding_checkouts == 0
            assert pool.stats.active_runs == 0

    def test_closing_the_producer_early_settles_the_checkout(self):
        with SessionPool(QUERY) as pool:
            frames = _pass_frames(
                pool, "q", sized_document("inline").encode(), time.perf_counter()
            )
            assert json.loads(next(frames))["type"] == "result"
            assert pool.stats.active_runs == 1
            frames.close()
            assert pool.stats.outstanding_checkouts == 0
            assert pool.stats.active_runs == 0


class TestInlineBackpressure:
    def test_a_slow_reader_stalls_the_pass_not_the_buffer(self):
        """Inline, ``drain()`` is the suspension point: while it is
        pending nothing is pulled from the producer and nothing is
        written, so the transport holds its high-water mark plus the one
        frame that crossed it — not the megabytes the pass will produce."""
        document = sized_document("inline", "<b/>")
        with ServerFixture() as fixture:
            stats = fixture.server.stats

            async def write_buffer() -> tuple[int, int]:
                (conn,) = fixture.server._connections
                transport = conn.writer.transport
                _low, high = transport.get_write_buffer_limits()
                return transport.get_write_buffer_size(), high

            with stalled_client(fixture) as client:
                client.register("q", AMPLIFIED)
                client.send_frame({"op": "eval", "id": "q", "doc": document})
                wait_until(lambda: stats.frames_out > 10)

                def stalled() -> bool:
                    before = stats.frames_out
                    time.sleep(0.05)
                    return stats.frames_out == before

                wait_until(stalled)
                assert fixture.active_runs() == 1  # suspended, not finished
                written_while_stalled = stats.bytes_out
                buffered, high_water = fixture.submit(write_buffer()).result(5.0)
                assert buffered > 0  # the transport really is backed up
                assert buffered <= high_water + 2_048  # + the crossing frame
                fragments, done = client.collect_pass()
                assert done["type"] == "done", done
                assert done["fragments"] == len(fragments)
                # Most of the output was produced only once we read.
                assert stats.bytes_out > 2 * written_while_stalled
            wait_until(lambda: stats.passes_inline == 1)
            assert stats.passes_threaded == 0
            fixture.assert_clean()


class TestTheLoopStaysFreeAboveTheCap:
    def test_ping_is_answered_while_a_multi_megabyte_pass_runs(self):
        """A pass over the cap runs on an evaluation thread, so a second
        connection is served while it is still in flight."""
        # Every <b> is live and nothing matches: seconds of scanning and
        # no output until the closing tag.
        chunk = "<b><c>some text</c><d>more text</d></b>" * 8_000
        assert len(chunk) * 8 > 2_000_000
        with ServerFixture(request_timeout=120.0) as fixture:
            with fixture.client(timeout=120.0) as big, fixture.client() as small:
                big.register("q", "<out>{ for $x in /a/b/zzz return $x }</out>")
                big.upload("q", ["<a>"] + [chunk] * 8 + ["</a>"])
                wait_until(lambda: fixture.active_runs() == 1)
                asked = time.perf_counter()
                assert small.ping() == {"type": "pong"}
                answered = time.perf_counter() - asked
                assert fixture.active_runs() == 1  # still in flight
                fragments, done = big.collect_pass()
                assert done["type"] == "done", done
                assert "".join(fragments) == "<out/>"
                assert done["elapsed_ms"] > answered * 1_000.0
            stats = fixture.server.stats
            # The done frame leaves before the pass is booked.
            wait_until(lambda: stats.passes_threaded == 1)
            assert stats.passes_inline == 0
            fixture.assert_clean()


class TestGuidedServePass:
    """The server hands the pool bytes, so its pass scans under the lazy
    DFA like every other byte-reading front-end (PR 21)."""

    @routes
    def test_done_frame_counters_equal_the_unguided_pass(self, route):
        document = sized_document(route, PADDED)
        with SessionPool(QUERY) as pool:
            unguided = pool.run(tokenize(document)).stats
            guided = pool.run(document.encode("utf-8")).stats
        assert unguided.tokens_skipped == 0 < guided.tokens_skipped
        # ``$x/c`` is a copy site: the guided pass buffers each <c> whole,
        # so its buffer figures are its own; what it read is not.
        assert unguided.tokens_copied == 0 < guided.tokens_copied
        assert guided.tokens_read == unguided.tokens_read
        with ServerFixture() as fixture:
            with fixture.client() as client:
                client.register("q", QUERY)
                _fragments, done = client.eval_collect("q", document)
            assert done["type"] == "done", done
            assert done["tokens_read"] == unguided.tokens_read
            assert done["hwm_bytes"] == guided.hwm_bytes_modelled
            assert done["hwm_nodes"] == guided.hwm_nodes
            fixture.assert_clean()

    @pytest.mark.parametrize(
        "bad", guided_corpus.TestErrorsInsideDeadSubtrees.MALFORMED, ids=repr
    )
    def test_malformed_input_fails_as_it_does_in_process(self, served, bad):
        """Every byte is still validated: a defect inside a subtree the
        scan skips is the same ``document-error`` the unguided lexer
        raises, message and offset included."""
        with pytest.raises(XMLSyntaxError) as in_process:
            list(tokenize(bad))
        fixture, client = served
        _fragments, final = client.eval_collect("child", bad)
        assert final["type"] == "error"
        assert final["code"] == "document-error"
        assert final["message"] == f"XMLSyntaxError: {in_process.value}"
        fixture.assert_clean()

    @pytest.fixture(scope="class")
    def served(self):
        with ServerFixture() as fixture:
            with fixture.client() as client:
                client.register("child", guided_corpus.SMALL_QUERIES["child"])
                yield fixture, client


def test_the_cap_is_a_constant_not_a_setting():
    from repro.serve import ServeConfig

    assert isinstance(INLINE_PASS_BYTES, int) and INLINE_PASS_BYTES > 0
    assert not any("inline" in name for name in ServeConfig.__dataclass_fields__)
