"""Fault injection: every abort path releases its checkout exactly once.

Each test injects one fault from the inventory — hard disconnects (RST)
mid-stream and mid-upload, malformed XML mid-document, a query that does
not compile, oversized documents (inline and chunked), truncated and
over-limit frames, a slow-loris writer, a request timeout, and a drain
with a pass in flight — and then asserts the same postcondition through
:meth:`ServerFixture.assert_clean`: the standing queries' pools report
zero outstanding checkouts and zero active runs (the RunOwner invariant),
and wherever the fault is non-fatal, the connection is still serving.

The server has two pass drivers (docs/SERVING.md, "Execution model"): a
document of at most ``INLINE_PASS_BYTES`` is evaluated on the event loop,
a larger one on an evaluation thread.  Every fault that involves a pass
runs once per route — ``sized_document(route)`` — and must end the same
way on both.
"""

from __future__ import annotations

import json
import logging
import socket
import time

import pytest

from repro.serve.server import INLINE_PASS_BYTES
from tests.serve.harness import ServerFixture

QUERY = "<out>{ for $x in /a/b return <hit>{ $x/c }</hit> }</out>"

#: A constant 1 KB per match: a document under the inline cap answers
#: with megabytes, enough to fill the socket buffers of a
#: :func:`stalled_client` and put its pass into ``drain()``.
AMPLIFIED = "<out>{ for $x in /a/b return <hit>" + "pad " * 256 + "</hit> }</out>"

#: A match with dead weight: documents of either size yield hundreds of
#: result frames, not thousands.
PADDED = "<b><c>v</c><skip>" + "x" * 64 + "</skip></b>"

ROUTES = ("inline", "threaded")
routes = pytest.mark.parametrize("route", ROUTES)


def make_document(matches: int) -> str:
    """A document with ``matches`` hits -> ~4x that many result frames."""
    body = "".join(f"<b><c>v{i}</c></b>" for i in range(matches))
    return f"<a>{body}</a>"


def sized_document(route: str, unit: str = "<b><c>v</c></b>") -> str:
    """A many-match document that takes ``route``: one just under
    ``INLINE_PASS_BYTES``, or one a quarter over it."""
    fitting = (INLINE_PASS_BYTES - len("<a></a>")) // len(unit)
    matches = fitting if route == "inline" else fitting + fitting // 4
    document = f"<a>{unit * matches}</a>"
    assert (len(document) <= INLINE_PASS_BYTES) == (route == "inline")
    return document


def passes_by_route(fixture) -> dict[str, int]:
    stats = fixture.server.stats
    return {"inline": stats.passes_inline, "threaded": stats.passes_threaded}


def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def stalled_client(fixture, timeout: float = 30.0):
    """A client whose pass backs up into the server's transport.

    The kernel would happily hold megabytes between a writer and a reader
    that is not reading (both socket buffers autotune).  Pinning the
    client's receive buffer and the accepted socket's send buffer keeps
    that to a few hundred KB, so an amplified pass reaches the
    transport's high-water mark — where ``drain()`` suspends it — soon.
    """
    client = fixture.client(timeout=timeout)
    client.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 128 * 1024)
    address = client.sock.getsockname()

    async def pin_send_buffer() -> bool:
        for conn in fixture.server._connections:
            if conn.writer.get_extra_info("peername") == address:
                conn.writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 16 * 1024
                )
                return True
        return False  # not accepted yet

    wait_until(lambda: fixture.submit(pin_send_buffer()).result(5.0))
    return client


@pytest.fixture(scope="module")
def fixture():
    with ServerFixture(eval_workers=2, bridge_depth=4) as fixture:
        yield fixture


class TestDisconnectFaults:
    @routes
    def test_client_disconnect_mid_result_stream(self, fixture, route):
        """An RST while fragments are in flight kills the pass, not the
        server; the abandoned run's checkout is discarded, not leaked.
        The amplified output outgrows the socket buffers, so the pass is
        genuinely suspended mid-stream on either route when the RST
        lands."""
        before = passes_by_route(fixture)
        failed = fixture.server.stats.docs_failed
        with stalled_client(fixture) as client:
            client.register("q", AMPLIFIED)
            client.send_frame(
                {"op": "eval", "id": "q", "doc": sized_document(route, "<b/>")}
            )
            first = client.recv_frame()
            assert first["type"] == "result"  # the pass is mid-stream
            client.faults.abort()
        fixture.assert_clean()
        assert passes_by_route(fixture)[route] == before[route] + 1
        assert fixture.server.stats.docs_failed == failed + 1
        with fixture.client() as client:  # the server took no damage
            assert client.ping() == {"type": "pong"}

    def test_client_disconnect_mid_chunked_upload(self, fixture):
        with fixture.client() as client:
            client.register("q", QUERY)
            client.send_frame({"op": "begin", "id": "q"})
            client.send_frame({"op": "chunk", "data": "<a><b><c>1"})
            client.faults.abort()
        fixture.assert_clean()

    @routes
    def test_truncated_frame_then_eof(self, fixture, route):
        """A frame cut off mid-line (EOF, no newline) closes quietly,
        whichever route its document would have taken."""
        line = json.dumps(
            {"op": "eval", "id": "q", "doc": sized_document(route)}
        ).encode("ascii")
        with fixture.client() as client:
            client.register("q", QUERY)
            client.faults.send_truncated(line + b"\n", keep=len(line) - 10)
            assert client.recv_frame() is None  # server closed, no reply
        fixture.assert_clean()


class TestBadInputFaults:
    @routes
    def test_malformed_xml_mid_document_is_survivable(self, fixture, route):
        before = passes_by_route(fixture)
        with fixture.client() as client:
            client.register("q", QUERY)
            # Cut the document off inside its last match.
            fragments, final = client.eval_collect(
                "q", sized_document(route)[: -len("</c></b></a>")]
            )
            assert fragments  # the defect sits behind real output
            assert final["type"] == "error"
            assert final["code"] == "document-error"
            assert final["fatal"] is False
            assert passes_by_route(fixture)[route] == before[route] + 1
            # The connection survives and the next pass is correct.
            assert client.ping() == {"type": "pong"}
            fragments, final = client.eval_collect("q", make_document(2))
            assert final["type"] == "done"
            assert "".join(fragments) == (
                "<out><hit><c>v0</c></hit><hit><c>v1</c></hit></out>"
            )
        fixture.assert_clean()

    def test_query_compile_error_is_survivable(self, fixture):
        with fixture.client() as client:
            client.send_frame(
                {"op": "register", "id": "bad", "query": "for $x in ((("}
            )
            reply = client.recv_frame()
            assert reply["type"] == "error"
            assert reply["code"] == "query-error"
            assert reply["fatal"] is False
            # A failed registration leaves no standing query behind.
            client.send_frame({"op": "eval", "id": "bad", "doc": "<a/>"})
            assert client.recv_frame()["code"] == "unknown-query"
            assert client.register("good", QUERY)["type"] == "registered"
        fixture.assert_clean()

    def test_garbage_frame_is_survivable(self, fixture):
        with fixture.client() as client:
            client.send_raw(b"this is not json\n")
            reply = client.recv_frame()
            assert reply["type"] == "error"
            assert reply["code"] == "bad-frame"
            assert client.ping() == {"type": "pong"}
        fixture.assert_clean()


class TestUnencodablePayloads:
    """JSON can spell a lone surrogate; UTF-8 (and XML) cannot carry one."""

    def test_lone_surrogate_in_eval_doc_is_survivable(self, fixture):
        with fixture.client() as client:
            client.register("q", QUERY)
            client.send_raw(b'{"op":"eval","id":"q","doc":"<a>\\ud800</a>"}\n')
            reply = client.recv_frame()
            assert reply["type"] == "error"
            assert reply["code"] == "bad-field"
            assert reply["fatal"] is False
            assert "'doc'" in reply["message"]
            assert client.ping() == {"type": "pong"}
            _fragments, final = client.eval_collect("q", make_document(1))
            assert final["type"] == "done"
        fixture.assert_clean()

    def test_surrogate_pair_split_across_chunks_resets_the_upload(self, fixture):
        """An escaped pair cut between two chunks arrives as two lone
        surrogates: refused at the first, and the upload is over."""
        with fixture.client() as client:
            client.register("q", QUERY)
            client.send_frame({"op": "begin", "id": "q"})
            client.send_raw(b'{"op":"chunk","data":"<a><b><c>\\ud83d"}\n')
            reply = client.recv_frame()
            assert reply["type"] == "error"
            assert reply["code"] == "bad-field"
            assert reply["fatal"] is False
            assert "'data'" in reply["message"]
            client.send_raw(b'{"op":"chunk","data":"\\ude00</c></b></a>"}\n')
            assert client.recv_frame()["code"] == "protocol-state"
            assert client.ping() == {"type": "pong"}
        fixture.assert_clean()


class TestFailuresAreTypedAndLogged:
    """No exception leaves the frame loop untyped; each leaves a
    ``repro.serve`` log record naming the connection and the op."""

    @staticmethod
    def serve_records(caplog) -> list[logging.LogRecord]:
        return [r for r in caplog.records if r.name == "repro.serve"]

    def test_the_logger_is_silent_unless_configured(self):
        handlers = logging.getLogger("repro.serve").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_unexpected_exception_in_an_op_is_internal_error(
        self, fixture, caplog, monkeypatch
    ):
        def on_fire(*args, **kwargs):
            raise RuntimeError("registry on fire")

        monkeypatch.setattr(fixture.server, "get_pool", on_fire)
        with caplog.at_level(logging.ERROR, logger="repro.serve"):
            with fixture.client() as client:
                client.send_frame({"op": "register", "id": "q", "query": QUERY})
                assert client.recv_frame() == {
                    "type": "error",
                    "code": "internal-error",
                    "message": "RuntimeError: registry on fire",
                    "fatal": False,
                }
                assert client.ping() == {"type": "pong"}
        (record,) = self.serve_records(caplog)
        assert record.levelno == logging.ERROR
        assert "connection " in record.getMessage()
        assert "op 'register'" in record.getMessage()
        assert record.exc_info[0] is RuntimeError
        fixture.assert_clean()

    @routes
    def test_malformed_document_is_logged_as_a_warning(
        self, fixture, caplog, route
    ):
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            with fixture.client() as client:
                client.register("logged", QUERY)
                _fragments, final = client.eval_collect(
                    "logged", sized_document(route, PADDED)[:-20]
                )
                assert final["code"] == "document-error"
        (record,) = self.serve_records(caplog)
        assert record.levelno == logging.WARNING
        assert "eval 'logged' failed: XMLSyntaxError" in record.getMessage()
        fixture.assert_clean()

    @routes
    def test_engine_failure_is_internal_error_and_logged(
        self, fixture, caplog, monkeypatch, route
    ):
        with fixture.client() as client:
            client.register("q", QUERY)
            (pool, _cached) = fixture.server.get_pool(QUERY)

            def broken(*args, **kwargs):
                raise ZeroDivisionError("engine bug")

            monkeypatch.setattr(pool, "run_streaming", broken)
            with caplog.at_level(logging.ERROR, logger="repro.serve"):
                _fragments, final = client.eval_collect(
                    "q", sized_document(route, PADDED)
                )
            assert final["code"] == "internal-error"
            assert final["message"] == "ZeroDivisionError: engine bug"
            assert final["fatal"] is False
            assert client.ping() == {"type": "pong"}
        (record,) = self.serve_records(caplog)
        assert record.levelno == logging.ERROR
        assert "eval 'q' failed" in record.getMessage()
        assert record.exc_info[0] is ZeroDivisionError
        fixture.assert_clean()


class TestSizeLimits:
    def test_oversized_inline_document_rejected(self):
        with ServerFixture(max_document_bytes=2_000) as fixture:
            with fixture.client() as client:
                client.register("q", QUERY)
                client.send_frame(
                    {"op": "eval", "id": "q", "doc": make_document(500)}
                )
                reply = client.recv_frame()
                assert reply["type"] == "error"
                assert reply["code"] == "too-large"
                assert reply["fatal"] is False
                # Small documents still go through afterwards.
                _fragments, final = client.eval_collect("q", make_document(1))
                assert final["type"] == "done"
            fixture.assert_clean()

    def test_oversized_chunked_upload_rejected_mid_stream(self):
        """The limit trips at the chunk that crosses it, not at end."""
        with ServerFixture(max_document_bytes=200) as fixture:
            with fixture.client() as client:
                client.register("q", QUERY)
                client.send_frame({"op": "begin", "id": "q"})
                chunk = "<b><c>x</c></b>" * 10  # 150 B
                client.send_frame({"op": "chunk", "data": chunk})
                client.send_frame({"op": "chunk", "data": chunk})  # crosses
                reply = client.recv_frame()
                assert reply["code"] == "too-large"
                # The upload state was reset: 'end' is now out of place.
                client.send_frame({"op": "end"})
                assert client.recv_frame()["code"] == "protocol-state"
                assert client.ping() == {"type": "pong"}
            fixture.assert_clean()

    def test_over_limit_frame_is_fatal(self):
        """Blowing the line limit loses framing for good: error + close."""
        with ServerFixture(max_frame_bytes=1_024) as fixture:
            with fixture.client() as client:
                client.send_raw(b'{"op": "ping", "pad": "' + b"x" * 4_096)
                reply = client.recv_frame()
                assert reply["type"] == "error"
                assert reply["code"] == "frame-too-large"
                assert reply["fatal"] is True
                assert client.recv_frame() is None  # server closed
            fixture.assert_clean()


class TestSlowClients:
    def test_slow_loris_completes_without_idle_timeout(self, fixture):
        with fixture.client() as client:
            client.faults.send_slow(b'{"op": "ping"}\n', delay=0.01)
            assert client.recv_frame() == {"type": "pong"}
        fixture.assert_clean()

    def test_idle_timeout_cuts_the_dribbler_not_the_neighbour(self):
        with ServerFixture(idle_timeout=0.3) as fixture:
            with fixture.client() as loris, fixture.client() as honest:
                honest.register("q", QUERY)
                # > 0.3 s to finish the line at 1 B / 25 ms.
                loris.faults.send_slow(
                    b'{"op": "ping"}\n'[:14], chunk_size=1, delay=0.025
                )
                reply = loris.recv_frame()
                assert reply["type"] == "error"
                assert reply["code"] == "idle-timeout"
                assert loris.recv_frame() is None
                # The honest neighbour was never disturbed.
                _fragments, final = honest.eval_collect("q", make_document(2))
                assert final["type"] == "done"
            fixture.assert_clean()

    @pytest.mark.parametrize(
        "document",
        [make_document(50), sized_document("inline"), sized_document("threaded")],
        ids=["900-bytes", "inline", "threaded"],
    )
    def test_request_timeout_aborts_the_pass_and_survives(self, document):
        """A zero budget times out deterministically before any output;
        the cancelled pass discards its checkout through the guard."""
        with ServerFixture(request_timeout=0.0) as fixture:
            with fixture.client() as client:
                client.register("q", QUERY)
                client.send_frame({"op": "eval", "id": "q", "doc": document})
                reply = client.recv_frame()
                assert reply["type"] == "error"
                assert reply["code"] == "timeout"
                assert reply["fatal"] is False
                assert client.ping() == {"type": "pong"}
            fixture.assert_clean()

    @routes
    def test_a_reader_that_stops_reading_times_the_pass_out(self, route):
        """The budget also bounds ``drain()``: a client that stops reading
        mid-pass gets ``timeout``, and the checkout comes back."""
        with ServerFixture(request_timeout=0.5, bridge_depth=4) as fixture:
            with stalled_client(fixture) as client:
                client.register("q", AMPLIFIED)
                client.send_frame(
                    {"op": "eval", "id": "q", "doc": sized_document(route, "<b/>")}
                )
                # Not reading: the pass stalls in drain() until its
                # budget is gone, and is settled without our help.
                wait_until(lambda: fixture.server.stats.docs_failed == 1)
                fixture.assert_clean()
                fragments, final = client.collect_pass()
                assert fragments  # output had left before the stall
                assert final["code"] == "timeout"
                assert final["fatal"] is False
                assert client.ping() == {"type": "pong"}
            fixture.assert_clean()


class TestDrain:
    @routes
    def test_drain_with_pass_in_flight_finishes_it(self, route):
        fixture = ServerFixture(eval_workers=2, bridge_depth=4)
        fixture.start()
        try:
            with stalled_client(fixture) as client:
                client.register("q", AMPLIFIED)
                client.send_frame(
                    {"op": "eval", "id": "q", "doc": sized_document(route, "<b/>")}
                )
                assert client.recv_frame()["type"] == "result"  # in flight
                assert fixture.active_runs() == 1
                shutdown = fixture.submit(fixture.server.shutdown())
                fragments, final = client.collect_pass()
                assert final["type"] == "done"  # the pass was NOT cut off
                # +1: the first result frame was read before collect_pass.
                assert len(fragments) + 1 == final["fragments"]
                # After the pass, the drain says goodbye instead of
                # reading further frames.
                assert client.recv_frame() == {
                    "type": "bye",
                    "reason": "draining",
                }
                assert client.recv_frame() is None
                shutdown.result(timeout=20.0)
            assert fixture.outstanding_checkouts() == 0
            assert fixture.active_runs() == 0
            # Every standing pool was closed with SessionPool.close().
            for pool in fixture.server.pools():
                assert pool._closed
        finally:
            fixture.stop()

    def test_drain_wakes_idle_connections(self):
        fixture = ServerFixture()
        fixture.start()
        try:
            with fixture.client() as client:
                assert client.ping() == {"type": "pong"}
                shutdown = fixture.submit(fixture.server.shutdown())
                # No frame sent: the drain event alone must wake the
                # blocked read and say goodbye.
                assert client.recv_frame() == {
                    "type": "bye",
                    "reason": "draining",
                }
                assert client.recv_frame() is None
                shutdown.result(timeout=20.0)
        finally:
            fixture.stop()


class TestCheckoutAccountingUnderFaultStorm:
    @routes
    def test_repeated_mixed_faults_never_accumulate_checkouts(
        self, fixture, route
    ):
        """A storm of interleaved good passes and faults ends clean."""
        document = sized_document(route, PADDED)
        before = passes_by_route(fixture)
        failed = fixture.server.stats.docs_failed
        for round_number in range(5):
            with fixture.client() as client:
                client.register("q", QUERY)
                _fragments, final = client.eval_collect("q", document)
                assert final["type"] == "done"
                _fragments, final = client.eval_collect("q", document[:-20])
                assert final["code"] == "document-error"
                client.send_frame({"op": "eval", "id": "q", "doc": document})
                assert client.recv_frame()["type"] == "result"
                client.faults.abort()
            fixture.assert_clean()
        assert passes_by_route(fixture)[route] == before[route] + 15
        assert fixture.server.stats.docs_failed >= failed + 5
