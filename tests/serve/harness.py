"""In-process harness for the serving layer's fault and conformance suites.

:class:`ServerFixture` boots a real :class:`~repro.serve.server
.QueryServer` on an ephemeral port inside a background thread running its
own event loop — real sockets, real framing, real backpressure, no
subprocess.  :class:`ScriptClient` is a deliberately *synchronous* client
(plain socket + ``makefile``): scripted sessions read like the protocol
transcript they test, and a blocking read with a timeout doubles as the
deadlock detector.  :class:`FaultyTransport` injects the faults the
server must survive: hard disconnects (RST, not FIN), slow-loris writes,
and truncated frames.

Only the test suites use it, so it lives with them; import it as
``tests.serve.harness`` from the repository root.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import socket
import struct
import threading
import time
from typing import Any, Coroutine, Iterator

from repro.serve.server import QueryServer, ServeConfig

__all__ = ["FaultyTransport", "ScriptClient", "ServerFixture"]


class FaultyTransport:
    """Fault injection on one client socket.

    Wraps the raw socket of a :class:`ScriptClient`; each method is one
    fault from the suite's inventory.  The server must answer every one
    of them with the same postcondition: no leaked checkout, no wedged
    connection slot, the remaining clients unaffected.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def abort(self) -> None:
        """Kill the connection *hard*: RST, not an orderly FIN.

        SO_LINGER with a zero timeout makes ``close()`` discard unsent
        data and send a reset — the closest a test can get to a client
        process dying mid-stream.
        """
        self._sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        self._sock.close()

    def send_slow(
        self, data: bytes, *, chunk_size: int = 1, delay: float = 0.02
    ) -> None:
        """Dribble ``data`` out ``chunk_size`` bytes at a time (slow loris).

        Stops quietly if the server cuts the connection mid-dribble —
        that is the slow-loris defense working, and the test reads the
        verdict (the error frame) from its own side of the socket.
        """
        for start in range(0, len(data), chunk_size):
            try:
                self._sock.sendall(data[start : start + chunk_size])
            except OSError:
                return
            time.sleep(delay)

    def send_truncated(self, data: bytes, *, keep: int) -> None:
        """Send only the first ``keep`` bytes of ``data``, then FIN.

        The server sees a line that ends in EOF instead of a newline — a
        frame cut off mid-flight.
        """
        self._sock.sendall(data[:keep])
        self._sock.shutdown(socket.SHUT_WR)


class ScriptClient:
    """A synchronous scripted client for one server connection."""

    def __init__(self, host: str, port: int, *, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        # TCP_NODELAY keeps scripted request/response latencies honest
        # (Nagle would serialize the one-frame-at-a-time scripts).
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")
        self.faults = FaultyTransport(self.sock)
        #: Per-result-frame arrival offsets (tokens consumed at emit time)
        #: of the most recent :meth:`collect_pass`; see that method.
        self.frame_offsets: list[int | None] = []

    # -- wire ------------------------------------------------------------

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def send_frame(self, frame: dict[str, Any]) -> None:
        self.send_raw(
            (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")
        )

    def recv_frame(self) -> dict[str, Any] | None:
        """The next server frame, or ``None`` on EOF.

        The socket timeout set at connect applies: a server that stops
        answering turns into ``socket.timeout`` here, which is exactly
        how the suites detect a deadlock instead of hanging forever.
        """
        line = self._reader.readline()
        if not line:
            return None
        return json.loads(line)

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self.sock.close()

    def __enter__(self) -> "ScriptClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol helpers -------------------------------------------------

    def register(
        self, alias: str, query: str, *, schema: str | None = None
    ) -> dict[str, Any]:
        frame: dict[str, Any] = {"op": "register", "id": alias, "query": query}
        if schema is not None:
            frame["schema"] = schema  # DTD text, per the frame grammar
        self.send_frame(frame)
        reply = self.recv_frame()
        assert reply is not None, "connection closed during register"
        return reply

    def eval_collect(
        self, alias: str, document: str
    ) -> tuple[list[str], dict[str, Any]]:
        """Evaluate ``document`` and collect the whole pass.

        Returns ``(fragments, final_frame)`` where the final frame is the
        ``done`` on success or the ``error`` that ended the pass.
        """
        self.send_frame({"op": "eval", "id": alias, "doc": document})
        return self.collect_pass()

    def collect_pass(self) -> tuple[list[str], dict[str, Any]]:
        """Collect result frames until the pass settles (done/error).

        The emission-order oracle: each result frame's ``at`` field (input
        tokens consumed when the fragment was emitted) is recorded in
        :attr:`frame_offsets`, parallel to the returned fragments, so
        tests can assert that output left before end-of-document.
        """
        fragments: list[str] = []
        self.frame_offsets: list[int | None] = []
        while True:
            frame = self.recv_frame()
            assert frame is not None, "connection closed mid-pass"
            if frame["type"] == "result":
                fragments.append(frame["fragment"])
                self.frame_offsets.append(frame.get("at"))
                continue
            assert frame["type"] in ("done", "error"), frame
            return fragments, frame

    def upload(self, alias: str, chunks: Iterator[str] | list[str]) -> None:
        """Stream a document as a begin/chunk*/end sequence (no reads)."""
        self.send_frame({"op": "begin", "id": alias})
        for chunk in chunks:
            self.send_frame({"op": "chunk", "data": chunk})
        self.send_frame({"op": "end"})

    def ping(self) -> dict[str, Any]:
        self.send_frame({"op": "ping"})
        reply = self.recv_frame()
        assert reply is not None, "connection closed during ping"
        return reply

    def stats(self) -> dict[str, Any]:
        self.send_frame({"op": "stats"})
        reply = self.recv_frame()
        assert reply is not None, "connection closed during stats"
        assert reply["type"] == "stats", reply
        return reply["stats"]

    def quit(self) -> None:
        self.send_frame({"op": "quit"})


class ServerFixture:
    """A live server on an ephemeral port, inside this process.

    The event loop runs on a daemon thread; the test thread talks to it
    over real sockets (via :meth:`client`) and, for introspection, via
    :meth:`submit`, which schedules a coroutine onto the server loop.
    Use as a context manager::

        with ServerFixture(request_timeout=5.0) as fixture:
            with fixture.client() as client:
                client.register("q", "<r>{/a/b}</r>")
                ...
            fixture.assert_clean()
    """

    def __init__(self, **config_overrides: Any) -> None:
        config_overrides.setdefault("port", 0)
        self.config = ServeConfig(**config_overrides)
        self.server = QueryServer(self.config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="gcx-serve-fixture", daemon=True
        )
        self._started = threading.Event()
        self._stopped = False

    # -- lifecycle ------------------------------------------------------

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self.server.start())
        self._started.set()
        self._loop.run_forever()
        # run_forever returned: drain any callbacks scheduled during stop.
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()

    def start(self) -> "ServerFixture":
        self._thread.start()
        if not self._started.wait(10.0):  # pragma: no cover - start failure
            raise RuntimeError("server fixture failed to start within 10s")
        return self

    def stop(self, *, drain_timeout: float | None = None) -> None:
        """Gracefully drain the server and stop the loop thread."""
        if self._stopped:
            return
        self._stopped = True
        try:
            self.submit(self.server.shutdown(drain_timeout)).result(30.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)

    def __enter__(self) -> "ServerFixture":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- access ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def submit(self, coro: Coroutine) -> "concurrent.futures.Future":
        """Schedule ``coro`` on the server's loop; returns its future."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def client(self, *, timeout: float = 10.0) -> ScriptClient:
        return ScriptClient(self.host, self.port, timeout=timeout)

    # -- invariants ------------------------------------------------------

    def outstanding_checkouts(self) -> int:
        """Buffer checkouts currently held across all standing queries."""
        return self.server.outstanding_checkouts()

    def active_runs(self) -> int:
        return sum(pool.stats.active_runs for pool in self.server.pools())

    def assert_clean(self, *, timeout: float = 5.0) -> None:
        """Assert the RunOwner invariant: every checkout was released.

        Polls because release is asynchronous to the client's last read:
        a disconnected pass unwinds on an evaluator thread after the
        socket is gone.  Converges in milliseconds; ``timeout`` is the
        deadlock verdict.
        """
        deadline = time.monotonic() + timeout
        while True:
            checkouts = self.outstanding_checkouts()
            active = self.active_runs()
            if checkouts == 0 and active == 0:
                return
            if time.monotonic() > deadline:
                raise AssertionError(
                    f"pool not clean after {timeout}s: "
                    f"{checkouts} outstanding checkout(s), "
                    f"{active} active run(s)"
                )
            time.sleep(0.01)
