"""The asyncio streaming query server behind ``gcx serve``.

One :class:`QueryServer` owns a registry of *standing queries*: each
distinct query text (keyed by its whitespace-normalized form) gets one
:class:`~repro.engine.pool.SessionPool`, compiled exactly once and shared
by every connection that registers it.  The engine is a synchronous
generator over an in-memory document; one frame producer
(:func:`_pass_frames`) turns a pass into encoded ``result`` frames and a
final ``done`` frame, and the document's size decides who pulls it
(:data:`INLINE_PASS_BYTES`): the connection coroutine itself, on the
event loop — no thread, no queue, a serve op costs what the engine costs
— or, for a larger document, an evaluation thread whose frames cross a
bounded queue back onto the loop (a pull pipeline cannot yield
mid-token, and one big upload must not stall every other connection).
Either way the paper's incremental-output property survives the network
hop: the first result frame leaves the socket while the document is
still being consumed.

Backpressure holds end to end, in both directions:

* *client -> server*: a connection handles one frame at a time and does
  not read from its socket while a pass is in flight, so TCP flow
  control pushes back on a fast producer; the stream reader's byte limit
  (``max_frame_bytes``) bounds what one unfinished line can buffer.
* *engine -> client*: every pass frame is followed by ``await
  writer.drain()``.  Inline, that await *is* the suspension point: while
  the client is behind, the producer is not pulled.  Threaded, the
  coroutine stops taking from the bridge queue, the queue fills, and the
  evaluator thread blocks on its next frame.  The pass advances at the
  pace of the slowest consumer instead of buffering the result.

Faults are structured, not fatal: malformed XML, a query that fails to
compile, an oversized document, or a per-request timeout each produce an
``error`` frame and leave the connection serving; an exception nobody
foresaw becomes ``internal-error`` and a ``repro.serve`` log record.
Every abort path closes the frame producer, whose ``finally`` runs
:class:`~repro.engine.session.StreamingRun`'s release guard, so a pass
that dies — disconnect, timeout, poison document — returns its buffer
checkout to the pool exactly once (the invariant the fault-injection
suite asserts).

Shutdown is a graceful drain: stop accepting, let in-flight passes
finish (bounded by ``drain_timeout``), tell idle connections ``bye``,
then close every pool — reusing ``SessionPool.close()`` semantics — and
verify nothing is left checked out via ``SessionPool.wait_idle``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import itertools
import logging
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator

import hashlib

from repro.analysis.schema import Schema
from repro.engine.pool import SessionPool
from repro.serve.protocol import (
    E_BAD_FIELD,
    E_DOCUMENT,
    E_DRAINING,
    E_FRAME_TOO_LARGE,
    E_IDLE_TIMEOUT,
    E_INTERNAL,
    E_QUERY,
    E_STATE,
    E_TIMEOUT,
    E_TOO_LARGE,
    E_UNKNOWN_QUERY,
    MAX_DOCUMENT_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_client_frame,
    encode_frame,
)
from repro.serve.stats import ServerStats
from repro.xmlio.lexer import XMLSyntaxError

__all__ = [
    "INLINE_PASS_BYTES",
    "ServeConfig",
    "QueryServer",
    "normalize_query_key",
    "run_server",
]

#: Failure-path records (connection id, op, exception).  Silent unless the
#: embedder configures logging: without a handler of its own, stdlib
#: logging would print WARNING and above to stderr.
_log = logging.getLogger("repro.serve")
_log.addHandler(logging.NullHandler())

#: A document of at most this many bytes is evaluated on the event loop;
#: anything larger gets an evaluation thread (see the module docstring).
#: One observable property of the input decides the route — this is a
#: derived constant, not a setting.
#:
#: Derivation: while an inline pass runs, no other connection is served
#: (``drain()`` only suspends once the transport is backed up), so the
#: cap bounds how long one pass may hold the loop.  The budget is ~10 ms
#: — two GIL switch intervals, about what a threaded pass costs its
#: neighbours anyway.  The worst ordinary case is a keep-everything
#: query: a whole XMark-shaped document copied to the output, one frame
#: and one socket write per output token.  Measured on the shared 2-core
#: reference box, that runs at 1.3 MB/s in process (frames encoded, no
#: socket) and at 0.35–0.6 MB/s behind a ``gcx serve`` subprocess
#: (``elapsed_ms`` of the ``done`` frame): 8 KiB is ~6 ms of engine work
#: and holds the loop 14–22 ms with its ~500 socket writes; 16 KiB
#: measured 25–40 ms, so the cap is 8, not 16.  Projecting standing
#: queries, the case ``gcx serve`` exists for, run at 4–11 MB/s: an
#: 8 KiB document in 1–2 ms.  Not covered by the budget, and named
#: rather than handled by a second mechanism: a document of nothing but
#: 4-byte elements that are all copied out (one frame per 4 bytes,
#: 0.10–0.17 MB/s: 50–80 ms at the cap), and a quadratic join without a
#: hash plan (docs/JOINS.md), whose cost is not linear in the document.
INLINE_PASS_BYTES = 8 * 1024


def normalize_query_key(query_text: str) -> str:
    """The standing-query cache key: query text with whitespace collapsed.

    Two registrations that differ only in layout (indentation, line
    breaks) share one compiled pool; anything semantic stays distinct.
    """
    return " ".join(query_text.split())


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`QueryServer` (defaults suit the tests/CLI)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (the fixture's mode); the bound port is
    #: readable as ``QueryServer.port`` after ``start()``.
    port: int = 0
    #: Evaluation threads — concurrent *threaded* passes across all
    #: connections (documents over INLINE_PASS_BYTES).
    eval_workers: int = 4
    #: Wall-clock ceiling per pass; ``None`` disables the timeout.
    request_timeout: float | None = 30.0
    #: Ceiling on completing one frame line (slow-loris guard); ``None``
    #: (the default) trusts clients to finish their lines eventually.
    idle_timeout: float | None = None
    max_frame_bytes: int = MAX_FRAME_BYTES
    max_document_bytes: int = MAX_DOCUMENT_BYTES
    #: Frame-bridge queue depth per threaded pass (engine -> client
    #: backpressure).
    bridge_depth: int = 64
    #: How long a graceful drain waits for in-flight passes before
    #: force-cancelling them.
    drain_timeout: float = 10.0
    #: Default schema for every standing query (``gcx serve --schema``).
    #: A register frame's own ``schema`` field (DTD text) overrides it
    #: per standing query.
    schema: Schema | None = None


class _PassCancelled(Exception):
    """Raised inside the evaluation thread when the consumer cancelled."""


class _PassFailed(Exception):
    """Wraps an engine-side exception reported through the bridge."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


class _EvalBridge:
    """The thread->loop frame conduit of one threaded pass.

    The evaluation thread calls :meth:`send`; items land in a *bounded*
    ``asyncio.Queue`` consumed by the connection coroutine: an encoded
    frame, ``None`` once the pass is exhausted, or the
    :class:`_PassFailed` that ended it.  A full queue blocks the
    evaluation thread (that is the backpressure), checking the cancel
    event every ``_POLL`` seconds so an abandoned consumer — disconnect,
    timeout, forced drain — unblocks the thread promptly and lets the
    pass die through the run's release guard.
    """

    _POLL = 0.1

    def __init__(self, loop: asyncio.AbstractEventLoop, depth: int) -> None:
        self._loop = loop
        self.queue: "asyncio.Queue[bytes | _PassFailed | None]" = asyncio.Queue(
            maxsize=depth
        )
        self.cancel = threading.Event()

    def check_cancelled(self) -> None:
        if self.cancel.is_set():
            raise _PassCancelled()

    def send(self, item: "bytes | _PassFailed | None") -> None:
        self.check_cancelled()
        future = asyncio.run_coroutine_threadsafe(
            self.queue.put(item), self._loop
        )
        while True:
            try:
                future.result(self._POLL)
                return
            except concurrent.futures.TimeoutError:
                if self.cancel.is_set():
                    future.cancel()
                    raise _PassCancelled()
            except concurrent.futures.CancelledError:
                raise _PassCancelled()

    def report_error(self, failure: _PassFailed) -> None:
        """Best effort: a dead consumer must not mask the original error."""
        with contextlib.suppress(Exception):
            self.send(failure)

    def pump(self, frames: Iterator[bytes]) -> None:
        """Run the pass on this (evaluation) thread, frame by frame."""
        try:
            for data in frames:
                self.send(data)
            self.send(None)
        except _PassCancelled:
            pass
        except _PassFailed as failure:
            self.report_error(failure)
        except BaseException as exc:
            self.report_error(_PassFailed(exc))
            raise
        finally:
            frames.close()


def _pass_frames(
    pool: SessionPool,
    alias: str,
    document: bytes,
    started: float,
    interrupt: Callable[[], None] | None = None,
) -> Iterator[bytes]:
    """One evaluation pass as its encoded wire frames.

    Yields a ``result`` frame per output fragment the moment the
    evaluator decides it, then the ``done`` frame; an engine-side
    exception surfaces as :class:`_PassFailed`.  Both drivers pull this
    one producer: the connection coroutine directly, or an evaluation
    thread (:meth:`_EvalBridge.pump`), for which ``interrupt`` rides the
    input stream so a pass that emits nothing for a long stretch still
    notices a timeout or disconnect within one token.

    Every exit path settles the pool checkout exactly once: exhaustion
    releases it through the run's normal completion, and every abort
    (generator close, cancel, malformed input, engine error) goes
    through ``StreamingRun.close()`` whose release guard discards it.
    """
    stream = None
    try:
        stream = pool.run_streaming(document, interrupt=interrupt)
        seq = 0
        for fragment in stream.serialized():
            seq += 1
            yield encode_frame(
                {
                    "type": "result",
                    "id": alias,
                    "seq": seq,
                    "fragment": fragment,
                    # The tokens-consumed count is the fragment's arrival
                    # offset: how clients observe earliness
                    # (docs/EARLINESS.md) on the wire.
                    "at": stream.tokens_consumed,
                }
            )
        stats = stream.result.stats
        yield encode_frame(
            {
                "type": "done",
                "id": alias,
                "fragments": seq,
                "hwm_nodes": stats.hwm_nodes,
                "hwm_bytes": stats.hwm_bytes_modelled,
                "tokens_read": stats.tokens_read,
                "elapsed_ms": round(
                    (time.perf_counter() - started) * 1_000.0, 3
                ),
            }
        )
    except _PassCancelled:
        raise
    except Exception as exc:
        raise _PassFailed(exc) from exc
    finally:
        if stream is not None:
            stream.close()


def _remaining(deadline: float | None) -> float | None:
    """Seconds left before ``deadline`` (``None``: no deadline).

    Raises ``asyncio.TimeoutError`` once the budget is spent.
    """
    if deadline is None:
        return None
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise asyncio.TimeoutError
    return remaining


class _Connection:
    """One client connection: frame loop, upload state, pass execution."""

    def __init__(
        self,
        server: "QueryServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.id = next(server.connection_ids)  # names it in log records
        self.reader = reader
        self.writer = writer
        self.task: "asyncio.Task | None" = None
        self._queries: dict[str, SessionPool] = {}
        # Chunked-upload state: None when idle, (alias, parts) during an
        # upload.  _doc_bytes enforces max_document_bytes incrementally so
        # an oversized stream is rejected as soon as it crosses the line.
        # Chunk payloads are UTF-8-encoded once at receipt and
        # accumulated as bytes: the joined upload feeds the bytes-domain
        # lexer directly, so chunked documents are never re-encoded.
        self._upload: tuple[str, list[bytes]] | None = None
        self._upload_bytes = 0
        self._closing = False
        # The in-flight threaded pass's cancel event, if any — the
        # force-cancel hook a timed-out drain uses to kill stragglers.
        self._active_cancel: threading.Event | None = None
        # Frames the current pass has written, and when the first left.
        self._pass_frames_out = 0
        self._pass_first_out = 0.0

    # -- outbound -------------------------------------------------------

    async def _send(self, frame: dict[str, Any]) -> None:
        data = encode_frame(frame)
        self.writer.write(data)
        self.server.stats.frame_out(len(data))
        await self.writer.drain()

    async def _send_error(self, error: ProtocolError) -> None:
        await self._send(error.frame())

    # -- inbound --------------------------------------------------------

    async def _read_line(self) -> bytes | None:
        """One frame line, or ``None`` when the connection is over.

        Races the read against the server's drain event (an idle
        connection must notice shutdown without a frame arriving) and,
        when configured, the idle timeout — which bounds the time to
        *complete* a frame once its first byte has arrived, so a
        slow-loris client dribbling bytes forever is cut off while a
        standing-query client sitting quietly between documents is not.
        """
        read = asyncio.ensure_future(self.reader.readline())
        drain = asyncio.ensure_future(self.server.drain_event.wait())
        try:
            while True:
                done, _pending = await asyncio.wait(
                    {read, drain},
                    timeout=self.server.config.idle_timeout,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if done:
                    break
                # Window expired.  A quiet connection (no partial line
                # buffered) is merely idle — keep waiting; buffered bytes
                # with no newline in sight is the slow loris.
                if self.reader._buffer:  # noqa: SLF001 - no public probe
                    await self._best_effort_error(
                        ProtocolError(
                            E_IDLE_TIMEOUT,
                            "frame not completed within "
                            f"{self.server.config.idle_timeout}s",
                            fatal=True,
                        )
                    )
                    return None
            if read in done:
                try:
                    line = read.result()
                except ValueError:
                    # The stream limit tripped mid-line; framing is lost
                    # for good, so this one is fatal.
                    await self._best_effort_error(
                        ProtocolError(
                            E_FRAME_TOO_LARGE,
                            "frame exceeds "
                            f"{self.server.config.max_frame_bytes} bytes",
                            fatal=True,
                        )
                    )
                    return None
                except OSError:
                    return None  # connection reset mid-read
                if not line:
                    return None  # clean EOF
                if not line.endswith(b"\n"):
                    # EOF mid-line: a truncated final frame.  The peer is
                    # gone; there is nobody to answer.
                    return None
                return line
            assert drain in done
            await self._best_effort_bye("draining")
            return None
        finally:
            for task in (read, drain):
                task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await read

    async def _best_effort_error(self, error: ProtocolError) -> None:
        with contextlib.suppress(ConnectionError, OSError):
            await self._send_error(error)

    async def _best_effort_bye(self, reason: str) -> None:
        with contextlib.suppress(ConnectionError, OSError):
            await self._send({"type": "bye", "reason": reason})

    # -- the frame loop --------------------------------------------------

    async def run(self) -> None:
        while not self._closing:
            line = await self._read_line()
            if line is None:
                break
            self.server.stats.frame_in(len(line))
            try:
                frame = decode_client_frame(line)
            except ProtocolError as error:
                await self._best_effort_error(error)
                if error.fatal:
                    break
                continue
            try:
                await self._dispatch(frame)
            except ProtocolError as error:
                await self._send_error(error)
                if error.fatal:
                    break
            except (ConnectionError, OSError):
                raise  # the peer is gone; _on_connection cleans up
            except Exception as exc:
                # No exception leaves the frame loop untyped: whatever a
                # handler did not foresee is this op's failure, not the
                # connection's.
                _log.exception(
                    "connection %d: op %r failed: %s: %s",
                    self.id,
                    frame["op"],
                    type(exc).__name__,
                    exc,
                )
                await self._send_error(
                    ProtocolError(E_INTERNAL, f"{type(exc).__name__}: {exc}")
                )
            if self.server.draining and not self._closing:
                await self._best_effort_bye("draining")
                break

    async def _dispatch(self, frame: dict[str, Any]) -> None:
        op = frame["op"]
        if op == "ping":
            await self._send({"type": "pong"})
        elif op == "stats":
            await self._send(
                {"type": "stats", "stats": self.server.stats.snapshot()}
            )
        elif op == "quit":
            self._closing = True
            await self._best_effort_bye("quit")
        elif op == "register":
            await self._op_register(frame)
        elif op == "unregister":
            await self._op_unregister(frame)
        elif op == "eval":
            self._require_idle(op)
            # Encode once: the same bytes serve the size check, the
            # route decision and the lexer (which scans raw UTF-8).
            document = self._encode_payload(frame, "doc")
            self._check_document_size(len(document))
            await self._evaluate(frame["id"], self._pool_for(frame["id"]), document)
        elif op == "begin":
            self._require_idle(op)
            self._pool_for(frame["id"])  # validate now, not at end
            self._upload = (frame["id"], [])
            self._upload_bytes = 0
        elif op == "chunk":
            if self._upload is None:
                raise ProtocolError(E_STATE, "chunk outside begin/end")
            # A JSON string boundary can never split a UTF-8 sequence,
            # so encoding chunk by chunk concatenates to the same bytes
            # as encoding the joined document once.  It can split an
            # *escaped surrogate pair* ("\ud83d" | "\ude00"): each half
            # then arrives as a lone surrogate, which no UTF-8 encodes,
            # and the upload is refused like any other unencodable text.
            try:
                data = self._encode_payload(frame, "data")
                self._upload_bytes += len(data)
                self._check_document_size(self._upload_bytes)
            except ProtocolError:
                self._reset_upload()
                raise
            self._upload[1].append(data)
        elif op == "end":
            if self._upload is None:
                raise ProtocolError(E_STATE, "end outside begin/end")
            alias, parts = self._upload
            self._reset_upload()
            await self._evaluate(alias, self._pool_for(alias), b"".join(parts))
        elif op == "cancel":
            self._reset_upload()
            await self._send({"type": "cancelled"})
        else:  # pragma: no cover - decode_client_frame guarantees the op
            raise ProtocolError(E_BAD_FIELD, f"unhandled op {op!r}")

    # -- op helpers ------------------------------------------------------

    def _require_idle(self, op: str) -> None:
        if self._upload is not None:
            raise ProtocolError(
                E_STATE,
                f"op {op!r} is illegal during a chunked upload "
                "(finish with 'end' or abort with 'cancel')",
            )

    def _reset_upload(self) -> None:
        self._upload = None
        self._upload_bytes = 0

    @staticmethod
    def _encode_payload(frame: dict[str, Any], field: str) -> bytes:
        """The UTF-8 bytes of a document payload (``doc`` / ``data``).

        JSON can spell a lone surrogate (``"\\ud800"``), Python decodes it
        into a ``str`` that UTF-8 cannot encode, and XML could not carry
        it anyway: a survivable ``bad-field``, not a dead connection.
        """
        try:
            return frame[field].encode("utf-8")
        except UnicodeEncodeError as error:
            raise ProtocolError(
                E_BAD_FIELD,
                f"op {frame['op']!r} field {field!r} is not encodable as "
                f"UTF-8: lone surrogate at character {error.start}",
            ) from None

    def _check_document_size(self, nbytes: int) -> None:
        limit = self.server.config.max_document_bytes
        if nbytes > limit:
            raise ProtocolError(
                E_TOO_LARGE,
                f"document of {nbytes} bytes exceeds the limit of {limit}",
            )

    def _pool_for(self, alias: str) -> SessionPool:
        pool = self._queries.get(alias)
        if pool is None:
            raise ProtocolError(
                E_UNKNOWN_QUERY,
                f"no query registered as {alias!r} on this connection",
            )
        return pool

    async def _op_register(self, frame: dict[str, Any]) -> None:
        self._require_idle("register")
        alias, query = frame["id"], frame["query"]
        schema_text = frame.get("schema")
        if schema_text is not None and not isinstance(schema_text, str):
            raise ProtocolError(
                E_BAD_FIELD,
                "op 'register' field 'schema' must be a string (DTD text)",
            )
        pool, cached = self.server.get_pool(query, schema_text=schema_text)
        self._queries[alias] = pool
        self.server.stats.query_registered(cached=cached)
        await self._send({"type": "registered", "id": alias, "cached": cached})

    async def _op_unregister(self, frame: dict[str, Any]) -> None:
        alias = frame["id"]
        if self._queries.pop(alias, None) is None:
            raise ProtocolError(
                E_UNKNOWN_QUERY,
                f"no query registered as {alias!r} on this connection",
            )
        await self._send({"type": "unregistered", "id": alias})

    # -- pass execution --------------------------------------------------

    async def _evaluate(
        self, alias: str, pool: SessionPool, document: bytes
    ) -> None:
        """Run one pass, forwarding its frames as they are produced.

        The document's size decides the driver (:data:`INLINE_PASS_BYTES`):
        inline, this coroutine pulls the frame producer itself; threaded,
        an evaluation thread does and the bridge forwards the bytes.  The
        connection does not return to its read loop until the pass is
        settled — that is the read-pause half of the backpressure model.
        """
        config = self.server.config
        started = time.perf_counter()
        deadline = (
            started + config.request_timeout
            if config.request_timeout is not None
            else None
        )
        inline = len(document) <= INLINE_PASS_BYTES
        # Inline, nothing can set a cancel event while the loop is inside
        # the pass (and the cap bounds the pass), so there is none.
        bridge = (
            None
            if inline
            else _EvalBridge(asyncio.get_running_loop(), config.bridge_depth)
        )
        frames = _pass_frames(
            pool, alias, document, started, bridge and bridge.check_cancelled
        )
        self._pass_frames_out = 0
        ok = False
        error: ProtocolError | None = None
        try:
            if bridge is None:
                with contextlib.closing(frames):
                    for data in frames:
                        await self._forward(data, deadline)
            else:
                await self._drive_threaded(frames, bridge, deadline)
            ok = True
        except asyncio.TimeoutError:
            error = ProtocolError(
                E_TIMEOUT,
                f"pass exceeded the request timeout of "
                f"{config.request_timeout}s",
            )
        except _PassFailed as failure:
            cause = failure.cause
            malformed = isinstance(cause, XMLSyntaxError)
            _log.log(
                logging.WARNING if malformed else logging.ERROR,
                "connection %d: eval %r failed: %s: %s",
                self.id,
                alias,
                type(cause).__name__,
                cause,
                exc_info=None if malformed else cause,
            )
            error = ProtocolError(
                E_DOCUMENT if malformed else E_INTERNAL,
                f"{type(cause).__name__}: {cause}",
            )
        finally:
            stats = self.server.stats
            # Every frame a pass writes is a result frame, except the
            # done frame that ends a successful one.
            if self._pass_frames_out - (1 if ok else 0):
                stats.observe_ttfb(self._pass_first_out - started)
            stats.pass_finished(
                ok=ok, inline=inline, seconds=time.perf_counter() - started
            )
        # The pass is settled (checkout released) by now, whatever the
        # client does with the verdict.
        if error is not None:
            await self._best_effort_error(error)

    async def _forward(self, data: bytes, deadline: float | None) -> None:
        """Write one frame of the pass in flight.

        The budget is checked *before* the write, so a zero budget times
        out ahead of any output.  Then ``drain()``: with nothing queued
        in the transport it returns at once (or raises, if the peer is
        gone); with the client behind, it is where the pass waits for
        it — for what is left of the budget, so a reader that stops
        reading times the pass out.
        """
        budget = _remaining(deadline)
        self.writer.write(data)
        self.server.stats.frame_out(len(data))
        if not self._pass_frames_out:
            self._pass_first_out = time.perf_counter()
        self._pass_frames_out += 1
        if self.writer.transport.get_write_buffer_size():
            await asyncio.wait_for(self.writer.drain(), budget)
        else:
            await self.writer.drain()

    async def _drive_threaded(
        self, frames: Iterator[bytes], bridge: _EvalBridge, deadline: float | None
    ) -> None:
        """Forward the frames an evaluation thread produces from ``frames``."""
        loop = asyncio.get_running_loop()
        self._active_cancel = bridge.cancel
        future = loop.run_in_executor(self.server.executor, bridge.pump, frames)
        try:
            while True:
                budget = _remaining(deadline)
                item = await asyncio.wait_for(bridge.queue.get(), budget)
                if item is None:
                    return
                if isinstance(item, _PassFailed):
                    raise item
                await self._forward(item, deadline)
        finally:
            self._active_cancel = None
            bridge.cancel.set()
            # Unblock a producer stuck on the full queue, then wait for
            # the thread: the pass MUST be settled (checkout released)
            # before this connection reads its next frame.  The wait is
            # on the future itself, so a finished pass sleeps for nothing.
            while not future.done():
                while not bridge.queue.empty():
                    bridge.queue.get_nowait()
                await asyncio.wait({future}, timeout=bridge._POLL)
            with contextlib.suppress(Exception):
                await future

    def force_cancel(self) -> None:
        """Kill the in-flight threaded pass, if any (timed-out drain only)."""
        cancel = self._active_cancel
        if cancel is not None:
            cancel.set()


class QueryServer:
    """The ``gcx serve`` front-end: standing queries over NDJSON frames.

    Lifecycle: construct with a :class:`ServeConfig`, ``await start()``
    inside a running event loop, then either let connections arrive or
    ``await shutdown()`` for a graceful drain.  The CLI wraps this in
    :func:`run_server`, which adds signal handling.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.stats = ServerStats()
        self._pools: dict[str, SessionPool] = {}
        self._connections: set[_Connection] = set()
        self.connection_ids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._bound_port = 0
        self.executor: ThreadPoolExecutor | None = None
        self.drain_event: asyncio.Event | None = None
        self.draining = False
        self._shutdown_task: "asyncio.Task | None" = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        assert self._server is None, "start() called twice"
        self.drain_event = asyncio.Event()
        self.executor = ThreadPoolExecutor(
            max_workers=self.config.eval_workers,
            thread_name_prefix="gcx-serve",
        )
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_frame_bytes,
        )
        # Remember the resolved port: the listener socket (and with it
        # getsockname) disappears once the drain closes the server, but
        # late callers still deserve the address for their error paths.
        self._bound_port = self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 after ``start()``)."""
        assert self._server is not None, "server not started"
        return self._bound_port

    async def shutdown(self, drain_timeout: float | None = None) -> None:
        """Graceful drain: finish in-flight passes, then close every pool.

        Reuses ``SessionPool.close()`` semantics per standing query, and
        settles outstanding checkouts through ``SessionPool.wait_idle``
        (run off-loop — it blocks) before closing.  Idempotent: every
        call awaits the one real drain, so no caller can observe a
        "shut down" server whose drain is still in flight.
        """
        if self._server is None:
            return
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.ensure_future(
                self._shutdown(drain_timeout)
            )
        # Shield: cancelling one impatient awaiter must not abort the
        # drain itself for everyone else.
        await asyncio.shield(self._shutdown_task)

    async def _shutdown(self, drain_timeout: float | None) -> None:
        timeout = (
            drain_timeout if drain_timeout is not None else self.config.drain_timeout
        )
        self.draining = True
        self._server.close()
        assert self.drain_event is not None
        self.drain_event.set()
        tasks = {
            conn.task for conn in list(self._connections) if conn.task is not None
        }
        if tasks:
            _done, pending = await asyncio.wait(tasks, timeout=timeout)
            if pending:
                # Drain window exhausted: force-cancel the stragglers'
                # passes (their release guards still settle the pool
                # checkouts) and give them a moment to unwind.
                for conn in list(self._connections):
                    conn.force_cancel()
                _done, pending = await asyncio.wait(pending, timeout=2.0)
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
        await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        for pool in self._pools.values():
            await loop.run_in_executor(None, partial(pool.wait_idle, 2.0))
            pool.close()
        if self.executor is not None:
            self.executor.shutdown(wait=False)

    # -- standing queries -----------------------------------------------

    def get_pool(
        self, query_text: str, *, schema_text: str | None = None
    ) -> tuple[SessionPool, bool]:
        """The standing-query pool for ``query_text`` (compiling on miss).

        ``schema_text`` is the register frame's optional per-query DTD; it
        overrides the server-wide default (``ServeConfig.schema``).  The
        cache key includes a fingerprint of the effective schema, so the
        same query registered with and without a schema gets two distinct
        pools (their compiled artifacts differ).

        Returns ``(pool, cached)``; raises :class:`ProtocolError` with
        code ``query-error`` when the query or the DTD does not compile
        (parse error, unsupported construct) — non-fatal, the connection
        keeps serving.
        """
        key = normalize_query_key(query_text)
        if schema_text is not None:
            digest = hashlib.sha256(
                " ".join(schema_text.split()).encode("utf-8")
            ).hexdigest()[:16]
            key = f"{key}\x00dtd:{digest}"
        elif self.config.schema is not None:
            key = f"{key}\x00dtd:default"
        pool = self._pools.get(key)
        if pool is not None:
            return pool, True
        try:
            schema = (
                Schema.from_dtd_text(schema_text)
                if schema_text is not None
                else self.config.schema
            )
            pool = SessionPool(
                query_text,
                max_workers=self.config.eval_workers,
                schema=schema,
            )
        except Exception as error:
            raise ProtocolError(
                E_QUERY, f"{type(error).__name__}: {error}"
            ) from error
        self._pools[key] = pool
        return pool, False

    @property
    def standing_queries(self) -> int:
        return len(self._pools)

    def pools(self) -> list[SessionPool]:
        """The standing-query pools (test/bench introspection)."""
        return list(self._pools.values())

    def outstanding_checkouts(self) -> int:
        """Buffer checkouts currently held across all standing queries.

        Zero whenever no pass is in flight — the invariant every fault
        path must restore (each ``stats`` read also reaps abandoned
        runs, so a just-released checkout settles here).
        """
        return sum(pool.stats.outstanding_checkouts for pool in self.pools())

    # -- connections ----------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(self, reader, writer)
        if self.draining:
            with contextlib.suppress(ConnectionError, OSError):
                conn_bye = ProtocolError(
                    E_DRAINING, "server is draining", fatal=True
                )
                await conn._send_error(conn_bye)
            writer.close()
            return
        conn.task = asyncio.current_task()
        self._connections.add(conn)
        self.stats.connection_opened()
        try:
            await conn.run()
        except (ConnectionError, OSError):
            pass  # peer vanished mid-frame; nothing left to say
        finally:
            self._connections.discard(conn)
            self.stats.connection_closed()
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()


def run_server(
    config: ServeConfig | None = None,
    *,
    on_ready: Callable[[QueryServer, asyncio.Event, asyncio.AbstractEventLoop], None]
    | None = None,
    log: Callable[[str], None] | None = None,
) -> int:
    """Run a :class:`QueryServer` until SIGTERM/SIGINT, then drain.

    The blocking entry point behind ``gcx serve``.  ``on_ready`` is
    called once the socket is bound with ``(server, stop_event, loop)``
    — the test suite uses it to learn the ephemeral port and to trigger
    shutdown programmatically (``loop.call_soon_threadsafe(stop.set)``).
    Returns the process exit status (0 on a clean drain).
    """
    return asyncio.run(_serve_main(config or ServeConfig(), on_ready, log))


async def _serve_main(
    config: ServeConfig,
    on_ready: Callable[..., None] | None,
    log: Callable[[str], None] | None,
) -> int:
    server = QueryServer(config)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError, ValueError):
            # Non-main thread or a platform without signal support: the
            # embedder (tests, another loop) must trigger ``stop`` itself.
            pass
    if log is not None:
        log(f"gcx serve: listening on {server.host}:{server.port}")
    if on_ready is not None:
        on_ready(server, stop, loop)
    await stop.wait()
    if log is not None:
        log("gcx serve: draining...")
    await server.shutdown()
    if log is not None:
        log(f"gcx serve: drained; {server.stats.summary()}")
    return 0
