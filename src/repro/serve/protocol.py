"""Frame grammar of the ``gcx serve`` wire protocol (docs/SERVING.md).

The protocol is deliberately minimal: every frame is one line of JSON
(UTF-8, ``\\n``-terminated, no embedded newlines — JSON string escaping
guarantees that).  Line framing keeps the server's input buffering
bounded and recoverable: a malformed frame poisons exactly one line, and
the stream resynchronizes at the next newline, which is what lets a
connection survive a bad document or a garbled frame.

Client frames carry an ``op`` field::

    {"op": "register", "id": "q1", "query": "<o>{...}</o>"}
    {"op": "register", "id": "q2", "query": "...", "schema": "<!ELEMENT ...>"}
    {"op": "unregister", "id": "q1"}
    {"op": "eval", "id": "q1", "doc": "<site>...</site>"}
    {"op": "begin", "id": "q1"}          start a chunked document upload
    {"op": "chunk", "data": "<site>"}    any number of these
    {"op": "end"}                        upload complete -> evaluate
    {"op": "cancel"}                     abort an in-progress upload
    {"op": "ping"} | {"op": "stats"} | {"op": "quit"}

``register`` takes an optional ``schema`` field: DTD text enabling the
schema-constraint pass (zero-buffer proofs) for that standing query.
Queries registered with different schemas get distinct compiled pools;
a server started with ``--schema`` applies its DTD to every standing
query that does not carry its own.

Document payloads (``doc`` and ``chunk`` ``data``) arrive as JSON
strings but are UTF-8-encoded exactly once at receipt and stay ``bytes``
from there on: size limits count encoded bytes, chunked uploads
accumulate and join byte parts, and the joined document feeds the
bytes-domain lexer directly.  A JSON string boundary can never split a
UTF-8 sequence, so per-chunk encoding concatenates to the same byte
stream as encoding the whole document at once.  (It *can* split an
escaped surrogate pair; each half is then a lone surrogate, which —
like any text UTF-8 cannot encode — is refused with ``bad-field``.)

Server frames carry a ``type`` field: ``registered``, ``unregistered``,
``result`` (one output fragment, sequenced per pass), ``done`` (end of a
pass, with its run statistics), ``error`` (structured, with a stable
``code`` and a ``fatal`` flag), ``pong``, ``stats``, ``cancelled`` and
``bye``.  The full grammar, with the backpressure and drain semantics,
is specified in docs/SERVING.md.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_DOCUMENT_BYTES",
    "CLIENT_OPS",
    "ERROR_CODES",
    "E_BAD_FRAME",
    "E_BAD_FIELD",
    "E_UNKNOWN_OP",
    "E_UNKNOWN_QUERY",
    "E_QUERY",
    "E_DOCUMENT",
    "E_TOO_LARGE",
    "E_FRAME_TOO_LARGE",
    "E_TIMEOUT",
    "E_IDLE_TIMEOUT",
    "E_STATE",
    "E_INTERNAL",
    "E_DRAINING",
    "ProtocolError",
    "encode_frame",
    "decode_client_frame",
]

#: Ceiling on one wire frame (one line).  Bounds the per-connection input
#: buffer: the asyncio stream reader is created with this limit, so a
#: client that never sends a newline cannot grow server memory past it.
MAX_FRAME_BYTES = 1_048_576

#: Default ceiling on one document (inline or accumulated over chunks).
MAX_DOCUMENT_BYTES = 8_388_608

# -- structured error codes (stable API, asserted by the test suite) ----
E_BAD_FRAME = "bad-frame"  # not JSON / not an object
E_BAD_FIELD = "bad-field"  # missing or wrongly typed field
E_UNKNOWN_OP = "unknown-op"
E_UNKNOWN_QUERY = "unknown-query"  # eval/begin against an unregistered id
E_QUERY = "query-error"  # query failed to compile
E_DOCUMENT = "document-error"  # malformed XML mid-pass
E_TOO_LARGE = "too-large"  # document exceeded max_document_bytes
E_FRAME_TOO_LARGE = "frame-too-large"  # line exceeded max_frame_bytes
E_TIMEOUT = "timeout"  # pass exceeded the per-request timeout
E_IDLE_TIMEOUT = "idle-timeout"  # frame not completed in time (slow loris)
E_STATE = "protocol-state"  # op illegal in the current state
E_INTERNAL = "internal-error"
E_DRAINING = "draining"  # server is shutting down

ERROR_CODES = frozenset(
    {
        E_BAD_FRAME,
        E_BAD_FIELD,
        E_UNKNOWN_OP,
        E_UNKNOWN_QUERY,
        E_QUERY,
        E_DOCUMENT,
        E_TOO_LARGE,
        E_FRAME_TOO_LARGE,
        E_TIMEOUT,
        E_IDLE_TIMEOUT,
        E_STATE,
        E_INTERNAL,
        E_DRAINING,
    }
)

#: Required string fields per client op (beyond ``op`` itself).
CLIENT_OPS: dict[str, tuple[str, ...]] = {
    "register": ("id", "query"),
    "unregister": ("id",),
    "eval": ("id", "doc"),
    "begin": ("id",),
    "chunk": ("data",),
    "end": (),
    "cancel": (),
    "ping": (),
    "stats": (),
    "quit": (),
}


class ProtocolError(ValueError):
    """A protocol violation, rendered to the client as an error frame.

    ``code`` is one of :data:`ERROR_CODES` (stable, machine-matchable);
    ``fatal`` marks violations after which the connection cannot continue
    (e.g. an over-limit frame leaves the line framing unrecoverable).
    Non-fatal errors are answered with an error frame and the connection
    keeps serving — the conformance suite's survival guarantee.
    """

    def __init__(self, code: str, message: str, *, fatal: bool = False) -> None:
        super().__init__(message)
        assert code in ERROR_CODES, code
        self.code = code
        self.fatal = fatal

    def frame(self) -> dict[str, Any]:
        """The server error frame announcing this violation."""
        return {
            "type": "error",
            "code": self.code,
            "message": str(self),
            "fatal": self.fatal,
        }


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """Serialize one frame to its wire form (compact JSON + newline).

    ``ensure_ascii`` stays on: every emitted byte is printable ASCII, so
    fragments survive any transport or log intact and the newline framing
    can never be confused by multi-byte sequences.
    """
    return (
        json.dumps(frame, separators=(",", ":"), ensure_ascii=True) + "\n"
    ).encode("ascii")


def decode_client_frame(line: bytes) -> dict[str, Any]:
    """Parse and validate one client line into a frame dict.

    Raises :class:`ProtocolError` (always non-fatal: line framing is
    intact, the connection can keep going) when the line is not a JSON
    object, names no/an unknown ``op``, or misses a required field.
    """
    try:
        frame = json.loads(line)
    except (ValueError, UnicodeDecodeError) as error:
        raise ProtocolError(E_BAD_FRAME, f"frame is not valid JSON: {error}")
    if not isinstance(frame, dict):
        raise ProtocolError(
            E_BAD_FRAME, f"frame must be a JSON object, got {type(frame).__name__}"
        )
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError(E_BAD_FIELD, "frame is missing the string field 'op'")
    required = CLIENT_OPS.get(op)
    if required is None:
        known = ", ".join(sorted(CLIENT_OPS))
        raise ProtocolError(E_UNKNOWN_OP, f"unknown op {op!r} (known: {known})")
    for field in required:
        if not isinstance(frame.get(field), str):
            raise ProtocolError(
                E_BAD_FIELD, f"op {op!r} requires the string field {field!r}"
            )
    return frame
