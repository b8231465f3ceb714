"""The network serving layer: ``gcx serve`` (see docs/SERVING.md).

The engine stack below this package is ready for real traffic — the
:class:`~repro.engine.pool.SessionPool` gives compile-once/run-many
evaluation to concurrent clients, and :class:`~repro.engine.session
.StreamingRun` produces output incrementally — but none of it listens on
a socket.  This package is the missing front-end: a stdlib-only asyncio
server speaking a line-delimited NDJSON protocol in which clients
register *standing queries* (compiled once, cached by normalized query
text), push documents inline or as chunked streams, and receive result
fragments the moment the evaluator decides them.

Layer map:

* :mod:`repro.serve.protocol` — the frame grammar: encoding, decoding,
  validation, and the structured error vocabulary;
* :mod:`repro.serve.stats` — :class:`ServerStats`, the request/session
  metrics (active connections, docs served, bytes in/out, a
  latency-to-first-byte histogram);
* :mod:`repro.serve.server` — :class:`QueryServer` itself: connection
  handling, per-connection backpressure, per-request timeouts, and
  graceful drain on SIGTERM.

The in-process harness the fault-injection and protocol-conformance
suites drive the server with lives with them, in ``tests/serve/harness.py``.
"""

from repro.serve.protocol import (
    ERROR_CODES,
    MAX_DOCUMENT_BYTES,
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_client_frame,
    encode_frame,
)
from repro.serve.server import (
    QueryServer,
    ServeConfig,
    normalize_query_key,
    run_server,
)
from repro.serve.stats import LatencyHistogram, ServerStats

__all__ = [
    "ERROR_CODES",
    "MAX_DOCUMENT_BYTES",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_client_frame",
    "encode_frame",
    "QueryServer",
    "ServeConfig",
    "normalize_query_key",
    "run_server",
    "LatencyHistogram",
    "ServerStats",
]
