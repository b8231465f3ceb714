"""Streaming XQuery evaluation with combined static and dynamic buffer
minimization — a from-scratch reproduction of the GCX system
(Schmidt, Scherzinger, Koch: "Combined Static and Dynamic Analysis for
Effective Buffer Minimization in Streaming XQuery Evaluation", ICDE 2007).

Quickstart
----------
>>> from repro import GCXEngine
>>> query = '<out>{for $b in /bib/book return $b/title}</out>'
>>> doc = '<bib><book><title>T1</title></book><book><title>T2</title></book></bib>'
>>> result = GCXEngine().run(query, doc)
>>> result.output
'<out><title>T1</title><title>T2</title></out>'

Compile once, run many (static analysis happens a single time), and stream
the output incrementally instead of materializing it:

>>> session = GCXEngine().session(query)
>>> session.run(doc).output
'<out><title>T1</title><title>T2</title></out>'
>>> "".join(session.run_streaming(doc).serialized())
'<out><title>T1</title><title>T2</title></out>'

With a :class:`Schema` (parse a DTD via :func:`load_dtd` or
``Schema.from_dtd_text``), compilation additionally runs the
schema-constraint pass: ``GCXEngine().session(query, schema=schema)``
proves facts like "this variable's matches cannot nest", which certifies
zero-buffer evaluation for schema-determined queries (docs/SCHEMA.md).

The package layers (bottom-up): :mod:`repro.xmlio` (streams, trees, sinks),
:mod:`repro.xquery` (the XQ fragment), :mod:`repro.analysis` (projection
trees, roles, signOff insertion, the schema-constraint pass),
:mod:`repro.stream` (preprojection),
:mod:`repro.buffer` (active garbage collection), :mod:`repro.engine` (the
GCX engine, query sessions, the multi-query
:class:`~repro.engine.multi.MultiQuerySession`, and the concurrent
:class:`~repro.engine.pool.SessionPool`), :mod:`repro.baselines` (competitor
strategies), :mod:`repro.xmark` (benchmark data and queries) and
:mod:`repro.bench` (the Table 1 harness).  See README.md and
docs/ARCHITECTURE.md for the guided tour.
"""

from repro.analysis import (
    CompiledQuery,
    CompileOptions,
    Schema,
    SchemaConstraints,
    SchemaViolation,
    compile_query,
    load_dtd,
)
from repro.baselines import (
    ENGINES,
    FluxLikeEngine,
    NaiveDomEngine,
    ProjectionOnlyEngine,
    UnsupportedQueryError,
)
from repro.bench import (
    HarnessConfig,
    format_table1,
    latency_report,
    run_table1,
    shape_report,
)
from repro.buffer import BufferCostModel, BufferStats
from repro.engine import (
    EngineOptions,
    GCXEngine,
    MultiQuerySession,
    MultiRunStats,
    PoolResult,
    PoolStats,
    QuerySession,
    RunResult,
    SessionPool,
    StreamingRun,
)
from repro.xmark import TABLE1_QUERIES, XMARK_QUERIES, generate_xmark
from repro.xmlio import (
    StringSink,
    TokenSink,
    WriterSink,
    serialize_stream,
)
from repro.xquery import parse_query, unparse

__version__ = "1.7.0"

__all__ = [
    "GCXEngine",
    "EngineOptions",
    "RunResult",
    "QuerySession",
    "MultiQuerySession",
    "MultiRunStats",
    "SessionPool",
    "PoolResult",
    "PoolStats",
    "StreamingRun",
    "compile_query",
    "CompileOptions",
    "CompiledQuery",
    "Schema",
    "SchemaConstraints",
    "SchemaViolation",
    "load_dtd",
    "parse_query",
    "unparse",
    "evaluate",
    "ENGINES",
    "FluxLikeEngine",
    "NaiveDomEngine",
    "ProjectionOnlyEngine",
    "UnsupportedQueryError",
    "TokenSink",
    "StringSink",
    "WriterSink",
    "serialize_stream",
    "BufferStats",
    "BufferCostModel",
    "generate_xmark",
    "XMARK_QUERIES",
    "TABLE1_QUERIES",
    "HarnessConfig",
    "run_table1",
    "format_table1",
    "shape_report",
    "latency_report",
    "__version__",
]


def evaluate(query: str, document: str, *, engine: str = "gcx") -> str:
    """One-shot evaluation: run ``query`` over ``document``, return output.

    Convenience wrapper over the engine registry; for repeated evaluation
    of the same query prefer :meth:`GCXEngine.session`, which performs the
    static analysis only once.
    """
    return ENGINES[engine]().run(query, document).output
