"""Command-line interface: ``gcx`` (installed via the console script).

Subcommands (see docs/CLI.md for sample output)::

    gcx run QUERY.xq DOC.xml [DOC.xml ...]         evaluate a query
    gcx run-multi Q.xq [Q.xq ...] -d DOC.xml       N queries, one shared scan
    gcx serve-batch QUERY.xq DOC.xml [...]         concurrent pool evaluation
    gcx serve [--port N] [--workers N]             network query server
    gcx analyze QUERY.xq                           show the static analysis
    gcx table1 [--sizes 256k,1m] [--engines ...]   reproduce Table 1
    gcx xmark SCALE [--seed N] [-o FILE]           generate a document
    gcx ablations [--scale F] [--queries Q1,...]   Section 6 ablation study
    gcx dtd                                        print the adapted XMark DTD

``gcx run`` with the default engine is fully streaming: the query is
compiled once, each document is read through the chunked file tokenizer,
and result fragments are written to stdout as soon as the evaluator
produces them — memory stays bounded by the buffer high watermark on the
input side and O(1) on the output side, however large the document or the
result.  Passing several documents amortizes the static analysis over all
of them (the compile-once/run-many session).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import CompileOptions, compile_query, load_dtd
from repro.baselines import ENGINES, UnsupportedQueryError
from repro.bench import (
    HarnessConfig,
    format_table1,
    latency_report,
    run_table1,
    shape_report,
)
from repro.xmark import XMARK_QUERIES, generate_xmark
from repro.xmlio import XMLSyntaxError
from repro.xquery import unparse

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gcx",
        description="Streaming XQuery with active garbage collection "
        "(GCX reproduction, ICDE 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="evaluate a query over documents")
    run_p.add_argument("query", help="query file, or '-' for stdin")
    run_p.add_argument(
        "document",
        nargs="+",
        help="XML document file(s); the query is compiled once for all",
    )
    run_p.add_argument("--engine", default="gcx", choices=sorted(ENGINES))
    run_p.add_argument(
        "--schema",
        metavar="PATH",
        default=None,
        help="DTD file; enables the schema-constraint pass (zero-buffer "
        "proofs, signoff strengthening) for this query",
    )
    run_p.add_argument("--stats", action="store_true", help="print buffer stats")
    run_p.add_argument(
        "--buffered",
        action="store_true",
        help="materialize each result in memory instead of streaming "
        "(streaming is the default for the gcx engine)",
    )

    serve_p = sub.add_parser(
        "serve-batch",
        help="evaluate many documents concurrently through a SessionPool",
    )
    serve_p.add_argument("query", help="query file, or '-' for stdin")
    serve_p.add_argument(
        "document",
        nargs="+",
        help="XML document file(s), evaluated concurrently, output in order",
    )
    serve_p.add_argument(
        "--workers", type=int, default=4, help="pool worker count (default 4)"
    )
    serve_p.add_argument(
        "--chunksize",
        type=int,
        default=1,
        help="documents per pool task (batch small documents, default 1)",
    )
    serve_p.add_argument(
        "--stats",
        action="store_true",
        help="print per-document and pool-wide aggregate stats to stderr",
    )

    net_p = sub.add_parser(
        "serve",
        help="serve standing queries over the NDJSON line protocol "
        "(docs/SERVING.md); drains gracefully on SIGTERM",
    )
    net_p.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    net_p.add_argument(
        "--port",
        type=int,
        default=7733,
        help="bind port; 0 picks an ephemeral port (default 7733)",
    )
    net_p.add_argument(
        "--workers",
        type=int,
        default=4,
        help="evaluation threads for passes over documents too large to "
        "run on the event loop, shared by all connections (default 4)",
    )
    net_p.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request wall-clock ceiling in seconds; 0 disables "
        "(default 30)",
    )
    net_p.add_argument(
        "--idle-timeout",
        type=float,
        default=0.0,
        help="ceiling on completing one frame line, in seconds (slow-loris "
        "guard); 0 disables (default 0)",
    )
    net_p.add_argument(
        "--max-doc-bytes",
        type=int,
        default=None,
        help="per-document size ceiling in bytes (default 8 MiB)",
    )
    net_p.add_argument(
        "--schema",
        metavar="PATH",
        default=None,
        help="DTD file used as the default schema for every standing "
        "query; a register frame's own 'schema' field overrides it",
    )

    multi_p = sub.add_parser(
        "run-multi",
        help="evaluate many queries over each document in one shared scan",
    )
    multi_p.add_argument(
        "query",
        nargs="+",
        help="query files; all are compiled once and evaluated together",
    )
    multi_p.add_argument(
        "-d",
        "--doc",
        action="append",
        required=True,
        help="XML document file (repeatable); each is tokenized exactly "
        "once for all queries",
    )
    multi_p.add_argument(
        "--schema",
        metavar="PATH",
        default=None,
        help="DTD file; every member query is compiled with the "
        "schema-constraint pass",
    )
    multi_p.add_argument(
        "--stats",
        action="store_true",
        help="print shared-pass routing and buffer stats to stderr",
    )
    multi_p.add_argument(
        "--union",
        action="store_true",
        help="print the union projection tree (membership masks) first",
    )

    ana_p = sub.add_parser("analyze", help="show projection tree and rewriting")
    ana_p.add_argument("query", help="query file, or '-' for stdin")
    ana_p.add_argument("--no-early-updates", action="store_true")
    ana_p.add_argument("--no-redundancy-elimination", action="store_true")
    ana_p.add_argument(
        "--schema",
        metavar="PATH",
        default=None,
        help="DTD file; also print the schema-constraint report",
    )

    tab_p = sub.add_parser("table1", help="reproduce the paper's Table 1")
    tab_p.add_argument("--sizes", type=_sizes, default="256k,512k,1m,2m")
    tab_p.add_argument(
        "--engines", type=_names(ENGINES, "engine"), default=",".join(sorted(ENGINES))
    )
    tab_p.add_argument(
        "--queries", type=_names(XMARK_QUERIES, "query"), default="Q1,Q6,Q8,Q13,Q20"
    )
    tab_p.add_argument("--budget", type=float, default=120.0)
    tab_p.add_argument("--seed", type=int, default=42)

    gen_p = sub.add_parser("xmark", help="generate an XMark document")
    gen_p.add_argument("scale", type=float)
    gen_p.add_argument("--seed", type=int, default=42)
    gen_p.add_argument("-o", "--output", default="-")

    abl_p = sub.add_parser("ablations", help="Section 6 optimization ablations")
    abl_p.add_argument("--scale", type=float, default=0.002)
    abl_p.add_argument(
        "--queries", type=_names(XMARK_QUERIES, "query"), default="Q1,Q13,Q20"
    )
    abl_p.add_argument(
        "--schema",
        metavar="PATH",
        default=None,
        help="DTD file; adds a 'with-schema' ablation row (use 'xmark' "
        "for the built-in XMark DTD)",
    )

    sub.add_parser("dtd", help="print the adapted XMark DTD")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve-batch":
        return _cmd_serve_batch(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "run-multi":
        return _cmd_run_multi(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "xmark":
        return _cmd_xmark(args)
    if args.command == "ablations":
        return _cmd_ablations(args)
    if args.command == "dtd":
        from repro.xmark.schema import xmark_schema

        print(xmark_schema().to_dtd(), end="")
        return 0
    return 2


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


#: What a document that cannot be opened or parsed raises.  Narrower than
#: ``OSError`` so that a closed stdout (``BrokenPipeError``) is not
#: reported as a document error.
_DOCUMENT_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
    UnicodeDecodeError,
    XMLSyntaxError,
)


def _document_error(path: str, error: Exception) -> int:
    """Report ``ERROR: <path>: <message>`` on stderr; the exit status 1."""
    message = str(error)
    if isinstance(error, XMLSyntaxError) and error.line is not None:
        message = f"line {error.line}, column {error.column}: {message}"
    elif isinstance(error, OSError) and error.strerror:
        message = error.strerror
    print(f"ERROR: {path}: {message}", file=sys.stderr)
    return 1


def _load_schema(path: str | None):
    """``--schema PATH`` -> :class:`~repro.analysis.schema.Schema` or None."""
    if path is None:
        return None
    return load_dtd(path)


def _cmd_run(args) -> int:
    query = _read(args.query)
    engine = ENGINES[args.engine]()
    try:
        schema = _load_schema(args.schema)
        compiled = engine.compile(query, schema=schema)
    except UnsupportedQueryError as error:
        print(f"n/a: {error}", file=sys.stderr)
        return 1
    if args.stats and compiled.constraints is not None:
        print(f"schema: {compiled.constraints.summary()}", file=sys.stderr)
    if args.stats and args.engine == "gcx":
        # Compile-time relational telemetry: which loops the join planner
        # dispatched to the hash operator (run-time probe/accumulator
        # counters appear in each document's stats summary line).
        sites = compiled.joinplan.describe()
        if sites:
            for line in sites:
                print(f"join plan: {line}", file=sys.stderr)
        else:
            print("join plan: no equi-join loops", file=sys.stderr)
    if args.engine == "gcx" and not args.buffered:
        return _run_streaming(engine, compiled, args)
    for path in args.document:
        try:
            result = engine.run(compiled, _read(path))
        except _DOCUMENT_ERRORS as error:
            return _document_error(path, error)
        print(result.output)
        if args.stats:
            print(f"{path}: {result.stats.summary()}", file=sys.stderr)
    return 0


def _run_streaming(engine, compiled, args) -> int:
    """Compile-once/run-many evaluation with incremental stdout output."""
    from pathlib import Path

    session = engine.session(compiled)
    for path in args.document:
        # The session tokenizes (chunked, guided by its matcher): dead
        # subtrees show up under --stats as tokens skipped at scan time.
        try:
            stream = session.run_streaming(sys.stdin if path == "-" else Path(path))
            for fragment in stream.serialized():
                sys.stdout.write(fragment)
                # Flush per fragment: a piped consumer must see output as
                # it is decided, not when the 8KB stdio buffer fills.
                sys.stdout.flush()
        except _DOCUMENT_ERRORS as error:
            return _document_error(path, error)
        sys.stdout.write("\n")
        sys.stdout.flush()
        result = stream.result
        if args.stats:
            latency = (
                f"{result.first_output_seconds * 1000:.1f}ms"
                if result.first_output_seconds is not None
                else "n/a (empty result)"
            )
            print(
                f"{path}: {result.stats.summary()}; "
                f"first output after {latency}",
                file=sys.stderr,
            )
    return 0


def _cmd_serve_batch(args) -> int:
    """Concurrent multi-document evaluation through one SessionPool.

    Results are printed in document order (``map`` is ordered and
    backpressured, so arbitrarily many documents stream through bounded
    memory); the pool-wide aggregate high watermark goes to stderr.
    """
    import time
    from pathlib import Path

    from repro.engine.pool import SessionPool

    query = _read(args.query)
    if args.workers < 1:
        print("ERROR: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.chunksize < 1:
        print("ERROR: --chunksize must be >= 1", file=sys.stderr)
        return 2
    started = time.perf_counter()
    with SessionPool(query, max_workers=args.workers) as pool:
        documents = [Path(path) for path in args.document]
        results = pool.map(documents, chunksize=args.chunksize)
        try:
            for path, result in zip(args.document, results):
                print(result.output)
                if args.stats:
                    print(
                        f"{path}: hwm {result.hwm_nodes} nodes / "
                        f"{result.hwm_bytes} bytes; "
                        f"{result.tokens_read} tokens read",
                        file=sys.stderr,
                    )
        except _DOCUMENT_ERRORS as error:
            # The pool names the failing document, even inside a chunk.
            failed = documents.index(error.document)
            return _document_error(args.document[failed], error)
        elapsed = time.perf_counter() - started
    stats = pool.stats
    if args.stats:
        rate = len(args.document) / elapsed if elapsed > 0 else float("inf")
        print(
            f"pool: {stats.summary()}; "
            f"{len(args.document)} document(s) in {elapsed:.3f}s "
            f"({rate:.0f} docs/s)",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args) -> int:
    """The network front-end: standing queries over NDJSON frames.

    Blocks until SIGTERM/SIGINT, then drains gracefully: in-flight
    passes finish, idle connections get a ``bye`` frame, and every
    standing query's pool is closed with its checkouts settled.
    """
    from repro.serve import ServeConfig, run_server

    if args.workers < 1:
        print("ERROR: --workers must be >= 1", file=sys.stderr)
        return 2
    config = ServeConfig(
        host=args.host,
        port=args.port,
        eval_workers=args.workers,
        request_timeout=args.timeout if args.timeout > 0 else None,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
        schema=_load_schema(args.schema),
        **(
            {"max_document_bytes": args.max_doc_bytes}
            if args.max_doc_bytes is not None
            else {}
        ),
    )

    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    return run_server(config, log=log)


def _cmd_run_multi(args) -> int:
    """Multi-query shared-scan evaluation: N queries, one pass per document.

    Every document is tokenized exactly once; the shared dispatcher routes
    each token to the queries whose membership bitmask still includes it.
    Results are printed grouped per document, one ``== name ==`` section
    per query, in query order.
    """
    from pathlib import Path

    from repro.engine.multi import MultiQuerySession

    names: list[str] = []
    queries: dict[str, str] = {}
    for path in args.query:
        name = Path(path).stem
        if name in queries:
            print(f"ERROR: duplicate query name {name!r}", file=sys.stderr)
            return 2
        names.append(name)
        queries[name] = _read(path)
    session = MultiQuerySession(queries, schema=_load_schema(args.schema))
    if args.union:
        print("== union projection tree ==")
        print(session.format_union())
    from repro.xmlio.serialize import StringSink

    for doc_path in args.doc:
        sinks = {name: StringSink() for name in names}
        try:
            stream = session.run_streaming(Path(doc_path))
            for name, token in stream:
                sinks[name].write(token)
        except _DOCUMENT_ERRORS as error:
            return _document_error(doc_path, error)
        if len(args.doc) > 1:
            print(f"# {doc_path}")
        for name in names:
            sinks[name].close()
            print(f"== {name} ==")
            print(sinks[name].getvalue())
        if args.stats:
            print(f"{doc_path}: {stream.stats.summary()}", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    options = CompileOptions(
        early_updates=not args.no_early_updates,
        eliminate_redundant=not args.no_redundancy_elimination,
    )
    compiled = compile_query(
        _read(args.query), options, schema=_load_schema(args.schema)
    )
    print("== normalized query ==")
    print(unparse(compiled.normalized, indent=2))
    print("\n== projection tree ==")
    print(compiled.projection_tree.format(merge_roleless=True))
    print("\n== rewritten query (with signOff statements) ==")
    print(unparse(compiled.rewritten, indent=2))
    if compiled.eliminated_roles:
        names = ", ".join(role.name for role in compiled.eliminated_roles)
        print(f"\neliminated redundant roles: {names}")
    straight = {
        var: compiled.straight.fsa(var) for var in compiled.variables.names
    }
    print(f"\nfsa: {straight}")
    if compiled.constraints is not None:
        print("\n== schema constraints ==")
        print(compiled.constraints.summary())
    return 0


def _cmd_table1(args) -> int:
    config = HarnessConfig(
        sizes_bytes=args.sizes,
        engines=args.engines,
        queries=args.queries,
        seed=args.seed,
        cell_budget_seconds=args.budget,
    )

    def progress(cell):
        print(
            f"  {cell.query} {cell.engine} {cell.doc_bytes}B -> {cell.cell}",
            file=sys.stderr,
        )

    measurements = run_table1(config, progress=progress)
    print(format_table1(measurements))
    print(shape_report(measurements))
    print()
    print(latency_report(measurements))
    return 0


def _cmd_xmark(args) -> int:
    document = generate_xmark(args.scale, seed=args.seed)
    if args.output == "-":
        sys.stdout.write(document)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {len(document):,} bytes to {args.output}", file=sys.stderr)
    return 0


def _cmd_ablations(args) -> int:
    from repro.bench.ablation import format_ablations, run_ablations

    document = generate_xmark(args.scale, seed=42)
    queries = {name: XMARK_QUERIES[name].adapted for name in args.queries}
    if args.schema == "xmark":
        from repro.xmark.schema import xmark_schema

        schema = xmark_schema()
    else:
        schema = _load_schema(args.schema)
    print(f"document: {len(document):,} bytes\n", file=sys.stderr)
    print(format_ablations(run_ablations(queries, document, schema=schema)))
    return 0


def _names(known, what: str):
    """An argparse ``type``: comma-separated names, each one of ``known``."""

    def parse(text: str) -> tuple[str, ...]:
        names = tuple(name.strip() for name in text.split(","))
        unknown = [name for name in names if name not in known]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {', '.join(unknown)} "
                f"(choose from {', '.join(sorted(known))})"
            )
        return names

    return parse


def _sizes(text: str) -> tuple[int, ...]:
    """An argparse ``type``: comma-separated byte sizes like ``256k,1m``."""
    return tuple(_parse_size(token) for token in text.split(","))


def _parse_size(token: str) -> int:
    number = token.strip().lower()
    factor = 1
    if number.endswith("k"):
        factor, number = 1_000, number[:-1]
    elif number.endswith("m"):
        factor, number = 1_000_000, number[:-1]
    try:
        size = int(float(number) * factor)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"invalid size {token!r}") from None
    if size <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive: {token!r}")
    return size


if __name__ == "__main__":
    raise SystemExit(main())
