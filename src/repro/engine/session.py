"""Compile-once/run-many query sessions with incremental output.

The paper's architecture (Figure 11) separates a purely static phase —
normalization, projection-tree derivation, signOff insertion — from the
streaming runtime.  :class:`QueryRuntime` makes that split first-class: it
holds the static half, computed once per query (the compiled query, the
lazy-DFA matcher, the chain guide, the evaluator gates), and wires the
dynamic half of every run (buffer, lane, evaluator).  Every front-end
builds its runs through it, and every run's buffer is checked out of, and
released back to, a :class:`QuerySession`: the one checkout, thread-safe,
whose release also settles the aggregate residency a
:class:`~repro.engine.pool.SessionPool` or a
:class:`~repro.engine.multi.MultiQuerySession` tracks.  Each run has fully
isolated dynamic state; between runs the
:class:`~repro.buffer.buffer.BufferTree` is recycled through
:meth:`~repro.buffer.buffer.BufferTree.reset`, which keeps the tag symbol
table (Section 6's integer tags) warm across documents that share a schema.

:meth:`QuerySession.run_streaming` returns a :class:`StreamingRun` — an
iterator of output tokens that are produced *while* the input is being
consumed.  Together with the demand-driven reads of the evaluator this
closes the constant-memory loop on both sides: input residency is bounded
by the buffer high watermark (the paper's contribution), and output
residency is bounded by the consumer, not by the result size.
:meth:`QuerySession.run` is the buffered wrapper that drains the stream
into a :class:`~repro.xmlio.serialize.TokenSink`.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterator

from repro.analysis.compile import CompiledQuery, CompileOptions, compile_query
from repro.analysis.schema import Schema
from repro.analysis.schema_constraints import apply_trusted_constraints
from repro.buffer.buffer import BufferTree
from repro.buffer.stats import BufferCostModel, BufferStats
from repro.engine.evaluator import Evaluator
from repro.engine.relops.aggregates import (
    AccumulatorRuntime,
    collect_aggregate_sites,
)
from repro.stream.matcher import StreamMatcher
from repro.stream.preprojector import StreamPreprojector
from repro.xmlio.filelexer import tokenize_file
from repro.xmlio.lexer import tokenize
from repro.xmlio.serialize import StringSink, TokenSink, serialize_stream
from repro.xmlio.tokens import Token
from repro.xquery.ast import Query

if TYPE_CHECKING:  # the direct runner is imported by its first certified run
    from repro.engine.direct import ChainGuide, DirectEvaluator

#: A shared matcher whose lazy DFA outgrows this many states is replaced
#: with a fresh one on the next run (bounds session-lifetime memory; normal
#: query/document mixes stay well under it — XMark queries intern < 100).
MATCHER_STATE_CAP = 4096

__all__ = [
    "EngineOptions",
    "RunResult",
    "StreamingRun",
    "QueryRuntime",
    "QuerySession",
    "build_accumulators",
    "document_tokens",
    "drain_streaming_run",
]


def document_tokens(
    document: "str | bytes | bytearray | memoryview | Path | IO | Iterator[Token]",
    guide: "object | None" = None,
    interrupt: "Callable[[], None] | None" = None,
) -> Iterator[Token]:
    """Normalize a document argument into a token stream.

    Text is tokenized in memory (``str`` is encoded once; raw UTF-8
    ``bytes``/``bytearray``/``memoryview`` feed the bytes-domain lexer
    directly, skipping even that), a :class:`~pathlib.Path` or an open
    file through the mmap/chunked file tokenizer with bounded memory, and
    any other iterator is passed through untouched.  Every route that
    reads bytes here scans under ``guide`` (the run's matcher, the shared
    pass's product guide, or a certified query's chain guide), so
    subtrees dead to the projection arrive as
    :class:`~repro.xmlio.tokens.Skipped` counts (and the subtrees of
    certified matches and copy sites as :class:`~repro.xmlio.tokens.Span`).

    A pre-tokenised iterator is passed through as it is, so it must be
    unguided or scanned under this run's own guide: a stream scanned under
    another query's guide carries that query's ``Skipped`` and ``Span``
    tokens.  A lane refuses a ``Span`` below which it reads with a
    ``TypeError``, but a run fed the other guide's ``Skipped`` loses the
    subtrees they stand for without an error.

    ``interrupt`` is called once per delivered token (``Skipped`` and
    ``Span`` included) and aborts the pass by raising: it is how a consumer on another
    thread (``gcx serve``'s timeout and disconnect handling) stops a
    pass that is producing no output.
    """
    if isinstance(document, (str, bytes, bytearray, memoryview)):
        tokens = tokenize(document, guide=guide)
    elif isinstance(document, Path) or hasattr(document, "read"):
        tokens = tokenize_file(document, guide=guide)
    else:
        tokens = document
    return tokens if interrupt is None else _interruptible(tokens, interrupt)


def _interruptible(
    tokens: Iterator[Token], interrupt: Callable[[], None]
) -> Iterator[Token]:
    for token in tokens:
        interrupt()
        yield token


class _ReleaseGuard:
    """One-shot release of a run's checkout back to its session.

    Shared between the :class:`StreamingRun` and a :mod:`weakref`
    finalizer, so the session is notified exactly once on whichever comes
    first: exhaustion, ``close()``, an in-run error — or garbage
    collection of a run that was abandoned (a never-started generator
    does not run its ``finally`` when closed or collected, which would
    otherwise leak the checkout forever).

    The discard path may execute *inside the garbage collector* — cyclic
    GC can fire on any allocation, including one made while the very
    thread triggering it holds the session's (non-reentrant) lock — so
    :meth:`discard` takes no locks at all: it enqueues the buffer on the
    session's ``_dropped_runs`` list (a GIL-atomic append) and the session
    releases queued buffers from a normal call context
    (:meth:`QuerySession._reap_dropped_runs`).  Only :meth:`finish`
    releases synchronously; it runs exclusively inside ``next()`` on the
    run's iterator, never inside GC.
    """

    __slots__ = ("_session", "_buffer", "_done")

    def __init__(self, session: QuerySession, buffer: BufferTree) -> None:
        self._session = session
        self._buffer = buffer
        self._done = False

    def discard(self) -> None:
        """Queue the release of an abandoned run.  GC-safe: no locks."""
        if not self._done:
            self._done = True
            self._session._dropped_runs.append(self._buffer)

    def finish(self) -> None:
        """Release the checkout of a completed run."""
        if not self._done:
            self._done = True
            self._session._release_buffer(self._buffer, completed=True)


@dataclass(frozen=True)
class EngineOptions:
    """Runtime and analysis switches (the Section 6 optimizations).

    The defaults match the paper's prototype — every optimization on.  The
    ablation benchmarks toggle them individually; the flux-like baseline
    reuses the same machinery with ``eager_leaf_bindings=True`` and the
    dynamic refinements off.
    """

    aggregate_roles: bool = True
    early_updates: bool = True
    eliminate_redundant_roles: bool = True
    eager_leaf_bindings: bool = False  # push-based (flux-like) reading
    #: Assume documents conform to the compile-time schema (FluX's operating
    #: mode): schema-pruned patterns are dropped from the runtime artifacts.
    #: Off by default — the default engine only applies schema facts whose
    #: soundness does not depend on the input conforming (the zero-buffer
    #: direct runner detects violations structurally and falls back).
    trust_schema: bool = False
    #: Earliest query answering (docs/EARLINESS.md): flush output subtrees
    #: the moment their decided watermark passes instead of waiting for the
    #: close tag, and decide existential conditions at their first witness.
    #: Byte-identical output either way — only *when* bytes leave changes.
    #: Effective only with aggregate roles (the structural certificate) and
    #: not in the eager push-based baseline.
    earliness: bool = True
    #: Dispatch compile-time detected equi-join loops (docs/JOINS.md) to
    #: the streaming hash build/probe operator instead of the nested-loop
    #: evaluation.  Byte-identical output either way — the differential
    #: suites compare both paths; off restores the O(n*m) oracle.
    hash_joins: bool = True
    cost_model: BufferCostModel = field(default_factory=BufferCostModel)

    def compile_options(self) -> CompileOptions:
        """The static-analysis switches implied by these engine options."""
        return CompileOptions(
            early_updates=self.early_updates,
            eliminate_redundant=self.eliminate_redundant_roles,
        )


@dataclass
class RunResult:
    """The outcome of one query evaluation.

    ``output`` holds the serialized result when the run used a
    :class:`~repro.xmlio.serialize.StringSink` (the default); runs that
    streamed to a custom sink or through :class:`StreamingRun` leave it
    empty, because the tokens already went to their consumer.
    """

    output: str
    stats: BufferStats
    compiled: CompiledQuery
    elapsed_seconds: float
    exhausted_input: bool
    first_output_seconds: float | None = None

    @property
    def hwm_bytes(self) -> int:
        """Buffer high watermark in modelled bytes (the Table 1 number)."""
        return self.stats.hwm_bytes_modelled

    @property
    def hwm_nodes(self) -> int:
        """Buffer high watermark in live node count."""
        return self.stats.hwm_nodes


class StreamingRun:
    """One in-flight evaluation, consumed as an iterator of output tokens.

    Yields each output :class:`~repro.xmlio.tokens.Token` the moment the
    evaluator decides it; input is read on demand between tokens, so on a
    query whose first match occurs early the first token arrives after only
    a prefix of the input has been consumed.  Once the iterator is
    exhausted, :attr:`result` carries the :class:`RunResult` (statistics,
    timings, safety checks applied); until then it is ``None``.
    """

    def __init__(
        self,
        session: QuerySession,
        buffer: BufferTree,
        evaluator: "Evaluator | DirectEvaluator",
    ) -> None:
        self._session = session
        self._buffer = buffer
        # The run's own counters: its release resets the buffer, which may
        # then serve another run.
        self._stats = buffer.stats
        # The clock starts at the first next() — construction is free and
        # consumer think-time before iterating must not count as latency.
        self._started: float | None = None
        self._gen = self._generate(evaluator)
        #: Seconds from the first next() to the first output token (None
        #: until the first token, and forever on an empty result).
        self.first_output_seconds: float | None = None
        #: The RunResult, available once the iterator is exhausted.
        self.result: RunResult | None = None
        # The guard goes in LAST: once it exists, it owns the release, and
        # a construction failure before this point is the caller's to
        # clean up (run_streaming releases the checkout directly).  No
        # statement may follow it, or an __init__ error after the guard
        # would race the caller's cleanup against the GC finalizer.
        self._release = _ReleaseGuard(session, buffer)
        # Safety net for runs dropped without ever being iterated (their
        # generator's finally never runs): GC discards the checkout.  Not
        # at interpreter exit — the session may already be torn down then.
        self._finalizer = weakref.finalize(
            self, _ReleaseGuard.discard, self._release
        )
        self._finalizer.atexit = False

    # -- iteration ------------------------------------------------------

    def __iter__(self) -> "StreamingRun":
        return self

    def __next__(self) -> Token:
        if self._started is None:
            self._started = time.perf_counter()
        return next(self._gen)

    def close(self) -> None:
        """Abandon the run early; the partially filled buffer is discarded."""
        # A never-iterated generator does not run its finally on close(),
        # so the guard must fire here; otherwise closing (or an in-run
        # error, or exhaustion) reaches the generator's cleanup below.
        if self._started is None:
            self._release.discard()
        self._gen.close()

    def serialized(self, *, indent: str | None = None) -> Iterator[str]:
        """The run's output as an iterator of serialized text fragments."""
        return serialize_stream(self, indent=indent)

    @property
    def tokens_consumed(self) -> int:
        """Input tokens read so far — the emission-order oracle.

        Sampled between output tokens it tells a consumer (e.g. the serve
        layer's per-frame ``at`` field) how much input each fragment
        needed, which is how the earliness tests assert that first bytes
        leave before end-of-document.
        """
        return self._stats.tokens_read

    # -- internals ------------------------------------------------------

    def _generate(self, evaluator: Evaluator) -> Iterator[Token]:
        completed = False
        try:
            for token in evaluator.iter_tokens():
                if self.first_output_seconds is None:
                    self.first_output_seconds = (
                        time.perf_counter() - self._started
                    )
                yield token
            completed = True
        finally:
            # Exactly one release per run, completed or abandoned (close()
            # or a crash).  Without this an error mid-run would leak the
            # checkout and wedge a pool worker's slot forever.
            if completed:
                self._finalize()
            else:
                self._release.discard()

    def _finalize(self) -> None:
        assert self._started is not None  # finalize only runs via __next__
        elapsed = time.perf_counter() - self._started
        runtime = self._session.runtime
        try:
            check_safety(self._buffer)
        except BaseException:
            # A failed safety check means the buffer state is suspect:
            # release the checkout as abandoned (reset() clears it).
            self._release.discard()
            raise
        self.result = RunResult(
            output="",
            stats=self._stats,
            compiled=runtime.compiled,
            elapsed_seconds=elapsed,
            exhausted_input=self._buffer.document.finished,
            first_output_seconds=self.first_output_seconds,
        )
        self._release.finish()


class AggregateAccountant:
    """Live residency, and its peak, summed over many buffers at once.

    Attached (as :class:`~repro.buffer.stats.BufferAccountant`) to every
    buffer a :class:`~repro.engine.pool.SessionPool` checks out and to every
    lane buffer of a :class:`~repro.engine.multi.MultiQuerySession` pass:
    each node/role delta updates the live totals and their peaks under one
    small lock — the serving-layer and shared-pass analogue of the paper's
    per-run buffer high watermark.  The lock is touched only when a buffer
    grows or shrinks, never on the matcher's hit path.

    Residency that leaves in one piece — a run ending with nodes still
    buffered, an abandoned run's discarded buffer — is subtracted through
    :meth:`settle`, which only :meth:`QuerySession._release_buffer` calls
    (from a normal call context, with the session's checkout lock held:
    that lock is always taken first, this one second).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.live_nodes = 0
        self.live_bytes = 0
        self.peak_live_nodes = 0
        self.peak_live_bytes = 0

    def on_delta(self, nodes: int, cost: int) -> None:
        with self._lock:
            self.live_nodes += nodes
            self.live_bytes += cost
            if self.live_nodes > self.peak_live_nodes:
                self.peak_live_nodes = self.live_nodes
            if self.live_bytes > self.peak_live_bytes:
                self.peak_live_bytes = self.live_bytes

    def settle(self, nodes: int, cost: int) -> None:
        """Subtract residency whose buffer left in one piece."""
        with self._lock:
            self.live_nodes -= nodes
            self.live_bytes -= cost


class QueryRuntime:
    """One query's static half of Figure 11, and the wiring of its runs.

    Construction compiles once.  Query text or an AST is compiled with
    ``options.compile_options()`` against ``schema``; a
    :class:`~repro.analysis.compile.CompiledQuery` is adopted with whatever
    schema it was compiled against (``schema`` is then unused).  Either
    way, under ``options.trust_schema`` the trusted schema pruning
    (:func:`~repro.analysis.schema_constraints.apply_trusted_constraints`)
    is applied to the result — to adopted artifacts too.

    The runtime then holds what every run of the query shares:

    * one warm :class:`~repro.stream.matcher.StreamMatcher` — its lazy-DFA
      transition table is document-independent, so every run after the
      first replays warm transitions, and per-run state lives in the run's
      lane — and, for a schema-certified query, one lazily built
      :class:`~repro.engine.direct.ChainGuide`.  A guide that past
      documents grew beyond :data:`MATCHER_STATE_CAP` (DFA states scale
      with match-multiset variety, e.g. nesting depth under a descendant
      axis) is replaced before the next run; in-flight runs keep the guide
      they started with;
    * the evaluator gates that depend only on the compiled query and the
      options: the earliness output sites, the trusted single-match loops
      and the hash-join plan.

    :class:`QuerySession` (and so :class:`~repro.engine.pool.SessionPool`)
    and :class:`~repro.engine.multi.MultiQuerySession` build every run
    here, with buffers checked out of a :class:`QuerySession`.
    Thread-safe: the guides are swapped under one lock, everything else is
    immutable.
    """

    def __init__(
        self,
        query: Query | str | CompiledQuery,
        options: EngineOptions | None = None,
        *,
        schema: Schema | None = None,
    ) -> None:
        self.options = options = options or EngineOptions()
        if not isinstance(query, CompiledQuery):
            query = compile_query(query, options.compile_options(), schema=schema)
        if options.trust_schema:
            query = apply_trusted_constraints(query)
        self.compiled: CompiledQuery = query
        constraints = query.constraints
        # Schema-certified queries skip the buffered pipeline (see
        # streaming_run); the flux-like baseline keeps it, since its point
        # is to model the *buffered* push-based engine.
        self._direct = (
            constraints is not None
            and constraints.zero_buffer is not None
            and not options.eager_leaf_bindings
        )
        # ``None`` (as opposed to an empty set) switches the evaluator's
        # first-witness condition handling off as well, so
        # ``EngineOptions(earliness=False)`` really is the conservative
        # engine.  The single-match watermarks assume the document conforms
        # (a violating second match would be skipped), so they are handed
        # over in trusted mode only; the adversarial splicing suite relies
        # on that gate.
        plan = query.earliness
        self._earliness_sites = self._single_match_loops = None
        if (
            options.earliness
            and options.aggregate_roles
            and not options.eager_leaf_bindings
        ):
            self._earliness_sites = plan.streamable_sites if plan else frozenset()
            if options.trust_schema:
                self._single_match_loops = (
                    plan.single_match_loops if plan else frozenset()
                )
        self._join_plan = query.joinplan if options.hash_joins else None
        self._lock = threading.Lock()
        self._matcher = self._new_matcher()
        self._chain_guide: ChainGuide | None = None

    def _new_matcher(self) -> StreamMatcher:
        # Copy sites reach the scanner as COPY rows, except in the flux-like
        # baseline: a push-based engine streams every token of a binding
        # through its buffers, which is what that baseline models.
        copy_roles = self.compiled.copy_roles
        if self.options.eager_leaf_bindings:
            copy_roles = frozenset()
        return StreamMatcher(
            self.compiled.projection_tree,
            aggregate_roles=self.options.aggregate_roles,
            copy_roles=copy_roles,
        )

    # -- the warm guides --------------------------------------------------

    def matcher(self) -> StreamMatcher:
        """The shared warm matcher the next run reads."""
        with self._lock:
            if self._matcher.state_count > MATCHER_STATE_CAP:
                self._matcher = self._new_matcher()
            return self._matcher

    def chain_guide(self) -> ChainGuide:
        """The shared warm chain guide (schema-certified queries only)."""
        with self._lock:
            guide = self._chain_guide
            if guide is None or guide.size > MATCHER_STATE_CAP:
                from repro.engine.direct import ChainGuide

                guide = self._chain_guide = ChainGuide(
                    self.compiled.constraints.zero_buffer
                )
            return guide

    # -- run wiring --------------------------------------------------------

    def new_buffer(self) -> BufferTree:
        """An empty buffer for a session's checkout registry."""
        return BufferTree(self.options.cost_model)

    def lane_inputs(self, buffer: BufferTree, matcher: StreamMatcher) -> dict:
        """The keyword arguments of one run's :class:`ProjectionLane`."""
        return {
            "tree": self.compiled.projection_tree,
            "buffer": buffer,
            "aggregate_roles": self.options.aggregate_roles,
            "matcher": matcher,
            "accumulators": build_accumulators(self.compiled, buffer),
        }

    def evaluator(
        self,
        buffer: BufferTree,
        pull: Callable[[], bool],
        on_event: Callable[[str], None] | None = None,
    ) -> Evaluator:
        """One buffered run's evaluator, reading input through ``pull``
        (its pump's)."""
        return Evaluator(
            self.compiled.rewritten,
            buffer,
            pull,
            aggregate_roles=self.options.aggregate_roles,
            eager_leaf_bindings=self.options.eager_leaf_bindings,
            earliness_sites=self._earliness_sites,
            single_match_loops=self._single_match_loops,
            join_plan=self._join_plan,
            on_event=on_event,
        )

    def streaming_run(
        self,
        session: QuerySession,
        document: str | Path | Iterator[Token],
        buffer: BufferTree,
        *,
        on_event: Callable[[str], None] | None = None,
        interrupt: Callable[[], None] | None = None,
    ) -> StreamingRun:
        """Wire the dynamic half of Figure 11 for one single-query run.

        ``session`` has already checked out ``buffer`` (exclusive to this
        run); the returned :class:`StreamingRun` releases it exactly once.
        A schema-certified query short-circuits the whole buffered
        pipeline: the :class:`~repro.engine.direct.DirectEvaluator` streams
        input tokens straight to output with an empty buffer (and detects
        schema-violating nesting structurally, so the output stays
        byte-identical either way), its input scanned under the shared
        chain guide.
        """
        if self._direct:
            from repro.engine.direct import DirectEvaluator

            guide = self.chain_guide()
            direct = DirectEvaluator(
                guide,
                document_tokens(
                    document, guide=guide.for_run(buffer.stats), interrupt=interrupt
                ),
                buffer,
            )
            return StreamingRun(session, buffer, direct)
        matcher = self.matcher()
        preprojector = StreamPreprojector(
            document_tokens(
                document, guide=matcher.for_run(buffer.stats), interrupt=interrupt
            ),
            **self.lane_inputs(buffer, matcher),
        )
        evaluator = self.evaluator(buffer, preprojector.pull, on_event)
        return StreamingRun(session, buffer, evaluator)


class QuerySession:
    """A query compiled once, runnable over arbitrarily many documents.

    Construction builds the query's :class:`QueryRuntime` (or adopts one);
    every :meth:`run`/:meth:`run_streaming` afterwards only spins up the
    dynamic half of Figure 11.  Per-run state is fully isolated — a
    session never leaks buffered nodes, roles, cancellations or cursor
    positions from one document into the next — so interleaved, repeated
    and concurrent runs, from any number of threads, are safe.

    The session owns the one buffer checkout every front-end uses: a
    registry of checked-out buffers and a short idle list of reset ones
    (at most ``_idle_cap``: 1 here, ``max_workers`` for a
    :class:`~repro.engine.pool.SessionPool`).  A buffer checked out with
    an :class:`AggregateAccountant` (a pool's own, or a
    :class:`~repro.engine.multi.MultiQuerySession`'s for its lanes) has
    its residual residency settled by the release.
    """

    #: Observes every buffer this session checks out (a pool's aggregate).
    _accountant: AggregateAccountant | None = None
    #: A closed session refuses checkouts (only a pool closes).
    _closed = False

    def __init__(
        self,
        query: Query | str | CompiledQuery | QueryRuntime,
        options: EngineOptions | None = None,
        *,
        schema: Schema | None = None,
        _idle_cap: int = 1,
    ) -> None:
        if isinstance(query, QueryRuntime):
            if options is not None and options != query.options:
                raise ValueError("a QueryRuntime is adopted with its own options")
            self.runtime = query
        else:
            self.runtime = QueryRuntime(query, options, schema=schema)
        self.options = self.runtime.options
        #: Completed evaluations (streaming runs count on exhaustion).
        self.runs_completed = 0
        # The checkout registry maps id(buffer) -> (owning thread ident,
        # the buffer itself) and IS the owner assertion: checking out a
        # registered buffer raises.  Holding the buffer reference keeps a
        # registered id from ever aliasing a recycled address, so a leaked
        # checkout stays a diagnosable leak instead of a spurious violation.
        self._lock = threading.Lock()
        # Rides the same lock; notified whenever the registry empties.
        self._drain_cond = threading.Condition(self._lock)
        self._checked_out: dict[int, tuple[int, BufferTree]] = {}
        # Reset buffers kept for reuse; reset() preserves their tag symbol
        # tables, so same-schema documents skip re-interning.
        self._idle_buffers: list[BufferTree] = []
        self._idle_cap = _idle_cap
        # Buffers of abandoned runs, queued by their guards from GC-safe
        # contexts and released by the next _reap_dropped_runs.
        self._dropped_runs: list[BufferTree] = []
        self._buffers_created = 0
        self._runs_started = 0
        self._runs_abandoned = 0
        self._active_runs = 0
        self._peak_active_runs = 0

    @property
    def compiled(self) -> CompiledQuery:
        """The static-analysis artifacts, produced exactly once."""
        return self.runtime.compiled

    # -- evaluation -----------------------------------------------------

    def run(
        self,
        document: str | Path | Iterator[Token],
        *,
        sink: TokenSink | None = None,
        on_event: Callable[[str], None] | None = None,
    ) -> RunResult:
        """Evaluate over ``document`` (text, path, or token stream), buffered.

        With the default ``sink`` the full result text is returned in
        :attr:`RunResult.output`; pass a custom
        :class:`~repro.xmlio.serialize.TokenSink` (e.g. a
        :class:`~repro.xmlio.serialize.WriterSink` on a file) to stream
        the output elsewhere, in which case ``output`` stays empty.
        """
        stream = self.run_streaming(document, on_event=on_event)
        return drain_streaming_run(stream, sink)

    def run_streaming(
        self,
        document: str | Path | Iterator[Token],
        *,
        on_event: Callable[[str], None] | None = None,
        interrupt: Callable[[], None] | None = None,
    ) -> StreamingRun:
        """Evaluate over ``document``, yielding output tokens incrementally.

        ``document`` may be the document text, a :class:`~pathlib.Path` to
        an XML file (tokenized chunk-at-a-time with bounded memory via
        :func:`~repro.xmlio.filelexer.tokenize_file`), or any token
        iterator.  Returns a :class:`StreamingRun`; iterate it to drive the
        pipeline.  Nothing is read from the input before the first
        ``next()``.  Each run checks out its own buffer and reads the
        shared matcher, so any number of threads — and any number of
        interleaved runs per thread — may hold runs at once.
        ``interrupt`` rides the input stream (see :func:`document_tokens`):
        it is called per delivered token and aborts the run by raising.
        """
        buffer = self._checkout_buffer()
        try:
            return self.runtime.streaming_run(
                self, document, buffer, on_event=on_event, interrupt=interrupt
            )
        except BaseException:
            # No release guard exists until StreamingRun.__init__ ends,
            # so a construction failure returns the checkout here.
            self._release_buffer(buffer, completed=False)
            raise

    # -- the buffer checkout ----------------------------------------------

    def _checkout_buffer(
        self, accountant: AggregateAccountant | None = None
    ) -> BufferTree:
        """An exclusive, fresh-state buffer, registered to this thread.

        ``accountant`` (default: the session's own, if any) observes the
        buffer until its release.  The caller owns the checkout until a
        run's release guard exists: a failure in between must hand it back
        through :meth:`_release_buffer`.
        """
        self._reap_dropped_runs()  # abandoned checkouts free up first
        with self._lock:
            if self._closed:
                raise RuntimeError("SessionPool is closed")
            if self._idle_buffers:
                buffer = self._idle_buffers.pop()
            else:
                buffer = self.runtime.new_buffer()
                self._buffers_created += 1
            key = id(buffer)
            entry = self._checked_out.get(key)
            if entry is not None:  # the owner assertion
                raise RuntimeError(
                    f"buffer checkout violation: buffer {key:#x} is "
                    f"already held by thread {entry[0]}"
                )
            self._checked_out[key] = (threading.get_ident(), buffer)
            self._runs_started += 1
            self._active_runs += 1
            if self._active_runs > self._peak_active_runs:
                self._peak_active_runs = self._active_runs
        buffer.stats.accountant = accountant or self._accountant
        return buffer

    def _release_buffer(self, buffer: BufferTree, *, completed: bool) -> None:
        """Hand a checkout back: settle its residency, park it if room."""
        stats = buffer.stats
        accountant, stats.accountant = stats.accountant, None
        with self._lock:
            if self._checked_out.pop(id(buffer), None) is None:
                raise RuntimeError(
                    "buffer release violation: buffer was not checked out"
                )
            self._active_runs -= 1
            if completed:
                self.runs_completed += 1
            else:
                self._runs_abandoned += 1
            if accountant is not None:
                # An abandoned run's residue leaves with its buffer; a
                # completed run leaves what it had not yet freed.
                accountant.settle(stats.live_nodes, stats.live_bytes)
            # Reset here, not at checkout: neither an idle buffer nor one
            # a finished run still references may pin a document subtree.
            buffer.reset()
            if not self._closed and len(self._idle_buffers) < self._idle_cap:
                self._idle_buffers.append(buffer)  # past the cap: left to GC
            if not self._checked_out:
                self._drain_cond.notify_all()

    def _reap_dropped_runs(self) -> None:
        """Release the checkouts of abandoned runs queued by their guards.

        Called before taking the lock; ``pop()`` is GIL-atomic, so
        concurrent reapers each release a disjoint set of buffers.
        """
        dropped = self._dropped_runs
        while dropped:
            try:
                buffer = dropped.pop()
            except IndexError:  # another thread reaped the last one
                break
            self._release_buffer(buffer, completed=False)


def build_accumulators(
    compiled: CompiledQuery, buffer: BufferTree
) -> "AccumulatorRuntime | None":
    """A fresh per-run accumulator automaton, or ``None`` without aggregates.

    Read by :meth:`QueryRuntime.lane_inputs`, the one place that wires a
    :class:`ProjectionLane` for a compiled query: accumulable aggregate
    sites get their O(1) state fed by the lane's token hooks
    (:mod:`repro.engine.relops.aggregates`).
    """
    sites = collect_aggregate_sites(compiled.rewritten)
    if not sites:
        return None
    return AccumulatorRuntime(sites, buffer)


def drain_streaming_run(
    stream: StreamingRun, sink: TokenSink | None = None
) -> RunResult:
    """Exhaust ``stream`` into ``sink`` and return its :class:`RunResult`.

    With ``sink=None`` a fresh :class:`~repro.xmlio.serialize.StringSink`
    collects the output into ``RunResult.output``; a caller-provided sink
    is neither closed nor read back (it may be reused across runs).
    """
    out = sink if sink is not None else StringSink()
    for token in stream:
        out.write(token)
    if sink is None:
        # Only close sinks this drain created; a caller-provided sink is
        # the caller's to close (it may be reused across runs).
        out.close()
    result = stream.result
    assert result is not None  # the stream was exhausted above
    if sink is None:
        # Only a sink this drain created reflects exactly this run's
        # output; a caller's sink may carry text from earlier runs.
        result.output = out.getvalue()
    return result


def check_safety(buffer: BufferTree) -> None:
    """Section 3's safety requirements, checked dynamically after a run.

    A correct evaluation (1) removes every role instance it assigned —
    cancellations accounted separately — and (2) leaves the buffer empty
    once the input is exhausted.  Violations indicate a bug in the static
    analysis or the garbage collector and raise ``AssertionError``.
    """
    stats = buffer.stats
    if not stats.role_accounting_balanced():
        raise AssertionError(
            "role accounting unbalanced: "
            f"{stats.roles_assigned} assigned != {stats.roles_removed} removed "
            f"({stats.roles_cancelled} cancelled separately)"
        )
    if stats.live_role_instances != 0:
        raise AssertionError(
            f"{stats.live_role_instances} role instances left after evaluation"
        )
    if buffer.document.subtree_roles != 0:
        raise AssertionError("buffer still carries roles after evaluation")
    if buffer.document.finished and not buffer.is_empty():
        raise AssertionError(
            "input exhausted but the buffer is not empty:\n"
            + "\n".join(buffer.format_contents())
        )
