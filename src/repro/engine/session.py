"""Compile-once/run-many query sessions with incremental output.

The paper's architecture (Figure 11) separates a purely static phase —
normalization, projection-tree derivation, signOff insertion — from the
streaming runtime.  :class:`QueryRuntime` makes that split first-class: it
holds the static half, computed once per query (the compiled query, the
lazy-DFA matcher, the chain guide, the evaluator gates), and wires the
dynamic half of every run (buffer, lane, evaluator).  The three
front-ends — :class:`QuerySession`, :class:`~repro.engine.pool.SessionPool`
and :class:`~repro.engine.multi.MultiQuerySession` — build their runs
through it and differ only in how they check buffers out.  Each run has
fully isolated dynamic state; between runs the
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
from typing import IO, TYPE_CHECKING, Callable, Iterator, Protocol

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
    from repro.engine.direct import ChainGuide

#: A shared matcher whose lazy DFA outgrows this many states is replaced
#: with a fresh one on the next run (bounds session-lifetime memory; normal
#: query/document mixes stay well under it — XMark queries intern < 100).
MATCHER_STATE_CAP = 4096

__all__ = [
    "EngineOptions",
    "RunResult",
    "RunOwner",
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
    :class:`~repro.xmlio.tokens.Skipped` counts (and copied matches as
    :class:`~repro.xmlio.tokens.Span`); a pre-tokenised iterator is by
    construction unguided.

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


class RunOwner(Protocol):
    """What a :class:`StreamingRun` needs from whoever started it.

    Every front-end's checkout policy implements this: the run reads its
    query's :class:`QueryRuntime` and calls back exactly once —
    ``_on_run_finished`` when the output was exhausted and the buffer can
    be recycled, or ``_on_run_closed`` when the run was abandoned or died
    and the buffer must be discarded.
    """

    runtime: QueryRuntime
    #: Guards of abandoned runs awaiting reclamation (see _ReleaseGuard).
    _dropped_runs: list

    def _on_run_finished(self, buffer: BufferTree) -> None: ...

    def _on_run_closed(self, buffer: BufferTree) -> None: ...


class _ReleaseGuard:
    """One-shot release of a run's checkout back to its owner.

    Shared between the :class:`StreamingRun` and a :mod:`weakref`
    finalizer, so the owner is notified exactly once on whichever comes
    first: exhaustion, ``close()``, an in-run error — or garbage
    collection of a run that was abandoned (a never-started generator
    does not run its ``finally`` when closed or collected, which would
    otherwise leak the checkout forever).

    The discard path may execute *inside the garbage collector* — cyclic
    GC can fire on any allocation, including one made while the very
    thread triggering it holds the owner's (non-reentrant) lock — so
    :meth:`discard` takes no locks at all: it enqueues the guard on the
    owner's ``_dropped_runs`` list (a GIL-atomic append) and the owner
    reclaims queued guards from a normal call context via
    :func:`reap_dropped_runs`.  Only :meth:`finish` releases
    synchronously; it runs exclusively inside ``next()`` on the run's
    iterator, never inside GC.
    """

    __slots__ = ("_owner", "_buffer", "_done")

    def __init__(self, owner: RunOwner, buffer: BufferTree) -> None:
        self._owner = owner
        self._buffer = buffer
        self._done = False

    def discard(self) -> None:
        """Queue the release, buffer to be discarded.  GC-safe: no locks."""
        if not self._done:
            self._done = True
            self._owner._dropped_runs.append(self)

    def finish(self) -> None:
        """Release with the buffer recycled (completed run)."""
        if not self._done:
            self._done = True
            self._owner._on_run_finished(self._buffer)

    def _reclaim(self) -> None:
        """Perform the queued release (normal call context only)."""
        self._owner._on_run_closed(self._buffer)


def reap_dropped_runs(owner: RunOwner) -> None:
    """Reclaim checkouts of abandoned runs queued by their guards.

    Owners call this at the top of their entry points, *before* taking
    their own locks.  ``pop()`` is GIL-atomic, so concurrent reapers each
    reclaim a disjoint set of guards.
    """
    dropped = owner._dropped_runs
    while dropped:
        try:
            guard = dropped.pop()
        except IndexError:  # another thread reaped the last one
            break
        guard._reclaim()


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
        owner: RunOwner,
        buffer: BufferTree,
        preprojector: StreamPreprojector,
        evaluator: Evaluator,
    ) -> None:
        self._owner = owner
        self._buffer = buffer
        self._preprojector = preprojector
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
        self._release = _ReleaseGuard(owner, buffer)
        # Safety net for runs dropped without ever being iterated (their
        # generator's finally never runs): GC discards the checkout.  Not
        # at interpreter exit — the owner may already be torn down then.
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
        return self._buffer.stats.tokens_read

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
            # Exactly one owner callback per run: abandoned (close()) and
            # crashed runs discard their buffer; completed runs recycle it.
            # Without this an error mid-run would leak the checkout and
            # wedge a pool worker's slot forever.
            if completed:
                self._finalize()
            else:
                self._release.discard()

    def _finalize(self) -> None:
        assert self._started is not None  # finalize only runs via __next__
        elapsed = time.perf_counter() - self._started
        runtime = self._owner.runtime
        try:
            check_safety(self._buffer, self._preprojector)
        except BaseException:
            # A failed safety check means the buffer state is suspect:
            # release the checkout but do not recycle the buffer.
            self._release.discard()
            raise
        self.result = RunResult(
            output="",
            stats=self._buffer.stats,
            compiled=runtime.compiled,
            elapsed_seconds=elapsed,
            exhausted_input=self._preprojector.exhausted,
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
    :meth:`settle`.  A settlement decided inside the garbage collector
    (whose finalizers may fire while this very lock is held, the hazard
    :class:`_ReleaseGuard` documents) only appends to :attr:`pending`, a
    GIL-atomic list, and is applied from a normal call context by
    :meth:`reap`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (nodes, bytes) settlements queued from GC contexts.
        self.pending: list[tuple[int, int]] = []
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

    def reap(self) -> None:
        """Apply the settlements queued from GC contexts (normal context)."""
        pending = self.pending
        while pending:
            try:
                nodes, cost = pending.pop()
            except IndexError:  # another thread reaped the last entry
                break
            self.settle(nodes, cost)


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

    :class:`QuerySession`, :class:`~repro.engine.pool.SessionPool` and
    :class:`~repro.engine.multi.MultiQuerySession` build every run here;
    each keeps only its own buffer checkout policy.  Thread-safe: the
    guides are swapped under one lock, everything else is immutable.
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
        return StreamMatcher(
            self.compiled.projection_tree,
            aggregate_roles=self.options.aggregate_roles,
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
        """An empty buffer for a checkout policy's pool of buffers."""
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
        source: object,
        on_event: Callable[[str], None] | None = None,
    ) -> Evaluator:
        """One buffered run's evaluator, pulling input from ``source``."""
        return Evaluator(
            self.compiled.rewritten,
            buffer,
            source,
            None,
            aggregate_roles=self.options.aggregate_roles,
            eager_leaf_bindings=self.options.eager_leaf_bindings,
            earliness_sites=self._earliness_sites,
            single_match_loops=self._single_match_loops,
            join_plan=self._join_plan,
            on_event=on_event,
        )

    def streaming_run(
        self,
        owner: RunOwner,
        document: str | Path | Iterator[Token],
        buffer: BufferTree,
        *,
        on_event: Callable[[str], None] | None = None,
        interrupt: Callable[[], None] | None = None,
    ) -> StreamingRun:
        """Wire the dynamic half of Figure 11 for one single-query run.

        ``owner`` has already checked out ``buffer`` (exclusive to this
        run); the returned :class:`StreamingRun` reports back to it exactly
        once.  A schema-certified query short-circuits the whole buffered
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
                buffer.stats,
                self.options.cost_model,
            )
            return StreamingRun(owner, buffer, direct, direct)
        matcher = self.matcher()
        preprojector = StreamPreprojector(
            document_tokens(document, guide=matcher, interrupt=interrupt),
            **self.lane_inputs(buffer, matcher),
        )
        evaluator = self.evaluator(buffer, preprojector, on_event)
        return StreamingRun(owner, buffer, preprojector, evaluator)


class QuerySession:
    """A query compiled once, runnable over arbitrarily many documents.

    Construction builds the query's :class:`QueryRuntime` (or adopts one);
    every :meth:`run`/:meth:`run_streaming` afterwards only spins up the
    dynamic half of Figure 11.  Per-run state is fully isolated — a
    session never leaks buffered nodes, roles, cancellations or cursor
    positions from one document into the next — so interleaved and
    repeated runs are safe.  The session's own part is its checkout
    policy: one spare buffer and the single-client thread guard.
    """

    def __init__(
        self,
        query: Query | str | CompiledQuery | QueryRuntime,
        options: EngineOptions | None = None,
        *,
        schema: Schema | None = None,
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
        # Guards the spare-buffer slot and the in-flight accounting below.
        # A session is a single-client object: the lock makes the checkout
        # bookkeeping race-free, and the owner-thread guard turns
        # cross-thread concurrent use into a clear error instead of
        # corrupted state (use SessionPool for that).
        self._lock = threading.Lock()
        self._active_streams = 0
        self._stream_owner: int | None = None  # thread ident
        # Abandoned runs queue their guards here from GC-safe contexts;
        # reaped (outside the lock) at the next run_streaming.
        self._dropped_runs: list = []
        # One finished buffer is kept for reuse; reset() preserves its tag
        # symbol table, so same-schema documents skip re-interning.
        self._spare_buffer: BufferTree | None = None

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
    ) -> StreamingRun:
        """Evaluate over ``document``, yielding output tokens incrementally.

        ``document`` may be the document text, a :class:`~pathlib.Path` to
        an XML file (tokenized chunk-at-a-time with bounded memory via
        :func:`~repro.xmlio.filelexer.tokenize_file`), or any token
        iterator.  Returns a :class:`StreamingRun`; iterate it to drive the
        pipeline.  Nothing is read from the input before the first
        ``next()``.

        Interleaved streaming runs are supported *on one thread* (each run
        gets its own buffer; the shared matcher's per-run state lives in
        the run's frames).  Starting a streaming run from a second thread
        while another thread's run is in flight raises ``RuntimeError``:
        the session's checkout bookkeeping is single-client by design —
        use :class:`~repro.engine.pool.SessionPool` for concurrent serving.
        """
        buffer = self._begin_streaming_run()
        try:
            return self.runtime.streaming_run(self, document, buffer, on_event=on_event)
        except BaseException:
            # The run's release guard does not exist yet (it is the last
            # thing StreamingRun.__init__ creates), so a construction
            # failure must hand the checkout back here or the in-flight
            # accounting would wedge every other thread forever.
            self._on_run_closed(buffer)
            raise

    def _begin_streaming_run(self) -> BufferTree:
        """Check out a buffer for one new streaming run.

        The in-flight accounting half of :meth:`run_streaming`, shared
        with the multi-query engine (which wires its own lane before
        constructing the :class:`StreamingRun`).  The caller owns the
        checkout until a run's release guard exists: a construction
        failure in between must hand it back through
        :meth:`_on_run_closed` or the session wedges.
        """
        reap_dropped_runs(self)  # settle abandoned runs before the lock
        ident = threading.get_ident()
        with self._lock:
            if self._active_streams and self._stream_owner != ident:
                raise RuntimeError(
                    "QuerySession has a streaming run in flight on thread "
                    f"{self._stream_owner} (this is thread {ident}); a "
                    "session's buffer checkout is single-client.  "
                    "For concurrent evaluation share one "
                    "repro.engine.pool.SessionPool across threads, or serve "
                    "clients over the network with `gcx serve` "
                    "(repro.serve)."
                )
            self._stream_owner = ident
            self._active_streams += 1
            # The recycled spare if there is one: concurrent (interleaved)
            # runs each get their own buffer, and the spare slot only ever
            # holds a buffer whose run has completed.
            spare, self._spare_buffer = self._spare_buffer, None
        return spare if spare is not None else self.runtime.new_buffer()

    # -- run-owner callbacks (invoked by StreamingRun exactly once) -----

    def _on_run_finished(self, buffer: BufferTree) -> None:
        with self._lock:
            self.runs_completed += 1
            if self._spare_buffer is None:
                # Reset before parking (not at acquire): a run that ended
                # without exhausting its input may still hold buffered
                # nodes, and an idle session must not pin a document
                # subtree in memory.  reset() keeps the tag table warm.
                self._spare_buffer = buffer.reset()
            self._leave_stream_locked()

    def _on_run_closed(self, buffer: BufferTree) -> None:
        # Abandoned/crashed run: the partially filled buffer is discarded
        # (not parked), but the in-flight accounting must still drop.
        with self._lock:
            self._leave_stream_locked()

    def _leave_stream_locked(self) -> None:
        self._active_streams -= 1
        if self._active_streams == 0:
            self._stream_owner = None


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


def check_safety(buffer: BufferTree, preprojector: StreamPreprojector) -> None:
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
    if preprojector.exhausted and not buffer.is_empty():
        raise AssertionError(
            "input exhausted but the buffer is not empty:\n"
            + "\n".join(buffer.format_contents())
        )
