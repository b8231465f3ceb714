"""The multi-query shared-stream engine: N queries, one document scan.

A :class:`~repro.engine.pool.SessionPool` amortizes *compilation* across
requests, but serving K standing queries over the same document still
costs K full parses — on a single core the dominant cost.
:class:`MultiQuerySession` kills that: it evaluates N compiled queries in
a *single* token pass.  The document is tokenized exactly once; a
:class:`~repro.stream.shared.SharedPreprojector` routes each surviving
token to the subset of per-query lanes whose membership bitmask still
includes it (the dynamic form of the union projection tree's static
masks, :mod:`repro.analysis.union_tree`).

Everything per-query is reused from the single-query engine, unchanged:

* each query gets its own :class:`~repro.engine.session.QuerySession`,
  whose :class:`~repro.engine.session.QueryRuntime` holds the compile-once
  artifacts and the warm lazy-DFA matcher and builds the lane's inputs and
  its evaluator, and whose buffer checkout (the one every front-end uses)
  hands out and recycles the lane's buffer,
* each in-flight evaluation is an ordinary
  :class:`~repro.engine.session.StreamingRun` released to its session, so
  the release-guard machinery applies verbatim — a crashed or abandoned
  multi-run cannot leak a single buffer checkout,
* strict safety (:func:`~repro.engine.session.check_safety`) holds per
  query: role accounting balances lane by lane.

Single-query evaluation shares the lane but not the pump: a solo run's
:class:`~repro.stream.preprojector.StreamPreprojector` is a
:class:`~repro.stream.preprojector.ProjectionLane` that pumps itself,
while this module drives N lanes from one
:class:`~repro.stream.shared.SharedPreprojector`, whose ``pull`` every
member's evaluator calls directly.  The lane inputs and the evaluator are
wired by the same runtime methods either way.

An :class:`~repro.engine.session.AggregateAccountant`, handed to each
member's checkout, observes every lane's buffer (via the
:attr:`~repro.buffer.stats.BufferStats.accountant` hook) until the
member's release settles it, so :class:`MultiRunStats` reports the
*combined* residency peak of the whole pass — the multi-query analogue of
the paper's per-run buffer high watermark.  The module settles nothing
itself: a pass dropped without ``close()`` is settled when its runs'
queued releases are reaped (before the next pass and at every telemetry
read).

Unlike a :class:`~repro.engine.session.QuerySession`, a multi session is a
single-client object (its product guide and pass counter are unguarded);
use :meth:`~repro.engine.pool.SessionPool.map_multi` to fan a multi-query
workload over pool workers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from repro.analysis.compile import CompiledQuery
from repro.analysis.schema import Schema
from repro.analysis.union_tree import UnionProjection, build_union_projection
from repro.engine.session import (
    AggregateAccountant,
    EngineOptions,
    QueryRuntime,
    QuerySession,
    RunResult,
    StreamingRun,
    document_tokens,
)
from repro.stream.preprojector import ProjectionLane
from repro.stream.shared import ProductGuide, SharedPreprojector
from repro.xmlio.serialize import StringSink, TokenSink
from repro.xmlio.tokens import Token
from repro.xquery.ast import Query

__all__ = ["MultiQuerySession", "MultiRunStats", "MultiStreamingRun"]


@dataclass(frozen=True)
class MultiRunStats:
    """Telemetry of one shared pass over one document.

    ``tokens_read`` is the single-scan count — the number of tokens read
    from the input, *not* multiplied by the number of queries; the tests
    assert it equals one document scan.  ``lane_tokens``
    is each query's routed share of that scan, so
    ``sum(lane_tokens.values())`` against ``tokens_read * query_count``
    quantifies what the bitmask routing saved.  ``tokens_skipped`` is the
    part of ``tokens_read`` the product-guided scanner validated without
    building a token (dead to every query); zero on a pre-tokenised stream.
    """

    query_count: int
    tokens_read: int
    lane_tokens: dict[str, int]
    tokens_skipped: int
    peak_live_nodes: int
    peak_live_bytes: int

    @property
    def dispatched_tokens(self) -> int:
        """Per-lane token dispatches summed over all queries."""
        return sum(self.lane_tokens.values())

    @property
    def routing_savings(self) -> int:
        """Dispatches avoided vs. feeding every token to every query."""
        return self.tokens_read * self.query_count - self.dispatched_tokens

    def summary(self) -> str:
        return (
            f"{self.query_count} queries, one scan of {self.tokens_read} "
            f"tokens ({self.tokens_skipped} skipped at scan time); "
            f"{self.dispatched_tokens} lane dispatches "
            f"({self.routing_savings} saved by routing); aggregate hwm "
            f"{self.peak_live_nodes} nodes / {self.peak_live_bytes} bytes"
        )


class MultiStreamingRun:
    """One in-flight shared pass, consumed as ``(name, token)`` pairs.

    Iterating drives every query's evaluator round-robin, one output
    token per turn.  A pull by any of them feeds all lanes, and a query
    keeps its turn for as long as its tokens need no input, so queries
    whose data is already buffered drain it before more input is read.
    When a query's run completes, its
    :class:`~repro.engine.session.RunResult` lands in :attr:`results` and
    its lane is retired from the dispatch — the dynamic merged-signoff
    release.  :meth:`close` abandons every still-open per-query run; each
    run's release guard returns its checkout exactly once, crash or not,
    and the release settles the lane's residency out of the aggregate.
    The pass counts in its session's ``runs_completed`` when its last run
    completes.
    """

    def __init__(
        self,
        session: MultiQuerySession,
        shared: SharedPreprojector,
        runs: list[tuple[str, StreamingRun]],
    ) -> None:
        self._session = session
        self._shared = shared
        self._runs = runs
        #: RunResult per query name, filled in as each run completes.
        self.results: dict[str, RunResult] = {}
        self._closed = False
        self._gen = self._generate()

    # -- iteration ------------------------------------------------------

    def __iter__(self) -> "MultiStreamingRun":
        return self

    def __next__(self) -> tuple[str, Token]:
        return next(self._gen)

    def _generate(self) -> Iterator[tuple[str, Token]]:
        shared = self._shared
        live: deque[tuple[int, str, StreamingRun]] = deque(
            (index, name, run) for index, (name, run) in enumerate(self._runs)
        )
        while live:
            member = index, name, run = live.popleft()
            read = shared.tokens_read
            try:
                token = next(run)
            except StopIteration:
                # The run executed its last signOff and finalized: retire
                # the lane so no further input is matched on its behalf
                # (its buffer already went back to its session).
                self.results[name] = run.result
                shared.retire(index)
                continue
            except BaseException:
                # One query poisoned the pass: abandon the others so their
                # checkouts go home, then surface the original error.
                # (Only the runs — this generator is currently executing
                # and cannot close itself; it dies by raising.)
                self._abandon_open_runs()
                raise
            if shared.tokens_read == read:
                live.appendleft(member)  # answered from its buffer: go on
            else:
                live.append(member)
            yield (name, token)
        self._session.runs_completed += 1

    def close(self) -> None:
        """Abandon every per-query run that has not completed."""
        self._abandon_open_runs()
        self._gen.close()

    def _abandon_open_runs(self) -> None:
        if self._closed:
            return
        self._closed = True
        for index, (name, run) in enumerate(self._runs):
            if name not in self.results:
                self._shared.retire(index)
                run.close()

    # -- telemetry ------------------------------------------------------

    @property
    def stats(self) -> MultiRunStats:
        """A snapshot of the shared-pass telemetry (stable once drained)."""
        self._session._reap_dropped_runs()
        accountant = self._session._accountant
        return MultiRunStats(
            query_count=len(self._runs),
            tokens_read=self._shared.tokens_read,
            lane_tokens={name: run.tokens_consumed for name, run in self._runs},
            tokens_skipped=self._shared.tokens_skipped,
            peak_live_nodes=accountant.peak_live_nodes,
            peak_live_bytes=accountant.peak_live_bytes,
        )


class MultiQuerySession:
    """N compiled queries evaluated over each document in a single scan.

    Construction compiles every query exactly once (or adopts
    pre-:class:`~repro.analysis.compile.CompiledQuery` artifacts) and
    derives the union projection tree; every :meth:`run` /
    :meth:`run_streaming` afterwards spins up only the dynamic half — N
    lanes behind one tokenizer.  Queries are given as a mapping from name
    to query (text, AST, compiled, or a
    :class:`~repro.engine.session.QueryRuntime`, adopted with its own
    options), or as a plain sequence (named ``q0..qN-1``).

    Unlike a :class:`~repro.engine.session.QuerySession`, a multi session
    is single-client: runs are driven from one thread at a time.
    """

    def __init__(
        self,
        queries: Mapping[str, Query | str | CompiledQuery | QueryRuntime]
        | Sequence[Query | str | CompiledQuery | QueryRuntime],
        options: EngineOptions | None = None,
        *,
        schema: Schema | None = None,
    ) -> None:
        self.options = options or EngineOptions()
        if isinstance(queries, Mapping):
            named = list(queries.items())
        else:
            named = [(f"q{i}", query) for i, query in enumerate(queries)]
        if not named:
            raise ValueError("MultiQuerySession needs at least one query")
        if len({name for name, _query in named}) != len(named):
            raise ValueError("query names must be unique")
        self.names: tuple[str, ...] = tuple(name for name, _query in named)
        # Each member's QueryRuntime compiles it (``schema`` and trust as
        # QueryRuntime documents).  The shared pass wires its own lanes, so
        # certified members keep the generic evaluator — the schema's value
        # in a multi session is the constraint report, not the direct
        # runner.
        self.sessions: dict[str, QuerySession] = {
            name: QuerySession(query, options, schema=schema)
            for name, query in named
        }
        #: The merged static analysis: membership bitmasks + signoff table.
        self.union: UnionProjection = build_union_projection(
            [
                self.sessions[name].compiled.projection_tree
                for name in self.names
            ]
        )
        self._accountant = AggregateAccountant()
        # The product of the members' scan guides, kept across passes for
        # its memoised rows; rebuilt when a runtime recycles its matcher.
        self._guide: ProductGuide | None = None
        #: Completed shared passes (every query ran to completion), counted
        #: by run() and run_streaming() alike.
        self.runs_completed = 0

    @property
    def query_count(self) -> int:
        return len(self.names)

    def compiled(self, name: str) -> CompiledQuery:
        """The static artifacts of one member query."""
        return self.sessions[name].compiled

    def format_union(self) -> str:
        """The union projection tree rendered with query-name masks."""
        return self.union.format(self.names)

    # -- evaluation -----------------------------------------------------

    def run_streaming(
        self, document: str | Path | Iterator[Token]
    ) -> MultiStreamingRun:
        """Start one shared pass; iterate the result to drive it.

        ``document`` may be text, a :class:`~pathlib.Path` (chunked file
        tokenization with bounded memory), or any token iterator; it is
        tokenized exactly once regardless of the number of queries.
        """
        self._reap_dropped_runs()  # settle GC-abandoned passes first
        sessions = list(self.sessions.values())
        # Check out one buffer per query up front, each observed by the
        # aggregate; until a run's release guard exists the checkout is
        # ours to return on failure.
        buffers: list = []
        runs: list[tuple[str, StreamingRun]] = []
        try:
            for session in sessions:
                buffers.append(session._checkout_buffer(self._accountant))
            matchers = tuple(session.runtime.matcher() for session in sessions)
            lanes = [
                ProjectionLane(**session.runtime.lane_inputs(buffer, matcher))
                for session, buffer, matcher in zip(sessions, buffers, matchers)
            ]
            if self._guide is None or self._guide.guides != matchers:
                self._guide = ProductGuide(matchers)
            guide = self._guide.for_run([buffer.stats for buffer in buffers])
            shared = SharedPreprojector(document_tokens(document, guide=guide), lanes)
            for name, session, buffer in zip(self.names, sessions, buffers):
                evaluator = session.runtime.evaluator(buffer, shared.pull)
                runs.append((name, StreamingRun(session, buffer, evaluator)))
        except BaseException:
            # Runs already constructed own their releases; checkouts past
            # that point must be handed back here or their sessions wedge.
            for session, buffer in zip(sessions[len(runs) :], buffers[len(runs) :]):
                session._release_buffer(buffer, completed=False)
            for _name, run in runs:
                run.close()
            raise
        return MultiStreamingRun(self, shared, runs)

    def run(
        self,
        document: str | Path | Iterator[Token],
        *,
        sinks: Mapping[str, TokenSink] | None = None,
    ) -> dict[str, RunResult]:
        """Evaluate all queries over ``document``, buffered, in one scan.

        Returns one :class:`~repro.engine.session.RunResult` per query
        name, in query order.  With the default sinks each result's
        ``output`` holds that query's serialized text; caller-provided
        sinks receive their query's tokens instead (and ``output`` stays
        empty), mirroring :meth:`QuerySession.run`.
        """
        stream = self.run_streaming(document)
        own_sinks: dict[str, StringSink] = {}
        outs: dict[str, TokenSink] = {}
        for name in self.names:
            if sinks is not None and name in sinks:
                outs[name] = sinks[name]
            else:
                outs[name] = own_sinks[name] = StringSink()
        for name, token in stream:
            outs[name].write(token)
        results = {name: stream.results[name] for name in self.names}
        for name, sink in own_sinks.items():
            sink.close()
            results[name].output = sink.getvalue()
        # Note on timing: each result's elapsed_seconds spans that run's
        # first next() to its finalize.  Under the interleaved drive the
        # spans overlap, so they attribute the *pass*, not the query —
        # time the run_streaming drain for the pass wall-clock.
        return results

    # -- telemetry ------------------------------------------------------

    @property
    def peak_live_nodes(self) -> int:
        """Aggregate buffered-node peak across all lanes, all passes."""
        self._reap_dropped_runs()
        return self._accountant.peak_live_nodes

    @property
    def peak_live_bytes(self) -> int:
        """Aggregate modelled-byte peak across all lanes, all passes."""
        self._reap_dropped_runs()
        return self._accountant.peak_live_bytes

    def _reap_dropped_runs(self) -> None:
        """Release the member runs dropped without ``close()``, settling
        their lanes' residency out of the aggregate."""
        for session in self.sessions.values():
            session._reap_dropped_runs()
