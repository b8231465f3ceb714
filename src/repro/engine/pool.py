"""Concurrent session pool: serving one compiled query to many clients.

The paper's argument — static analysis plus active garbage collection keep
each run's buffer bounded — is exactly what makes *concurrent* serving
viable: N in-flight evaluations cost N small buffers, not N documents.
:class:`SessionPool` turns that into an API.  It is a
:class:`~repro.engine.session.QuerySession`, so it splits the engine's
state the way docs/CONCURRENCY.md describes:

* **Shared static state** (computed once, immutable afterwards): the
  query's :class:`~repro.engine.session.QueryRuntime` — the
  :class:`~repro.analysis.compile.CompiledQuery` and one
  :class:`~repro.stream.matcher.StreamMatcher` whose interned lazy-DFA
  transition table is safely shareable — states are immutable after
  publish, and the only lock sits on the memoization miss path, so the hot
  hit path stays lock-free.  Every concurrent run warms the table for all
  the others.
* **Checked-out dynamic state** (exclusive per run): the session's one
  buffer checkout, whose registry raises instead of handing one
  :class:`~repro.buffer.buffer.BufferTree` to two runs, with up to
  ``max_workers`` reset buffers kept warm between runs.  The matcher's
  per-run dynamic state (the :class:`~repro.stream.matcher.MatchFrame`
  stack and consumed-``[1]`` bookkeeping) lives inside each run's
  preprojector, so it needs no pooling at all.

What the pool adds is an
:class:`~repro.engine.session.AggregateAccountant` on every checkout,
which maintains the *pool-wide* live residency and its peak
(``PoolStats.peak_live_nodes`` / ``peak_live_bytes``) — the
serving-layer analogue of the paper's per-run buffer high watermark — and
an executor.  ``submit``/``map`` run on a ``ThreadPoolExecutor`` sharing
the compiled query and the warm DFA across workers.  Under CPython's GIL
this does not parallelize the CPU work; its win is amortization (compile
once, warm matcher/buffers) plus overlap with any I/O in tokenization.

``map`` is ordered and backpressured: at most a bounded window of work is
in flight, and the ``documents`` iterable is consumed lazily, so a pool
can serve an unbounded request stream with bounded memory on both the
input and the output side.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.analysis.compile import CompiledQuery
from repro.analysis.schema import Schema
from repro.engine.session import (
    AggregateAccountant,
    EngineOptions,
    QueryRuntime,
    QuerySession,
    RunResult,
)
from repro.stream.matcher import StreamMatcher

__all__ = ["PoolResult", "PoolStats", "SessionPool"]


@dataclass(frozen=True)
class PoolResult:
    """Slim outcome of one pooled evaluation.

    ``submit``/``map``/``map_multi`` return these instead of full
    :class:`~repro.engine.session.RunResult` objects: a completed future
    holds only the output and the numbers the serving layer cares about,
    not a reference to the compiled query.
    """

    output: str
    hwm_nodes: int
    #: Raw modelled cost (no duplication factor applied), the same unit
    #: as the pool-wide ``PoolStats.peak_live_bytes`` aggregate — per-run
    #: and pool-wide figures must be directly comparable.
    hwm_bytes: int
    tokens_read: int
    elapsed_seconds: float
    first_output_seconds: float | None

    @classmethod
    def from_run(cls, result: RunResult) -> "PoolResult":
        return cls(
            output=result.output,
            hwm_nodes=result.stats.hwm_nodes,
            hwm_bytes=result.stats.hwm_bytes,
            tokens_read=result.stats.tokens_read,
            elapsed_seconds=result.elapsed_seconds,
            first_output_seconds=result.first_output_seconds,
        )


@dataclass(frozen=True)
class PoolStats:
    """A consistent snapshot of the pool-wide accounting.

    The ``live_*``/``peak_live_*`` fields aggregate over *all* buffers
    checked out at the same time — the number a capacity planner needs,
    where per-run statistics only bound one client.  ``map_multi`` runs
    count in the run counters but check no buffer out of the pool, so they
    add nothing to the live aggregates.
    """

    max_workers: int
    runs_started: int
    runs_completed: int
    runs_abandoned: int
    active_runs: int
    peak_active_runs: int
    live_nodes: int
    live_bytes: int
    peak_live_nodes: int
    peak_live_bytes: int
    buffers_created: int
    #: Buffers currently held by in-flight (or leaked) runs — the number
    #: the serving layer's exactly-once release invariant drives to zero
    #: after every fault.  The snapshot reaps abandoned runs first, so a
    #: run whose guard was discarded no longer counts here.
    outstanding_checkouts: int = 0

    def summary(self) -> str:
        return (
            f"{self.runs_completed} runs "
            f"({self.runs_abandoned} abandoned) on "
            f"{self.max_workers} thread worker(s); "
            f"aggregate hwm {self.peak_live_nodes} nodes / "
            f"{self.peak_live_bytes} bytes across "
            f"{self.peak_active_runs} concurrent run(s); "
            f"{self.buffers_created} buffer(s) allocated"
        )


class SessionPool(QuerySession):
    """Thread-safe serving of one compiled query to N concurrent clients.

    A :class:`~repro.engine.session.QuerySession` — same construction,
    same :meth:`run`/:meth:`run_streaming` on the calling thread, same
    buffer checkout, with up to ``max_workers`` idle buffers kept warm —
    that adds an :class:`~repro.engine.session.AggregateAccountant` to
    every checkout (the pool-wide :attr:`stats`) and a lazily created
    executor for :meth:`submit` and :meth:`map`.

    Use as a context manager (or call :meth:`close`) to shut the executor
    down; an unclosed pool's threads are daemonic only insofar as
    ``ThreadPoolExecutor`` allows, so closing is good manners.
    """

    def __init__(
        self,
        query: str | CompiledQuery,
        options: EngineOptions | None = None,
        *,
        schema: Schema | None = None,
        max_workers: int = 4,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        super().__init__(query, options, schema=schema, _idle_cap=max_workers)
        self.max_workers = max_workers
        # Kept for map_multi's member queries.
        self._schema = schema
        self._accountant = AggregateAccountant()
        self._executor: ThreadPoolExecutor | None = None
        # _closing rejects *new* submissions while close() drains the
        # queued work; _closed (set once the drain finished) additionally
        # rejects checkouts, i.e. direct run/run_streaming calls.
        self._closing = False

    @property
    def matcher(self) -> StreamMatcher:
        """The shared matcher the next run reads (warmed by all runs)."""
        return self.runtime.matcher()

    @property
    def stats(self) -> PoolStats:
        """A snapshot of the pool-wide accounting."""
        self._reap_dropped_runs()  # settle abandoned runs first
        acct = self._accountant
        with self._lock, acct._lock:
            return PoolStats(
                max_workers=self.max_workers,
                runs_started=self._runs_started,
                runs_completed=self.runs_completed,
                runs_abandoned=self._runs_abandoned,
                active_runs=self._active_runs,
                peak_active_runs=self._peak_active_runs,
                live_nodes=acct.live_nodes,
                live_bytes=acct.live_bytes,
                peak_live_nodes=acct.peak_live_nodes,
                peak_live_bytes=acct.peak_live_bytes,
                buffers_created=self._buffers_created,
                outstanding_checkouts=len(self._checked_out),
            )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Shut down the executor; in-flight work completes first.

        "In flight" includes work queued but not yet started: the closed
        flag that fails checkouts is only raised *after* the executor has
        drained, so every accepted future resolves normally.
        """
        self._reap_dropped_runs()
        with self._lock:
            if self._closed or self._closing:
                return
            self._closing = True
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)
        with self._lock:
            self._closed = True

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no buffer is checked out; ``True`` when idle.

        The serving layer's drain hook: after the front-end stops feeding
        a pool, this waits for the in-flight runs to settle — including
        abandoned ones, whose guards release through ``_dropped_runs``
        (reaped here, since a discarded guard sends no notification).
        Blocking, so an asyncio caller runs it via ``run_in_executor``.
        Returns ``False`` if ``timeout`` elapsed with checkouts still
        outstanding.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            self._reap_dropped_runs()
            with self._drain_cond:
                if not self._checked_out:
                    return True
                # Cap each wait: abandoned-run releases arrive through the
                # reap above, not through a notify.
                wait = 0.05
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    wait = min(wait, remaining)
                self._drain_cond.wait(wait)

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pooled evaluation ----------------------------------------------

    def submit(self, document: str | Path) -> "Future[PoolResult]":
        """Schedule one evaluation on the pool; returns a future.

        Futures resolve to :class:`PoolResult`.  Exceptions raised by the
        evaluation surface through ``future.result()`` as usual, with the
        document that raised as their ``document`` attribute.
        """
        return self._ensure_executor().submit(self._serve_one, document)

    def map(
        self,
        documents: Iterable[str | Path],
        *,
        chunksize: int = 1,
        window: int | None = None,
    ) -> Iterator[PoolResult]:
        """Ordered, backpressured evaluation of many documents.

        Yields one :class:`PoolResult` per document, in input order.  At
        most ``window`` chunks (default ``2 * max_workers``) are in flight
        at once and ``documents`` is consumed lazily, so both sides stay
        bounded however long the request stream is.  ``chunksize`` batches
        several documents per task — worth using when the documents are
        small enough that per-task dispatch overhead would dominate.  A
        failed evaluation raises out of the iteration with the document
        that failed as its ``document`` attribute (its whole chunk fails).
        """
        executor = self._ensure_executor()

        def submit_chunk(chunk: list[str | Path]) -> Future:
            # Chunks are submitted lazily as the caller iterates; re-check
            # here so iterating a leftover map() after close() gets the
            # pool's clear error, not the executor's opaque one.
            with self._lock:
                if self._closed or self._closing:
                    raise RuntimeError("SessionPool is closed")
            return executor.submit(self._serve_chunk, chunk)

        return self._windowed(documents, chunksize, window, submit_chunk)

    def map_multi(
        self,
        documents: Iterable[str | Path],
        queries: Mapping[str, str | CompiledQuery]
        | Sequence[str | CompiledQuery],
        *,
        chunksize: int = 1,
        window: int | None = None,
    ) -> Iterator[dict[str, PoolResult]]:
        """Ordered, backpressured *multi-query* evaluation of many documents.

        Every document is evaluated against all ``queries`` in a single
        token pass (the :class:`~repro.engine.multi.MultiQuerySession`
        engine); the pool contributes its executor, window backpressure
        and ordered delivery.  Yields one ``{name: PoolResult}`` dict per
        document, in input order.  The queries are compiled exactly once
        here; each worker thread then keeps its own warm
        ``MultiQuerySession`` over the shared
        :class:`~repro.engine.session.QueryRuntime` of each query (a multi
        session is single-client, so sessions are thread-local rather
        than shared).

        The pool's own compiled query is *not* implicitly included —
        ``queries`` is the complete standing set.  Run counting feeds the
        pool statistics (one run per query per document); the live buffer
        aggregates are tracked per multi-session, not pool-wide.
        """
        from repro.engine.multi import MultiQuerySession

        if isinstance(queries, Mapping):
            named = list(queries.items())
        else:
            named = [(f"q{i}", query) for i, query in enumerate(queries)]
        runtimes = {
            name: QueryRuntime(query, self.options, schema=self._schema)
            for name, query in named
        }
        executor = self._ensure_executor()
        local = threading.local()

        def serve_chunk(chunk: list[str | Path]) -> list[dict[str, PoolResult]]:
            session: MultiQuerySession | None = getattr(local, "session", None)
            if session is None:
                session = MultiQuerySession(runtimes, self.options)
                local.session = session
            runs = len(chunk) * len(runtimes)
            served = []
            try:
                for document in chunk:
                    results = session.run(document)
                    served.append(
                        {
                            name: PoolResult.from_run(result)
                            for name, result in results.items()
                        }
                    )
            except BaseException:
                self._count_runs(abandoned=runs)
                raise
            # Counted here, not in a done callback: a consumer woken by
            # the future's result may read the stats before callbacks run.
            self._count_runs(completed=runs)
            return served

        def count_cancelled(runs: int, future: Future) -> None:
            if future.cancelled():
                self._count_runs(abandoned=runs)

        def submit_chunk(chunk: list[str | Path]) -> Future:
            with self._lock:
                if self._closed or self._closing:
                    raise RuntimeError("SessionPool is closed")
            runs = len(chunk) * len(runtimes)
            self._count_runs(started=runs)
            future = executor.submit(serve_chunk, chunk)
            future.add_done_callback(partial(count_cancelled, runs))
            return future

        return self._windowed(documents, chunksize, window, submit_chunk)

    def _windowed(
        self,
        documents: Iterable[str | Path],
        chunksize: int,
        window: int | None,
        submit_chunk: Callable[[list[str | Path]], Future],
    ) -> Iterator:
        """The shared ordered/backpressured chunk pump of map and map_multi."""
        if chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        window = window if window is not None else 2 * self.max_workers
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")

        def generate() -> Iterator:
            source = iter(documents)
            pending: deque[Future] = deque()
            exhausted = False
            while True:
                while not exhausted and len(pending) < window:
                    chunk = list(islice(source, chunksize))
                    if not chunk:
                        exhausted = True
                        break
                    pending.append(submit_chunk(chunk))
                if not pending:
                    return
                yield from pending.popleft().result()

        return generate()

    # -- worker bodies ---------------------------------------------------

    def _serve_one(self, document: str | Path) -> PoolResult:
        try:
            return PoolResult.from_run(self.run(document))
        except Exception as error:
            # A chunk's future fails as a whole: say which document broke it.
            error.document = document
            raise

    def _serve_chunk(self, documents: list[str | Path]) -> list[PoolResult]:
        return [self._serve_one(document) for document in documents]

    def _count_runs(
        self, *, started: int = 0, completed: int = 0, abandoned: int = 0
    ) -> None:
        """Count ``map_multi`` runs, which check no buffer out of this pool.

        ``started`` is counted synchronously at submit time, so it is
        always exact.  A chunk that died abandons all its runs: a
        mid-chunk failure abandons the whole chunk from the caller's point
        of view (its future raises), so the whole chunk counts even if
        some documents evaluated first.
        """
        with self._lock:
            self._runs_started += started
            self.runs_completed += completed
            self._runs_abandoned += abandoned

    # -- executor ---------------------------------------------------------

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed or self._closing:
                raise RuntimeError("SessionPool is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="gcx-pool",
                )
            return self._executor

