"""SessionPool: concurrency stress, checkout discipline, aggregate stats.

The stress tests drive N threads x M documents through one pool and hold
the results to the strongest oracle available — byte-identical output to a
sequential :class:`QuerySession` — while instrumentation asserts that no
``BufferTree`` is ever checked out twice concurrently.  The worker count
is taken from ``GCX_POOL_STRESS_WORKERS`` so CI can run a thread-count
matrix over the same tests.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine import GCXEngine, QuerySession, SessionPool
from repro.engine.pool import PoolResult
from repro.xmark.queries import XMARK_QUERIES
from repro.xmlio import StringSink, XMLSyntaxError

from tests.helpers import INTRO_QUERY

STRESS_WORKERS = int(os.environ.get("GCX_POOL_STRESS_WORKERS", "8"))
STRESS_DOCUMENTS = 32

Q1 = XMARK_QUERIES["Q1"].adapted


def serving_documents(count: int) -> list[str]:
    """Small, distinct, deterministic request documents (a few hundred B),
    shaped like XMark ``/site`` fragments so Q1 matches."""
    documents = []
    for i in range(count):
        people = "".join(
            f"<person><id>person{j}</id><name>N{i}-{j}</name>"
            f"<emailaddress>p{j}@x.example</emailaddress></person>"
            for j in range(i % 7 % 3 + 1)
        )
        items = "".join(
            f"<item><id>i{i}-{k}</id><name>T{k}</name></item>"
            for k in range(i % 4)
        )
        documents.append(
            f"<site><people>{people}</people>"
            f"<regions><africa>{items}</africa></regions>"
            f"<closed_auctions/></site>"
        )
    return documents


class TestStress:
    def test_pool_output_byte_identical_to_sequential(self):
        """N threads x M documents == sequential QuerySession, byte for byte."""
        docs = serving_documents(STRESS_DOCUMENTS)
        sequential = QuerySession(Q1)
        expected = [sequential.run(doc).output for doc in docs]
        with SessionPool(Q1, max_workers=STRESS_WORKERS) as pool:
            results = list(pool.map(docs))
        assert [r.output for r in results] == expected

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_chunked_map_matches_cold_engine_runs(self, workers):
        """Every pool width serves the batch exactly as cold engine runs."""
        docs = serving_documents(64)
        engine = GCXEngine()
        expected = [engine.run(Q1, doc).output for doc in docs]
        with SessionPool(Q1, max_workers=workers) as pool:
            outputs = [r.output for r in pool.map(docs, chunksize=4)]
        assert outputs == expected

    def test_stress_via_submit_futures(self):
        docs = serving_documents(STRESS_DOCUMENTS)
        sequential = QuerySession(Q1)
        expected = [sequential.run(doc).output for doc in docs]
        with SessionPool(Q1, max_workers=STRESS_WORKERS) as pool:
            futures = [pool.submit(doc) for doc in docs]
            assert [f.result().output for f in futures] == expected

    def test_stress_direct_runs_from_many_threads(self):
        """run()/run_streaming() on caller threads, all hitting one pool."""
        docs = serving_documents(STRESS_DOCUMENTS)
        sequential = QuerySession(Q1)
        expected = [sequential.run(doc).output for doc in docs]
        with SessionPool(Q1, max_workers=STRESS_WORKERS) as pool:
            with ThreadPoolExecutor(STRESS_WORKERS) as executor:
                outputs = list(
                    executor.map(lambda d: pool.run(d).output, docs)
                )
        assert outputs == expected

    def test_one_session_shared_by_many_threads(self):
        """STRESS_WORKERS threads stream from one QuerySession at once (a
        barrier keeps every round's runs in flight together): output is
        byte-identical to sequential runs and no checkout is left over."""
        docs = serving_documents(STRESS_WORKERS * 4)
        expected = [QuerySession(Q1).run(doc).output for doc in docs]
        session = QuerySession(Q1)
        barrier = threading.Barrier(STRESS_WORKERS)
        outputs: dict[int, str] = {}

        def client(first: int) -> None:
            try:
                for index in range(first, len(docs), STRESS_WORKERS):
                    stream = session.run_streaming(docs[index])
                    sink = StringSink()
                    sink.write(next(stream))
                    barrier.wait(timeout=30)
                    for token in stream:
                        sink.write(token)
                    outputs[index] = sink.getvalue()
            except BaseException:
                barrier.abort()  # release the other clients at once
                raise

        with ThreadPoolExecutor(STRESS_WORKERS) as executor:
            futures = [
                executor.submit(client, first) for first in range(STRESS_WORKERS)
            ]
            errors = [future.exception() for future in futures]
        assert errors == [None] * STRESS_WORKERS
        assert [outputs[i] for i in range(len(docs))] == expected
        session._reap_dropped_runs()
        assert not session._checked_out
        assert session.runs_completed == len(docs)

    def test_no_buffer_checked_out_twice_concurrently(self):
        """Instrumented checkout: ownership is exclusive at every instant."""
        docs = serving_documents(STRESS_DOCUMENTS)
        pool = SessionPool(Q1, max_workers=STRESS_WORKERS)
        held: dict[int, int] = {}
        violations: list[int] = []
        lock = threading.Lock()
        real_checkout = pool._checkout_buffer
        real_release = pool._release_buffer

        def checkout():
            buffer = real_checkout()
            with lock:
                if id(buffer) in held:
                    violations.append(id(buffer))
                held[id(buffer)] = threading.get_ident()
            return buffer

        def release(buffer, *, completed):
            with lock:
                held.pop(id(buffer), None)
            real_release(buffer, completed=completed)

        pool._checkout_buffer = checkout
        pool._release_buffer = release
        with pool:
            list(pool.map(docs))
        assert violations == []
        assert held == {}  # every checkout was released

    def test_double_checkout_raises(self):
        """The pool's own owner assertion fires on a double checkout."""
        pool = SessionPool(INTRO_QUERY)
        buffer = pool._checkout_buffer()
        # Simulate the bug the assertion exists for: the same buffer
        # re-entering circulation while still owned by a run.
        pool._idle_buffers.append(buffer)
        with pytest.raises(RuntimeError, match="already held"):
            pool._checkout_buffer()

    def test_release_of_unknown_buffer_raises(self):
        from repro.buffer.buffer import BufferTree

        pool = SessionPool(INTRO_QUERY)
        with pytest.raises(RuntimeError, match="not checked out"):
            pool._release_buffer(BufferTree(), completed=True)


class TestConcurrentStreams:
    def test_streams_genuinely_overlap(self):
        """A barrier forces all workers to hold open runs simultaneously."""
        workers = min(STRESS_WORKERS, 4)
        docs = serving_documents(workers)
        sequential = QuerySession(Q1)
        expected = [sequential.run(doc).output for doc in docs]
        pool = SessionPool(Q1, max_workers=workers)
        barrier = threading.Barrier(workers)

        def serve(i: int) -> str:
            stream = pool.run_streaming(docs[i])
            sink = StringSink()
            sink.write(next(stream))  # buffer now checked out, run open
            barrier.wait()  # every thread holds an open run here
            for token in stream:
                sink.write(token)
            return sink.getvalue()

        with pool:
            with ThreadPoolExecutor(workers) as executor:
                outputs = list(executor.map(serve, range(workers)))
        assert outputs == expected
        stats = pool.stats
        assert stats.peak_active_runs >= workers
        assert stats.active_runs == 0
        assert stats.live_nodes == 0 and stats.live_bytes == 0

    def test_shared_matcher_is_one_object_and_warms_across_runs(self):
        docs = serving_documents(8)
        with SessionPool(Q1, max_workers=4) as pool:
            matcher = pool.matcher
            list(pool.map(docs))
            assert pool.matcher is matcher
            warmed_states = matcher.state_count
            hits_before = matcher.table_hits
            list(pool.map(docs))
            # Replaying the same documents discovers no new DFA states and
            # runs almost entirely on memoized transitions.
            assert matcher.state_count == warmed_states
            assert matcher.table_hits > hits_before


class TestAggregateAccounting:
    def test_aggregate_peak_at_least_single_run_peak(self):
        docs = serving_documents(16)
        with SessionPool(Q1, max_workers=4) as pool:
            results = list(pool.map(docs))
            stats = pool.stats
        assert stats.peak_live_nodes >= max(r.hwm_nodes for r in results)
        assert stats.peak_live_bytes >= max(r.hwm_bytes for r in results)
        assert stats.runs_completed == len(docs)
        assert stats.live_nodes == 0 and stats.live_bytes == 0

    def test_overlapping_runs_sum_into_aggregate(self):
        """Two runs paused while holding buffered nodes: the aggregate live
        count is the sum of both runs' residency, which no per-run stat
        can see."""
        # INTRO_QUERY buffers each <book> subtree while deciding on it, so
        # pausing right after the first buffered token leaves nodes live.
        doc = (
            "<bib><book><title>T1</title></book>"
            "<book><price>9</price><title>T2</title></book></bib>"
        )
        pool = SessionPool(INTRO_QUERY, max_workers=2)

        def pause_with_live_nodes(stream) -> None:
            for _ in range(3):  # <r> wrapper, then buffered book content
                next(stream)

        solo = pool.run_streaming(doc)
        pause_with_live_nodes(solo)
        live_single = pool.stats.live_nodes
        for _ in solo:
            pass
        assert live_single > 0

        stream_a = pool.run_streaming(doc)
        stream_b = pool.run_streaming(doc)
        pause_with_live_nodes(stream_a)
        pause_with_live_nodes(stream_b)
        live_both = pool.stats.live_nodes
        for stream in (stream_a, stream_b):
            for _ in stream:
                pass
        assert live_both == 2 * live_single
        assert pool.stats.peak_active_runs >= 2
        assert pool.stats.live_nodes == 0
        pool.close()

    def test_summary_reports_the_aggregate(self):
        doc = serving_documents(3)[2]
        with SessionPool(Q1, max_workers=3) as pool:
            streams = [pool.run_streaming(doc) for _ in range(3)]
            for stream in streams:
                next(stream)
            for stream in streams:
                for _ in stream:
                    pass
            stats = pool.stats
        assert stats.peak_active_runs == 3
        assert stats.buffers_created == 3
        assert stats.peak_live_bytes > 0
        assert stats.summary() == (
            "3 runs (0 abandoned) on 3 thread worker(s); "
            f"aggregate hwm {stats.peak_live_nodes} nodes / "
            f"{stats.peak_live_bytes} bytes across 3 concurrent run(s); "
            "3 buffer(s) allocated"
        )

    def test_abandoned_run_is_settled(self):
        """A run closed while it holds buffered nodes: its release settles
        the residue, so the pool's live aggregate returns to zero."""
        doc = (
            "<bib><book><title>T1</title></book>"
            "<book><price>9</price><title>T2</title></book></bib>"
        )
        with SessionPool(INTRO_QUERY, max_workers=2) as pool:
            stream = pool.run_streaming(doc)
            for _ in range(3):  # <r> wrapper, then buffered book content
                next(stream)
            assert pool.stats.live_nodes > 0 and pool.stats.live_bytes > 0
            stream.close()
            stats = pool.stats
            assert stats.runs_abandoned == 1
            assert stats.active_runs == 0
            assert stats.live_nodes == 0 and stats.live_bytes == 0
            # The pool still serves correctly afterwards.
            assert pool.run(doc).output == QuerySession(INTRO_QUERY).run(doc).output

    def test_failed_run_releases_its_checkout(self):
        with SessionPool(INTRO_QUERY, max_workers=2) as pool:
            with pytest.raises(Exception):
                pool.run("<bib><unclosed>")
            stats = pool.stats
            assert stats.active_runs == 0
            assert stats.runs_abandoned == 1
            # The worker slot is not wedged: the pool keeps serving.
            assert "<title>" not in pool.run("<bib><book/></bib>").output


class TestMapSemantics:
    def test_map_is_ordered(self):
        docs = serving_documents(24)
        with SessionPool(Q1, max_workers=4) as pool:
            results = list(pool.map(docs))
        assert all(isinstance(r, PoolResult) for r in results)
        sequential = QuerySession(Q1)
        assert [r.output for r in results] == [sequential.run(d).output for d in docs]

    def test_map_is_backpressured_and_lazy(self):
        """The documents iterable is pulled as results are consumed, never
        drained eagerly: in-flight work stays within the window."""
        docs = serving_documents(40)
        pulled = []

        def source():
            for doc in docs:
                pulled.append(doc)
                yield doc

        with SessionPool(Q1, max_workers=2) as pool:
            results = pool.map(source(), window=3, chunksize=1)
            assert pulled == []  # nothing read before iteration
            first = next(results)
            assert first.output  # sanity
            assert len(pulled) <= 3 + 1  # window chunks + the one yielded
            rest = list(results)
        assert len(pulled) == len(docs)
        assert len(rest) == len(docs) - 1

    def test_map_chunksize_batches_without_reordering(self):
        docs = serving_documents(17)  # deliberately not a chunk multiple
        with SessionPool(Q1, max_workers=4) as pool:
            outputs = [r.output for r in pool.map(docs, chunksize=5)]
        sequential = QuerySession(Q1)
        assert outputs == [sequential.run(d).output for d in docs]

    def test_map_propagates_evaluation_errors(self):
        docs = ["<site><people/></site>", "<site><broken>", "<site/>"]
        with SessionPool(Q1, max_workers=2) as pool:
            for chunksize in (1, 3):
                with pytest.raises(XMLSyntaxError) as error:
                    list(pool.map(docs, chunksize=chunksize))
                # The failing document is named, even inside a chunk.
                assert error.value.document is docs[1]

    def test_map_rejects_bad_arguments(self):
        with SessionPool(Q1) as pool:
            with pytest.raises(ValueError, match="chunksize"):
                list(pool.map(["<site/>"], chunksize=0))
            with pytest.raises(ValueError, match="window"):
                list(pool.map(["<site/>"], window=0))


class TestMapMulti:
    QUERIES = {
        "Q1": Q1,
        "Q17": XMARK_QUERIES["Q17"].adapted,
        "Q20": XMARK_QUERIES["Q20"].adapted,
    }

    def test_map_multi_is_ordered_and_correct(self):
        docs = serving_documents(12)
        sequential = {
            name: QuerySession(text) for name, text in self.QUERIES.items()
        }
        with SessionPool(Q1, max_workers=STRESS_WORKERS) as pool:
            rows = list(pool.map_multi(docs, self.QUERIES, chunksize=2))
        assert len(rows) == len(docs)
        for doc, row in zip(docs, rows):
            assert set(row) == set(self.QUERIES)
            for name, session in sequential.items():
                assert row[name].output == session.run(doc).output

    def test_map_multi_counts_runs_per_query(self):
        docs = serving_documents(6)
        with SessionPool(Q1, max_workers=2) as pool:
            list(pool.map_multi(docs, self.QUERIES))
            stats = pool.stats
        assert stats.runs_started == len(docs) * len(self.QUERIES)
        assert stats.runs_completed == stats.runs_started

    def test_map_multi_accepts_sequences_and_compiled(self):
        from repro.analysis import compile_query

        compiled = compile_query(Q1)
        docs = serving_documents(3)
        with SessionPool(Q1, max_workers=2) as pool:
            rows = list(pool.map_multi(docs, [compiled]))
        sequential = QuerySession(Q1)
        assert [row["q0"].output for row in rows] == [
            sequential.run(doc).output for doc in docs
        ]

    def test_map_multi_compiles_with_the_pools_schema(self):
        """Regression: text queries were compiled without ``schema=``, so a
        trusted-schema pool served ``map_multi`` as if it had none."""
        from repro.engine import EngineOptions, MultiQuerySession
        from repro.xmark.schema import xmark_schema

        schema = xmark_schema()
        options = EngineOptions(trust_schema=True)
        doc = serving_documents(1)[0]
        expected = MultiQuerySession(self.QUERIES, options, schema=schema).run(doc)
        with SessionPool(Q1, options, schema=schema, max_workers=2) as pool:
            (row,) = pool.map_multi([doc], self.QUERIES)
        untrusted = MultiQuerySession(self.QUERIES).run(doc)
        for name, result in expected.items():
            assert row[name].output == result.output
            assert (row[name].hwm_bytes, row[name].tokens_read) == (
                result.stats.hwm_bytes,
                result.stats.tokens_read,
            ), name
        # ... and the schema does make a difference this test can see.
        assert any(
            expected[name].stats.tokens_read != untrusted[name].stats.tokens_read
            for name in expected
        )

    def test_map_multi_after_close_raises(self):
        pool = SessionPool(Q1, max_workers=2)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            list(pool.map_multi(["<site/>"], self.QUERIES))


class TestLifecycle:
    def test_close_drains_queued_work(self):
        """Futures accepted before close() all resolve — close waits for
        queued (not just running) work instead of failing it."""
        docs = serving_documents(STRESS_DOCUMENTS)
        sequential = QuerySession(Q1)
        expected = [sequential.run(doc).output for doc in docs]
        pool = SessionPool(Q1, max_workers=2)
        futures = [pool.submit(doc) for doc in docs]
        pool.close()
        assert [f.result().output for f in futures] == expected

    def test_closed_pool_rejects_work(self):
        pool = SessionPool(Q1)
        pool.run("<site/>")
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.run("<site/>")
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit("<site/>")
        pool.close()  # idempotent

    def test_leftover_map_iterator_gets_clear_error_after_close(self):
        """Chunks are submitted lazily, so an iterator kept across close()
        must fail with the pool's error, not the executor's opaque one."""
        pool = SessionPool(Q1, max_workers=2)
        results = pool.map(["<site><people/></site>"] * 3, window=1)
        assert next(results).output  # first chunk served while open
        pool.close()
        with pytest.raises(RuntimeError, match="SessionPool is closed"):
            list(results)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            SessionPool(Q1, max_workers=0)

    def test_pool_adopts_precompiled_query(self):
        from repro.analysis.compile import compile_query

        compiled = compile_query(INTRO_QUERY)
        with SessionPool(compiled, max_workers=2) as pool:
            assert pool.compiled is compiled
            doc = "<bib><book><title>T</title></book></bib>"
            assert pool.run(doc).output == QuerySession(compiled).run(
                doc
            ).output

    def test_dropped_unstarted_run_releases_its_checkout(self):
        """A run that is never iterated nor closed must not leak its
        checkout when garbage collected (its generator's finally never
        runs, so the weakref finalizer is the only way out)."""
        import gc

        with SessionPool(Q1, max_workers=2) as pool:
            run = pool.run_streaming("<site><people/></site>")
            assert pool.stats.active_runs == 1
            del run
            gc.collect()  # the run<->generator cycle needs the collector
            stats = pool.stats
            assert stats.active_runs == 0
            assert stats.runs_abandoned == 1
            # The slot is free again: fresh checkouts work.
            assert pool.run("<site><people/></site>").output

    def test_dropped_unstarted_session_run_unblocks_other_threads(self):
        import gc

        doc = "<bib><book><title>T</title></book></bib>"
        session = QuerySession(INTRO_QUERY)
        run = session.run_streaming(doc)
        del run
        gc.collect()
        outputs: list[str] = []
        thread = threading.Thread(
            target=lambda: outputs.append(session.run(doc).output)
        )
        thread.start()
        thread.join()
        assert outputs and "<title>T</title>" in outputs[0]

    def test_buffers_are_recycled_not_hoarded(self):
        docs = serving_documents(STRESS_DOCUMENTS)
        with SessionPool(Q1, max_workers=STRESS_WORKERS) as pool:
            list(pool.map(docs))
            stats = pool.stats
        # Never more buffers than could be live at once.
        assert stats.buffers_created <= STRESS_WORKERS + 1

    def test_idle_list_is_capped_at_max_workers(self):
        """More interleaved runs than workers each need a buffer, but only
        ``max_workers`` of them are parked for reuse once they finish."""
        workers, extra = 2, 3
        doc = serving_documents(1)[0]

        def interleaved_wave(pool: SessionPool) -> None:
            streams = [pool.run_streaming(doc) for _ in range(workers + extra)]
            for stream in streams:
                for _ in stream:
                    pass

        with SessionPool(Q1, max_workers=workers) as pool:
            interleaved_wave(pool)
            assert pool.stats.buffers_created == workers + extra
            assert len(pool._idle_buffers) == workers
            # The second wave recycles the parked buffers and allocates
            # only the ones that were dropped.
            interleaved_wave(pool)
            assert pool.stats.buffers_created == workers + 2 * extra
            assert len(pool._idle_buffers) == workers


class TestDrainHooks:
    """The serving layer's async-friendly drain hooks on the pool."""

    def test_outstanding_checkouts_tracks_run_lifecycle(self):
        with SessionPool(Q1, max_workers=2) as pool:
            assert pool.stats.outstanding_checkouts == 0
            run = pool.run_streaming("<site><people/></site>")
            assert pool.stats.outstanding_checkouts == 1
            list(run)  # exhaust -> released through the guard
            assert pool.stats.outstanding_checkouts == 0

    def test_outstanding_checkouts_counts_abandoned_runs_until_reaped(self):
        import gc

        with SessionPool(Q1, max_workers=2) as pool:
            run = pool.run_streaming("<site><people/></site>")
            next(run)
            run.close()  # abandoned: discarded via _dropped_runs
            del run
            gc.collect()
            # The stats snapshot reaps first, so the leak is settled here.
            assert pool.stats.outstanding_checkouts == 0

    def test_wait_idle_immediate_when_nothing_is_checked_out(self):
        with SessionPool(Q1, max_workers=2) as pool:
            assert pool.wait_idle(timeout=0.0) is True

    def test_wait_idle_times_out_while_a_run_is_in_flight(self):
        with SessionPool(Q1, max_workers=2) as pool:
            run = pool.run_streaming("<site><people/></site>")
            next(run)
            assert pool.wait_idle(timeout=0.05) is False
            list(run)
            assert pool.wait_idle(timeout=0.0) is True

    def test_wait_idle_unblocks_when_another_thread_finishes(self):
        with SessionPool(Q1, max_workers=2) as pool:
            run = pool.run_streaming("<site><people/></site>")
            next(run)
            release = threading.Timer(0.05, lambda: list(run))
            release.start()
            try:
                assert pool.wait_idle(timeout=5.0) is True
            finally:
                release.join()

    def test_wait_idle_sees_runs_released_by_garbage_collection(self):
        """An abandoned run releases through _dropped_runs (no notify);
        wait_idle must still converge by reaping between waits."""
        import gc

        with SessionPool(Q1, max_workers=2) as pool:
            run = pool.run_streaming("<site><people/></site>")
            next(run)
            run.close()
            del run
            gc.collect()
            assert pool.wait_idle(timeout=2.0) is True


class TestSessionAcrossThreads:
    """A QuerySession checks out through the same registry as the pool, so
    a second thread's run proceeds alongside the first."""

    def test_second_thread_streaming_completes(self):
        doc = "<bib><book><title>T</title></book></bib>"
        session = QuerySession(INTRO_QUERY)
        expected = GCXEngine().run(INTRO_QUERY, doc).output
        stream = session.run_streaming(doc)
        next(stream)  # checkout is live on this thread
        outputs: list[str] = []

        def second_client():
            outputs.append("".join(session.run_streaming(doc).serialized()))

        thread = threading.Thread(target=second_client)
        thread.start()
        thread.join()
        assert outputs == [expected]
        # The first run is untouched by the second thread's run.
        rest = StringSink()
        for token in stream:
            rest.write(token)
        assert stream.result is not None
        assert "<title>T</title>" in rest.getvalue()
        assert session.runs_completed == 2

    def test_second_thread_run_leaves_the_first_untouched(self):
        """Two threads, two documents, one session: each run has its own
        buffer, and the first run's output and statistics are exactly
        those of an undisturbed run."""
        doc_a = "<bib><book><title>A</title></book><book/></bib>"
        doc_b = "<bib><book><title>B</title></book></bib>"
        alone = QuerySession(INTRO_QUERY).run(doc_a)
        session = QuerySession(INTRO_QUERY)
        stream = session.run_streaming(doc_a)
        head = StringSink()
        head.write(next(stream))
        second: list[str] = []
        thread = threading.Thread(
            target=lambda: second.append(session.run(doc_b).output)
        )
        thread.start()
        thread.join()
        assert second == [GCXEngine().run(INTRO_QUERY, doc_b).output]
        for token in stream:
            head.write(token)
        assert head.getvalue() == alone.output
        assert stream.result.stats.hwm_nodes == alone.stats.hwm_nodes
        assert stream.result.stats.tokens_read == alone.stats.tokens_read
        assert not session._checked_out

    def test_same_thread_interleaving_still_allowed(self):
        doc_a = "<bib><book><title>A</title></book></bib>"
        doc_b = "<bib><book><title>B</title></book></bib>"
        session = QuerySession(INTRO_QUERY)
        stream_a = session.run_streaming(doc_a)
        stream_b = session.run_streaming(doc_b)  # same thread: fine
        list(stream_a)
        list(stream_b)
        assert session.runs_completed == 2

    def test_sequential_cross_thread_use_is_fine(self):
        doc = "<bib><book><title>T</title></book></bib>"
        session = QuerySession(INTRO_QUERY)
        expected = session.run(doc).output
        outputs: list[str] = []

        def client():
            outputs.append(session.run(doc).output)

        for _ in range(3):  # one at a time, different threads
            thread = threading.Thread(target=client)
            thread.start()
            thread.join()
        assert outputs == [expected] * 3
