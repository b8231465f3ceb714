"""Network serving benchmark: ``gcx serve`` under concurrent client load.

Where :mod:`repro.bench.concurrency` measures the pool *inside* the
process, this measures the whole serving path the ROADMAP's north star
cares about: real sockets, NDJSON framing, the pass drivers (on the
loop or behind the thread-to-loop frame bridge, by document size), and
per-connection backpressure.  N scripted clients connect to
an in-process :class:`~repro.serve.testing.ServerFixture`, register the
same standing query (so all of them share one compiled
:class:`~repro.engine.pool.SessionPool`), and pump the request batch of
:func:`~repro.bench.concurrency.serving_documents` through it.

Two numbers per client count:

* ``docs_per_second`` — aggregate throughput over the batch;
* ``p99 latency-to-first-byte`` — per request, measured *client-side*
  from sending the ``eval`` frame to receiving the first ``result``
  frame; the serving analogue of the engine's ``first_output_seconds``,
  now including framing, scheduling, and the wire.

Both are machine-dependent (absolute timings), so the bench gate tracks
them loosely: warnings, not failures, on foreign hardware.  Correctness
is still hard: every pass's fragments are concatenated and cross-checked
against a cold :class:`~repro.engine.gcx.GCXEngine` oracle, so this
benchmark can never pass on wrong results.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.bench.concurrency import SERVING_QUERY, serving_documents
from repro.engine.gcx import GCXEngine
from repro.serve.testing import ServerFixture

__all__ = [
    "ServingPoint",
    "ServingReport",
    "run_serving_benchmark",
    "format_serving_report",
]


@dataclass(frozen=True)
class ServingPoint:
    """One client-count configuration over the request batch."""

    clients: int
    docs: int
    seconds: float
    docs_per_second: float
    ttfb_p50_ms: float
    ttfb_p99_ms: float
    ttfb_max_ms: float


@dataclass(frozen=True)
class ServingReport:
    """The sweep over client counts, one shared server per sweep."""

    doc_bytes_avg: int
    docs_per_client: int
    points: tuple[ServingPoint, ...]

    def point(self, clients: int) -> ServingPoint:
        for point in self.points:
            if point.clients == clients:
                return point
        raise KeyError(f"no measurement for {clients} clients")


def _percentile_ms(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of raw second-samples, in milliseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), int(fraction * len(ordered) + 0.5)))
    return ordered[rank - 1] * 1_000.0


def _client_worker(
    fixture: ServerFixture,
    documents: list[str],
    barrier: threading.Barrier,
    ttfbs: list[float],
    outputs: list[tuple[int, str]],
    index: int,
) -> None:
    with fixture.client(timeout=60.0) as client:
        client.register("q", SERVING_QUERY)
        barrier.wait()
        for doc_index, document in enumerate(documents):
            started = time.perf_counter()
            client.send_frame({"op": "eval", "id": "q", "doc": document})
            first: float | None = None
            fragments: list[str] = []
            while True:
                frame = client.recv_frame()
                assert frame is not None, "server closed mid-bench"
                if frame["type"] == "result":
                    if first is None:
                        first = time.perf_counter() - started
                    fragments.append(frame["fragment"])
                    continue
                assert frame["type"] == "done", frame
                break
            if first is not None:
                ttfbs.append(first)
            if doc_index == 0:
                # One oracle sample per client is enough to catch a wrong
                # result without turning the bench into a conformance run.
                outputs.append((index, "".join(fragments)))


def run_serving_benchmark(
    client_counts: tuple[int, ...] = (1, 4, 16),
    docs_per_client: int = 16,
    *,
    eval_workers: int = 4,
) -> ServingReport:
    """Measure ``gcx serve`` throughput and TTFB per client count.

    Each configuration runs against a fresh in-process server; every
    client evaluates ``docs_per_client`` documents drawn round-robin from
    the shared batch, so heavier client counts also mean more total work
    (the load scales with the offered concurrency, as it would in
    production).
    """
    documents = serving_documents(max(client_counts) * docs_per_client)
    oracle = GCXEngine()
    points: list[ServingPoint] = []
    for clients in client_counts:
        with ServerFixture(
            eval_workers=eval_workers, request_timeout=60.0
        ) as fixture:
            ttfbs: list[float] = []
            outputs: list[tuple[int, str]] = []
            barrier = threading.Barrier(clients + 1)
            assignments = [
                documents[i :: clients][:docs_per_client]
                for i in range(clients)
            ]
            threads = [
                threading.Thread(
                    target=_client_worker,
                    args=(fixture, assignments[i], barrier, ttfbs, outputs, i),
                    name=f"bench-client-{i}",
                )
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()  # all clients registered; start the clock
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - started
            fixture.assert_clean()
        for index, output in outputs:
            expected = oracle.run(SERVING_QUERY, assignments[index][0]).output
            if output != expected:
                raise AssertionError(
                    f"serving bench produced a wrong result for client "
                    f"{index}: {output!r} != {expected!r}"
                )
        total_docs = sum(len(chunk) for chunk in assignments)
        points.append(
            ServingPoint(
                clients=clients,
                docs=total_docs,
                seconds=elapsed,
                docs_per_second=total_docs / elapsed if elapsed else 0.0,
                ttfb_p50_ms=_percentile_ms(ttfbs, 0.50),
                ttfb_p99_ms=_percentile_ms(ttfbs, 0.99),
                ttfb_max_ms=max(ttfbs, default=0.0) * 1_000.0,
            )
        )
    avg_bytes = sum(len(doc) for doc in documents) // max(len(documents), 1)
    return ServingReport(
        doc_bytes_avg=avg_bytes,
        docs_per_client=docs_per_client,
        points=tuple(points),
    )


def format_serving_report(report: ServingReport) -> str:
    lines = [
        f"serving bench: {report.docs_per_client} docs/client, "
        f"~{report.doc_bytes_avg} B/doc (XMark Q1 standing query)",
        f"{'clients':>8} {'docs':>6} {'docs/s':>9} "
        f"{'ttfb p50':>10} {'ttfb p99':>10} {'ttfb max':>10}",
    ]
    for point in report.points:
        lines.append(
            f"{point.clients:>8} {point.docs:>6} "
            f"{point.docs_per_second:>9.0f} "
            f"{point.ttfb_p50_ms:>8.2f}ms {point.ttfb_p99_ms:>8.2f}ms "
            f"{point.ttfb_max_ms:>8.2f}ms"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_serving_report(run_serving_benchmark()))
