"""Request/session metrics for the serving layer.

:class:`ServerStats` is the server-wide counter block: connections,
passes (and which driver ran them), wire bytes, query-cache behaviour,
and latency-to-first-byte and whole-op histograms.  All mutation happens
on the event-loop thread (the connection coroutines), so no lock is
needed; cross-thread readers (the test fixture, the bench harness) only
read integers, which is safe under the GIL — a snapshot may be an
instant stale, never torn per-field.

:class:`LatencyHistogram` keeps log-spaced buckets rather than raw
samples so a server that has answered millions of requests still holds
O(1) metric state — the same bounded-memory discipline the engine
applies to buffers, applied to its own telemetry.
"""

from __future__ import annotations

from typing import Any

__all__ = ["LatencyHistogram", "ServerStats"]


class LatencyHistogram:
    """Log-spaced latency histogram with percentile estimates.

    ``observe_ms`` drops a sample into its bucket; ``percentile`` answers
    with the upper bound of the bucket holding that rank (the overflow
    bucket answers with the maximum ever seen).  The bounds span 0.1 ms
    to 10 s, which covers everything from a warm point lookup to a pass
    over a document three orders of magnitude past the bench sizes.
    """

    BOUNDS_MS: tuple[float, ...] = (
        0.1,
        0.2,
        0.5,
        1.0,
        2.0,
        5.0,
        10.0,
        20.0,
        50.0,
        100.0,
        200.0,
        500.0,
        1_000.0,
        2_000.0,
        5_000.0,
        10_000.0,
    )

    def __init__(self) -> None:
        self._counts = [0] * (len(self.BOUNDS_MS) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe_ms(self, value_ms: float) -> None:
        index = len(self.BOUNDS_MS)
        for i, bound in enumerate(self.BOUNDS_MS):
            if value_ms <= bound:
                index = i
                break
        self._counts[index] += 1
        self.count += 1
        self.sum_ms += value_ms
        if value_ms > self.max_ms:
            self.max_ms = value_ms

    def percentile(self, fraction: float) -> float:
        """The latency below which ``fraction`` of samples fall (0 if none)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        if self.count == 0:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.5))
        seen = 0
        for index, bucket in enumerate(self._counts):
            seen += bucket
            if seen >= rank:
                if index < len(self.BOUNDS_MS):
                    return self.BOUNDS_MS[index]
                return self.max_ms
        return self.max_ms

    @property
    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean_ms": self.mean_ms,
            "p50_ms": self.percentile(0.50),
            "p99_ms": self.percentile(0.99),
            "max_ms": self.max_ms,
        }


class ServerStats:
    """Server-wide counters, exposed through the ``stats`` frame.

    Mutated only on the event-loop thread; see the module docstring for
    the cross-thread reading contract.
    """

    def __init__(self) -> None:
        self.connections_active = 0
        self.connections_total = 0
        self.connections_peak = 0
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.docs_ok = 0
        self.docs_failed = 0
        #: Passes by driver: evaluated on the event loop / on a thread.
        self.passes_inline = 0
        self.passes_threaded = 0
        self.queries_compiled = 0
        self.query_cache_hits = 0
        #: Seconds from pass start to the first result frame, per pass
        #: that produced output (empty results never have a first byte).
        self.ttfb = LatencyHistogram()
        #: Seconds from pass start to its settlement, per pass (ok or not).
        self.op_ms = LatencyHistogram()

    # -- mutation hooks (event-loop thread only) ------------------------

    def connection_opened(self) -> None:
        self.connections_active += 1
        self.connections_total += 1
        if self.connections_active > self.connections_peak:
            self.connections_peak = self.connections_active

    def connection_closed(self) -> None:
        self.connections_active -= 1

    def frame_in(self, nbytes: int) -> None:
        self.frames_in += 1
        self.bytes_in += nbytes

    def frame_out(self, nbytes: int) -> None:
        self.frames_out += 1
        self.bytes_out += nbytes

    def observe_ttfb(self, seconds: float) -> None:
        self.ttfb.observe_ms(seconds * 1_000.0)

    def pass_finished(self, *, ok: bool, inline: bool, seconds: float) -> None:
        if ok:
            self.docs_ok += 1
        else:
            self.docs_failed += 1
        if inline:
            self.passes_inline += 1
        else:
            self.passes_threaded += 1
        self.op_ms.observe_ms(seconds * 1_000.0)

    def query_registered(self, *, cached: bool) -> None:
        if cached:
            self.query_cache_hits += 1
        else:
            self.queries_compiled += 1

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable snapshot (the payload of a stats frame)."""
        return {
            "connections": {
                "active": self.connections_active,
                "total": self.connections_total,
                "peak": self.connections_peak,
            },
            "frames": {"in": self.frames_in, "out": self.frames_out},
            "bytes": {"in": self.bytes_in, "out": self.bytes_out},
            "docs": {"ok": self.docs_ok, "failed": self.docs_failed},
            "passes": {
                "inline": self.passes_inline,
                "threaded": self.passes_threaded,
            },
            "queries": {
                "compiled": self.queries_compiled,
                "cache_hits": self.query_cache_hits,
            },
            "ttfb": self.ttfb.snapshot(),
            "op_ms": self.op_ms.snapshot(),
        }

    def summary(self) -> str:
        ttfb = self.ttfb.snapshot()
        return (
            f"{self.docs_ok} docs served ({self.docs_failed} failed) to "
            f"{self.connections_total} connection(s) "
            f"(peak {self.connections_peak} concurrent); "
            f"{self.bytes_in} B in / {self.bytes_out} B out; "
            f"ttfb p50 {ttfb['p50_ms']:.1f} ms / p99 {ttfb['p99_ms']:.1f} ms"
        )
