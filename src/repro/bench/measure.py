"""Measurement plumbing for the benchmark harness.

One :class:`Measurement` corresponds to one cell of Table 1: an engine
evaluating one query over one document, reporting evaluation time and the
buffer high watermark.  ``n/a`` (query outside the engine's fragment) and
``timeout`` (the paper's one-hour limit, scaled down) are first-class
outcomes, because Table 1 contains both.

Beyond the paper's time/memory pair, each cell records the *latency to the
first output token* (``first_output_seconds``) when the engine streams its
result — the defining property of an incremental engine.  Engines that
materialize their result before emitting (the naive DOM class, static
projection) report ``None`` there.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

from repro.baselines import ENGINES, UnsupportedQueryError

__all__ = ["Measurement", "measure", "format_seconds", "format_bytes"]


@dataclass
class Measurement:
    """One cell of a benchmark table."""

    engine: str
    query: str
    doc_bytes: int
    seconds: float = 0.0
    hwm_bytes: int = 0
    hwm_nodes: int = 0
    output_bytes: int = 0
    supported: bool = True  # False -> "n/a" (like FluXQuery on Q6)
    timed_out: bool = False  # True -> "timeout" (like Galax at 200MB)
    tracemalloc_peak: int | None = None
    # Latency from run start to the first output token; None for engines
    # that buffer the whole result before emitting.
    first_output_seconds: float | None = None

    @property
    def cell(self) -> str:
        """Render like the paper: ``0.18s / 1.2MB``."""
        if not self.supported:
            return "n/a"
        if self.timed_out:
            return "timeout"
        return f"{format_seconds(self.seconds)} / {format_bytes(self.hwm_bytes)}"


def measure(
    engine_name: str,
    query_text: str,
    document: str,
    *,
    with_tracemalloc: bool = False,
) -> Measurement:
    """Run one engine over one document and collect the Table 1 cell."""
    result = Measurement(
        engine=engine_name, query="", doc_bytes=len(document.encode())
    )
    engine = ENGINES[engine_name]()
    try:
        compiled = engine.compile(query_text)
    except UnsupportedQueryError:
        result.supported = False
        return result
    if with_tracemalloc:
        tracemalloc.start()
    try:
        started = time.perf_counter()
        run = engine.run(compiled, document)
        result.seconds = time.perf_counter() - started
        if with_tracemalloc:
            _current, result.tracemalloc_peak = tracemalloc.get_traced_memory()
    finally:
        if with_tracemalloc:
            tracemalloc.stop()
    result.hwm_bytes = run.hwm_bytes
    result.hwm_nodes = run.hwm_nodes
    result.output_bytes = len(run.output.encode())
    result.first_output_seconds = getattr(run, "first_output_seconds", None)
    return result


def format_seconds(seconds: float) -> str:
    """Seconds like the paper: ``0.18s`` below a minute, ``mm:ss`` above."""
    if seconds < 60:
        return f"{seconds:.2f}s"
    minutes, rest = divmod(int(round(seconds)), 60)
    return f"{minutes:02d}:{rest:02d}"


def format_bytes(count: int) -> str:
    """Bytes with a binary-unit suffix like the paper's tables: ``1.2MB``."""
    if count >= 1 << 30:
        return f"{count / (1 << 30):.2f}GB"
    if count >= 1 << 20:
        return f"{count / (1 << 20):.1f}MB"
    if count >= 1 << 10:
        return f"{count / (1 << 10):.1f}KB"
    return f"{count}B"
