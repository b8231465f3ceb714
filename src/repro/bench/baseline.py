"""Persistent performance baselines behind the ``BENCH_*.json`` snapshots.

The ROADMAP's north star ("as fast as the hardware allows") only survives
refactors if speed is *recorded and enforced*: this module defines the quick
benchmark suite whose results are committed as ``BENCH_baseline.json`` at
the repository root, and the delta computation that ``tools/bench_gate.py``
turns into a CI pass/fail signal (see docs/PERFORMANCE.md).

Two metric classes, compared differently by the gate:

* *machine-independent* metrics — ratios and deterministic counts measured
  within one run (tokenizer speedup over the frozen reference
  implementation, matcher transition-table hit rate, buffer high watermark,
  node recycle rate).  These are stable across hosts, so regressions beyond
  the threshold FAIL the gate anywhere, including CI runners.
* *machine-dependent* metrics — absolute throughputs (MB/s, tokens/s).
  Meaningful against a baseline recorded on the same machine; on foreign
  hardware the gate reports them as warnings unless ``strict_timings`` is
  requested.

The suite is deliberately quick (one ~1 MB XMark document, a handful of
passes) so it can run on every pull request.
"""

from __future__ import annotations

import io
import json
import platform
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from repro.bench.concurrency import run_concurrency_benchmark
from repro.bench.multiquery import run_multiquery_benchmark
from repro.engine.session import EngineOptions, QuerySession
from repro.stream.preprojector import StreamPreprojector
from repro.buffer.buffer import BufferTree
from repro.xmark.generator import generate_xmark, xmark_scale_for_bytes
from repro.xmark.queries import XMARK_QUERIES
from repro.xmark.schema import xmark_schema
from repro.xmlio._reference_lexer import reference_tokenize
from repro.xmlio._str_lexer import str_tokenize
from repro.xmlio.filelexer import FileTokenizer
from repro.xmlio.lexer import tokenize

__all__ = [
    "Metric",
    "MetricDelta",
    "SCHEMA_VERSION",
    "FLOORS",
    "benchmark_document",
    "run_quick_suite",
    "save_baseline",
    "load_baseline",
    "compare",
]

SCHEMA_VERSION = 1

#: Absolute floors enforced by the gate regardless of the baseline values.
#: ``tokenizer_speedup`` is the bytes-rewrite acceptance criterion (raised
#: from the PR 3 floor of 2.0): the bytes-domain scanner must stay at
#: least three times as fast as the frozen character-stepping reference.
#: ``tokenizer_bytes_vs_str_speedup`` guards the rewrite itself — the
#: bytes scanner must never fall behind the frozen PR 3 str-domain batch
#: lexer it replaced (same algorithm, str domain), which is exactly the
#: regression a bytes port invites (``b"x" in body`` is ~6x slower than
#: its str equivalent, etc.).
#: ``multiquery_speedup_k8`` is the multi-query acceptance criterion: one
#: shared scan must serve the K=8 standing mix at least twice as fast as K
#: sequential warm sessions.  ``multiquery_single_scan`` is the shared-pass
#: invariant — 1.0 exactly when the pass read one document scan of tokens
#: (not K); any extra read drops it to 0.0 and fails the gate on any host.
#: ``schema_hwm_reduction`` is the schema-constraint-pass acceptance
#: criterion: across the golden XMark queries, compiling with the XMark
#: DTD must cut the buffer high watermark by at least 1.2x on at least
#: two queries (the metric is the *second-largest* per-query reduction,
#: so one lucky query cannot carry the gate).  Zero-buffer-certified
#: queries (Q6, Q15) clear it by orders of magnitude.
#: ``tokens_held_reduction`` is the earliness-pass acceptance criterion
#: (docs/EARLINESS.md), built the same second-largest way: with the pass
#: on, at least two golden queries must hold output tokens in the buffer
#: at least 1.2x less long than the conservative engine — while the
#: outputs stay byte-identical, which the suite asserts as it measures.
#: ``join_speedup`` is the streaming-relational acceptance criterion
#: (docs/JOINS.md): XMark Q8 through the hash build/probe operator must
#: run at least twice as fast as the same query through the nested-loop
#: path (``hash_joins=False``) — while the outputs stay byte-identical,
#: which the suite asserts as it measures.  A same-host ratio of the same
#: engine binary, so it gates machine-independently.
FLOORS: dict[str, float] = {
    "tokenizer_speedup": 3.0,
    "tokenizer_bytes_vs_str_speedup": 1.0,
    "multiquery_speedup_k8": 2.0,
    "multiquery_single_scan": 1.0,
    "schema_hwm_reduction": 1.2,
    "tokens_held_reduction": 1.2,
    "join_speedup": 2.0,
}


@dataclass(frozen=True)
class Metric:
    """One tracked performance number."""

    name: str
    value: float
    unit: str
    higher_is_better: bool = True
    #: Absolute timings vary with the host; the gate only warns on them
    #: unless strict timing comparison is requested.
    machine_dependent: bool = False


@dataclass(frozen=True)
class MetricDelta:
    """The comparison of one metric between a baseline and a fresh run."""

    name: str
    baseline: float
    fresh: float
    unit: str
    higher_is_better: bool
    machine_dependent: bool
    #: Relative change in the *bad* direction: positive means regression.
    regression: float
    below_floor: bool

    def exceeded(self, threshold: float) -> bool:
        return self.regression > threshold

    def describe(self) -> str:
        direction = "worse" if self.regression > 0 else "better"
        return (
            f"{self.name}: {self.baseline:.4g} -> {self.fresh:.4g} {self.unit} "
            f"({abs(self.regression) * 100:.1f}% {direction})"
        )


# ----------------------------------------------------------------------
# the quick suite
# ----------------------------------------------------------------------


def benchmark_document(target_bytes: int = 1_200_000, seed: int = 42) -> str:
    """A generated XMark document of at least ``target_bytes`` bytes.

    Calibrated like the Table 1 harness, then re-scaled until the result
    really meets the target (the acceptance criterion demands ≥ 1 MB).
    """
    scale = xmark_scale_for_bytes(target_bytes)
    document = generate_xmark(scale, seed=seed)
    for _attempt in range(8):
        if len(document) >= target_bytes:
            return document
        scale *= 1.1 * target_bytes / max(len(document), 1)
        document = generate_xmark(scale, seed=seed)
    raise RuntimeError(
        f"could not calibrate an XMark document to {target_bytes} bytes "
        f"(got {len(document)})"
    )


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def run_quick_suite(
    target_bytes: int = 1_200_000, seed: int = 42, repeats: int = 3
) -> dict[str, Metric]:
    """Run every quick benchmark and return the metrics by name."""
    document = benchmark_document(target_bytes, seed)
    mb = len(document) / 1e6
    metrics: dict[str, Metric] = {}

    def add(
        name: str,
        value: float,
        unit: str,
        *,
        higher_is_better: bool = True,
        machine_dependent: bool = False,
    ) -> None:
        metrics[name] = Metric(
            name, value, unit, higher_is_better, machine_dependent
        )

    # -- tokenizer: optimized vs frozen reference, same doc, same host --
    # The bytes scanner is fed raw UTF-8 (encoded once, outside the timed
    # region): that is its production diet — mmap windows from files,
    # encoded chunk uploads from the server — while the two frozen
    # oracles scan the str form they were written for.
    raw_document = document.encode("utf-8")

    def drain_new() -> None:
        for _token in tokenize(raw_document):
            pass

    def drain_reference() -> None:
        for _token in reference_tokenize(document):
            pass

    def drain_str() -> None:
        for _token in str_tokenize(document):
            pass

    # Interleave the measurements so load drift on the host biases the
    # speedup ratios as little as possible (they are the hard-gated
    # metrics).
    new_seconds = float("inf")
    reference_seconds = float("inf")
    str_seconds = float("inf")
    for _ in range(repeats + 2):
        new_seconds = min(new_seconds, _best_seconds(drain_new, 1))
        reference_seconds = min(reference_seconds, _best_seconds(drain_reference, 1))
        str_seconds = min(str_seconds, _best_seconds(drain_str, 1))
    add("tokenizer_mb_per_s", mb / new_seconds, "MB/s", machine_dependent=True)
    add(
        "reference_tokenizer_mb_per_s",
        mb / reference_seconds,
        "MB/s",
        machine_dependent=True,
    )
    add("tokenizer_speedup", reference_seconds / new_seconds, "x")
    add("tokenizer_bytes_vs_str_speedup", str_seconds / new_seconds, "x")

    # -- file tokenizer: chunked reads with window compaction -----------
    def drain_file() -> None:
        # A binary stream, like a socket or pipe would provide: the
        # chunked window path with compaction, no mmap, no str decode.
        for _token in FileTokenizer(io.BytesIO(raw_document)):
            pass

    add(
        "file_tokenizer_mb_per_s",
        mb / _best_seconds(drain_file, repeats),
        "MB/s",
        machine_dependent=True,
    )

    # -- matcher: lazy-DFA transition table over the Q1 projection tree -
    session = QuerySession(XMARK_QUERIES["Q1"].adapted)
    tree = session.compiled.projection_tree

    preprojector: StreamPreprojector | None = None

    def project() -> None:
        # Keep the last pass around: its stats (hit rate, token counts) are
        # deterministic across passes, so no extra un-timed pass is needed.
        nonlocal preprojector
        preprojector = StreamPreprojector(
            tokenize(document), tree, BufferTree(strict=False)
        )
        preprojector.run_to_completion()

    # Isolate matching by subtracting the tokenize-only time; floor at 5%
    # of the projection pass so host noise can never drive the subtraction
    # to zero (or negative) and poison the snapshot with absurd numbers.
    project_seconds = _best_seconds(project, repeats)
    match_seconds = max(project_seconds - new_seconds, 0.05 * project_seconds)
    matcher = preprojector.matcher
    lookups = matcher.table_hits + matcher.table_misses
    tokens = preprojector.buffer.stats.tokens_read
    add(
        "matcher_ktokens_per_s",
        tokens / match_seconds / 1e3,
        "ktok/s",
        machine_dependent=True,
    )
    add("matcher_table_hit_rate", matcher.table_hits / max(lookups, 1), "ratio")
    add(
        "matcher_dfa_states",
        float(matcher.state_count),
        "states",
        higher_is_better=False,
    )

    # -- end to end: Q1 through the full Figure 11 pipeline -------------
    result = None

    def run_e2e() -> None:
        nonlocal result
        result = session.run(document)

    e2e_seconds = _best_seconds(run_e2e, repeats)
    add("e2e_q1_mb_per_s", mb / e2e_seconds, "MB/s", machine_dependent=True)
    add(
        "e2e_q1_hwm_bytes",
        float(result.hwm_bytes),
        "bytes",
        higher_is_better=False,
    )
    add(
        "buffer_recycle_rate",
        result.stats.nodes_recycled / max(result.stats.nodes_created, 1),
        "ratio",
    )

    # -- schema-constraint pass: hwm reduction on the golden queries ----
    # Same document, same host, schema-on vs schema-off: a pure ratio of
    # deterministic counters, machine-independent and hard-floored.  The
    # outputs are asserted identical here too — a schema must never buy
    # buffer space at the price of semantics.
    schema = xmark_schema()
    reductions: list[float] = []
    for name in sorted(XMARK_QUERIES):
        text = XMARK_QUERIES[name].adapted
        off_run = QuerySession(text).run(document)
        on_run = QuerySession(text, schema=schema).run(document)
        assert on_run.output == off_run.output, f"{name}: schema changed output"
        reductions.append(
            off_run.stats.hwm_bytes / max(on_run.stats.hwm_bytes, 1)
        )
    reductions.sort(reverse=True)
    add("schema_hwm_reduction", reductions[1], "x")

    # -- earliness pass: how long output sits buffered, on vs off -------
    # ``tokens_held_before_emit`` is a deterministic counter, so the
    # per-query ratio is machine-independent; the metric is the
    # second-largest ratio (as above, one query cannot carry the gate).
    # Byte-identity and the monotonicity property are asserted while
    # measuring — earliness changes *when* bytes leave, never which.
    conservative = EngineOptions(earliness=False)
    held_ratios: list[float] = []
    first_output_seconds: float | None = None
    for name in sorted(XMARK_QUERIES):
        text = XMARK_QUERIES[name].adapted
        off_run = QuerySession(text, conservative).run(document)
        on_run = QuerySession(text).run(document)
        assert on_run.output == off_run.output, f"{name}: earliness changed output"
        held_on = on_run.stats.tokens_held_before_emit
        held_off = off_run.stats.tokens_held_before_emit
        assert held_on <= held_off, f"{name}: earliness held tokens longer"
        held_ratios.append(max(held_off, 1) / max(held_on, 1))
        if name == "Q1":
            first_output_seconds = on_run.first_output_seconds
    held_ratios.sort(reverse=True)
    add("tokens_held_reduction", held_ratios[1], "x")
    if first_output_seconds is not None:
        add(
            "latency_to_first_output_ms",
            first_output_seconds * 1_000.0,
            "ms",
            higher_is_better=False,
            machine_dependent=True,
        )

    # -- hash joins: Q8 via the hash operator vs the nested-loop oracle -
    # Same query, same document, same host; only the join dispatch
    # differs, so the ratio is machine-independent and hard-floored.
    # Byte-identity is asserted while measuring — the hash path must be
    # a pure performance decision (docs/JOINS.md).
    join_text = XMARK_QUERIES["Q8"].adapted
    hash_session = QuerySession(join_text)
    nested_session = QuerySession(join_text, EngineOptions(hash_joins=False))
    hash_result = nested_result = None

    def run_hash() -> None:
        nonlocal hash_result
        hash_result = hash_session.run(document)

    def run_nested() -> None:
        nonlocal nested_result
        nested_result = nested_session.run(document)

    hash_seconds = _best_seconds(run_hash, repeats)
    nested_seconds = _best_seconds(run_nested, repeats)
    assert hash_result.output == nested_result.output, (
        "hash join changed the Q8 output"
    )
    assert hash_result.stats.join_indexes_built > 0, (
        "the join planner failed to dispatch Q8 to the hash operator"
    )
    add("join_speedup", nested_seconds / hash_seconds, "x")
    add(
        "join_probe_hit_rate",
        hash_result.stats.join_probe_hits
        / max(hash_result.stats.join_probes, 1),
        "hits/probe",
    )

    # -- multi-query: one shared scan vs K sequential warm sessions -----
    # Both the speedup and the single-scan invariant are same-host ratios/
    # counts, so they gate machine-independently (hard floors above).
    multi_report = run_multiquery_benchmark(document, repeats=repeats)
    add("multiquery_speedup_k8", multi_report.speedup, "x")
    add(
        "multiquery_single_scan",
        1.0 if multi_report.single_scan else 0.0,
        "bool",
    )
    add(
        "multiquery_route_share",
        multi_report.route_share,
        "ratio",
        higher_is_better=False,
    )

    # -- concurrent serving: SessionPool vs cold per-request engines ----
    # Machine-dependent throughout: the speedup mixes amortization (host-
    # independent-ish) with scheduler behaviour and core count, and the
    # aggregate high watermark depends on run overlap.  The gate warns
    # rather than fails on these (docs/CONCURRENCY.md explains the model).
    report = run_concurrency_benchmark(repeats=repeats)
    four = report.point(4)
    add(
        "pool_speedup_4w",
        four.speedup_vs_cold,
        "x",
        machine_dependent=True,
    )
    add(
        "pool_docs_per_s_4w",
        four.docs_per_second,
        "docs/s",
        machine_dependent=True,
    )
    add(
        "pool_aggregate_hwm_nodes_4w",
        float(four.peak_live_nodes),
        "nodes",
        higher_is_better=False,
        machine_dependent=True,
    )

    # -- network serving: gcx serve over real sockets -------------------
    # The full serving path (framing, pass drivers, real TCP) at
    # the 4-client point; docs/s is tracked, p99 TTFB loosely gated —
    # both machine-dependent, so foreign hosts warn instead of failing.
    # Imported here: the harness pulls in repro.serve and asyncio, which
    # `import repro` (via repro.bench) must not pay for.
    from repro.bench.serving import run_serving_benchmark

    serving = run_serving_benchmark(client_counts=(4,), docs_per_client=16)
    served = serving.point(4)
    add(
        "serving_docs_per_s",
        served.docs_per_second,
        "docs/s",
        machine_dependent=True,
    )
    add(
        "serving_p99_ttfb_ms",
        served.ttfb_p99_ms,
        "ms",
        higher_is_better=False,
        machine_dependent=True,
    )
    return metrics


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------


def save_baseline(
    metrics: dict[str, Metric],
    path: str | Path,
    *,
    target_bytes: int,
    seed: int,
) -> None:
    """Write a ``BENCH_*.json`` snapshot."""
    payload = {
        "schema": SCHEMA_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "document": {"target_bytes": target_bytes, "seed": seed},
        "metrics": {
            m.name: {
                "value": m.value,
                "unit": m.unit,
                "higher_is_better": m.higher_is_better,
                "machine_dependent": m.machine_dependent,
            }
            for m in metrics.values()
        },
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_baseline(path: str | Path) -> dict[str, Metric]:
    """Load a ``BENCH_*.json`` snapshot into metrics by name."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported BENCH schema {payload.get('schema')!r} in {path}"
        )
    return {
        name: Metric(
            name=name,
            value=float(entry["value"]),
            unit=entry.get("unit", ""),
            higher_is_better=bool(entry.get("higher_is_better", True)),
            machine_dependent=bool(entry.get("machine_dependent", False)),
        )
        for name, entry in payload["metrics"].items()
    }


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------


def compare(
    baseline: dict[str, Metric], fresh: dict[str, Metric]
) -> list[MetricDelta]:
    """Per-metric deltas for every metric present in both snapshots.

    ``regression`` is the relative change in the bad direction (positive =
    worse), so a single threshold covers both metric polarities.
    """
    deltas: list[MetricDelta] = []
    for name, base in baseline.items():
        new = fresh.get(name)
        if new is None:
            continue
        if base.higher_is_better:
            regression = (base.value - new.value) / max(abs(base.value), 1e-12)
        else:
            regression = (new.value - base.value) / max(abs(base.value), 1e-12)
        floor = FLOORS.get(name)
        deltas.append(
            MetricDelta(
                name=name,
                baseline=base.value,
                fresh=new.value,
                unit=base.unit,
                higher_is_better=base.higher_is_better,
                machine_dependent=base.machine_dependent,
                regression=regression,
                below_floor=floor is not None and new.value < floor,
            )
        )
    return deltas
