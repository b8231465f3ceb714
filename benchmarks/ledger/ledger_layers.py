"""The traced pass: per-layer metrics, measured from outside the program.

The pipeline is lexer -> matcher -> lane/buffer -> evaluator -> serialiser.
Each *probe* runs a real prefix of it through the layers' public entry
points; a layer's self time is the difference of consecutive prefix
medians (``ledger_stats.layer_self_times``).  Probes are interleaved
round-robin so that drift in machine speed hits every prefix alike, and
every probe run is a span (name, start, end, parent, op id) kept in memory
until ``write_trace``.

Layer entry points may disappear as the engine is simplified.  A probe
that cannot be built or that raises is switched off: its metrics become
``None``, ``trace.probe_errors`` counts it, and the other probes carry on.
"""

from __future__ import annotations

import ast
import gc
import itertools
import json
import statistics
import sys
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from ledger_inputs import SRC, Inputs
from ledger_reference import Reference
from ledger_serve import (
    Connection,
    Server,
    drive_clients,
    serve_cold_launch,
    window_summary,
)
from ledger_stats import layer_self_times, percentile
from ledger_workloads import Runner, attempt, cold_launch

#: Share of ``--seconds`` the serve trace spends in each of its two
#: wire windows (spans off, spans on); the rest is the in-process probes.
SERVE_WINDOW_SHARE = 0.35


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()

    def add(self, name, start, end, *, op, workload, parent=None) -> int:
        ident = next(self._ids)
        self.spans.append(
            {
                "id": ident,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": op,
                "workload": workload,
            }
        )
        return ident

    @contextmanager
    def span(self, name, *, op, workload, parent=None):
        """Time the block; yields the id child spans name as ``parent``."""
        ident = self.add(name, time.perf_counter(), None, op=op,
                         workload=workload, parent=parent)  # fmt: skip
        record = self.spans[-1]
        try:
            yield ident
        finally:
            record["end"] = time.perf_counter()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


class Probe:
    """One isolated measurement.  ``build`` does the imports and returns
    ``(call, cleanup)``; ``cleanup`` (or ``None``) runs outside the span."""

    def __init__(self, name: str, build: Callable, *, verify: bool = False) -> None:
        self.name = name
        self.verify = verify  # call() returns outputs to hold against the oracle
        self.samples: list[float] = []
        self.broken = False
        self.span = (0.0, 0.0)  # perf_counter start and end of the last run
        self._call = self._cleanup = None
        try:
            self._call, self._cleanup = build()
        except Exception as error:
            self._fail(error)

    def _fail(self, error: Exception) -> None:
        print(f"ledger: probe {self.name} switched off: {error!r}", file=sys.stderr)
        self.broken = True
        self.samples = []

    def __call__(self, speed: float):
        """Run once, timed, the time stated at reference speed given the
        machine ``speed`` just now; returns what the probe's call returned."""
        if self.broken:
            return None
        gc.collect()
        started = time.perf_counter()
        try:
            value = self._call()
            ended = time.perf_counter()
            if self._cleanup is not None:
                self._cleanup()
        except Exception as error:
            self._fail(error)
            return None
        self.samples.append((ended - started) * speed)
        self.span = (started, ended)
        return value

    def median_ms(self) -> float | None:
        return statistics.median(self.samples) * 1e3 if self.samples else None


# -- probe builders ------------------------------------------------------
# Imports happen inside the builders so that a vanished module breaks one
# probe, not the pass.


def lex_probe(path: Path):
    def build():
        from repro.xmlio import tokenize_file

        return (lambda: deque(tokenize_file(path), maxlen=0)), None

    return build


def matcher_probe(path: Path, query: str):
    """Lexer plus a stand-alone matcher stack walk.  Approximate by design:
    it never consumes ``[1]`` steps, so it stays on the DFA throughout."""

    def build():
        from repro import compile_query
        from repro.stream.matcher import StreamMatcher
        from repro.xmlio import EndTag, StartTag, tokenize_file

        matcher = StreamMatcher(compile_query(query).projection_tree)

        def call():
            frames = [matcher.initial_frame()]
            match, frame_for = matcher.match_token, matcher.frame_for
            for token in tokenize_file(path):
                if isinstance(token, StartTag):
                    transition = match(
                        frames, tag=token.tag, is_text=False, any_consumed=False
                    )
                    frames.append(frame_for(transition))
                elif isinstance(token, EndTag):
                    frames.pop()
                else:
                    match(frames, tag=None, is_text=True, any_consumed=False)

        return call, None

    return build


def lane_probe(path: Path, query: str, counters: dict):
    """Lexer + matcher + projection lane into a buffer.  No evaluator runs,
    so no signoff fires and nothing is purged: the buffer holds the whole
    projection, which the real run never does."""

    def build():
        from repro import compile_query
        from repro.buffer import BufferTree
        from repro.engine.session import build_accumulators
        from repro.stream import StreamMatcher, StreamPreprojector
        from repro.xmlio import tokenize_file

        compiled = compile_query(query)
        tree = compiled.projection_tree
        buffer = BufferTree()

        def project(matcher):
            StreamPreprojector(
                tokenize_file(path),
                tree,
                buffer,
                matcher=matcher,
                accumulators=build_accumulators(compiled, buffer),
            ).run_to_completion()

        # The first pass, on a cold matcher, gives the deterministic DFA
        # counters; the timed passes then replay its warm table.
        matcher = StreamMatcher(tree)
        project(matcher)
        buffer.reset()
        lookups = matcher.table_hits + matcher.table_misses
        counters["matcher.table_hit_rate"] = matcher.table_hits / lookups
        counters["matcher.dfa_states"] = matcher.state_count
        counters["matcher.off_dfa_computes"] = matcher.off_dfa_computes
        return (lambda: project(matcher)), buffer.reset

    return build


def shared_lanes_probe(path: Path, queries: dict[str, str]):
    """Lexer + shared dispatcher + one lane per query, no evaluators."""

    def build():
        from repro import compile_query
        from repro.buffer import BufferTree
        from repro.engine.session import build_accumulators
        from repro.stream.matcher import StreamMatcher
        from repro.stream.preprojector import ProjectionLane
        from repro.stream.shared import SharedPreprojector
        from repro.xmlio import tokenize_file

        compiled = [compile_query(text) for text in queries.values()]
        matchers = [StreamMatcher(c.projection_tree) for c in compiled]
        buffers = [BufferTree() for _ in compiled]

        def call():
            lanes = [
                ProjectionLane(
                    c.projection_tree,
                    buffer,
                    matcher=matcher,
                    accumulators=build_accumulators(c, buffer),
                )
                for c, matcher, buffer in zip(compiled, matchers, buffers)
            ]
            SharedPreprojector(tokenize_file(path), lanes).run_to_completion()

        def cleanup():
            for buffer in buffers:
                buffer.reset()

        return call, cleanup

    return build


def stream_probe(runner: Runner, document):
    return lambda: ((lambda: deque(runner.stream(document), maxlen=0)), None)


def run_probe(runner: Runner, document):
    return lambda: ((lambda: runner.run(document)), None)


def sequential_probe(path: Path, queries: dict[str, str]):
    """What the shared pass replaces: K warm sessions, one scan each."""

    def build():
        from repro import GCXEngine

        sessions = [GCXEngine().session(text) for text in queries.values()]
        return (lambda: tuple(s.run(path).output for s in sessions)), None

    return build


# -- counters ------------------------------------------------------------


def guarded(errors: list, fn: Callable, default=None):
    """``fn()``, or ``default`` with the failure logged and counted."""
    value = attempt("counter probe", fn)
    if value is None:
        errors.append(fn)
        return default
    return value


def lexer_counters(path: Path) -> dict:
    from repro.xmlio import tokenize_file

    return {"lexer.tokens": sum(1 for _ in tokenize_file(path))}


#: BufferStats fields summed over the queries of an op.
_SUMMED = (
    "nodes_created", "nodes_recycled", "roles_assigned", "hwm_nodes",
    "tokens_read", "tokens_held_before_emit", "join_probes",
    "join_probe_hits", "acc_updates", "schema_fallbacks",
)  # fmt: skip


def run_counters(runner: Runner, document) -> dict:
    """Deterministic work counts of one full op, from its public results."""
    from repro.xmlio import text_decode_count

    decodes = text_decode_count()
    results = runner.results(document)
    decodes = text_decode_count() - decodes
    stats = [result.stats for result in results]
    total = {field: sum(getattr(s, field) for s in stats) for field in _SUMMED}
    output_tokens = sum(1 for _ in runner.stream(document))
    counters = {
        "buffer.nodes_created": total["nodes_created"],
        "buffer.recycle_rate": ratio(total["nodes_recycled"], total["nodes_created"]),
        "buffer.roles_assigned": total["roles_assigned"],
        "buffer.hwm_nodes": total["hwm_nodes"],
        "lane.kept_share": ratio(total["nodes_created"], total["tokens_read"]),
        "evaluator.output_tokens": output_tokens,
        "evaluator.tokens_held_before_emit": total["tokens_held_before_emit"],
        "relops.join_probes": total["join_probes"],
        "relops.join_hit_rate": ratio(total["join_probe_hits"], total["join_probes"]),
        "relops.acc_updates": total["acc_updates"],
        "direct.schema_fallbacks": total["schema_fallbacks"],
        "serialize.output_bytes": sum(len(r.output.encode("utf-8")) for r in results),
        "lexer.text_decodes": decodes,
    }
    if len(results) == 1:  # a shared pass reports its own, pass-wide peak
        counters["peak_buffer_bytes"] = results[0].hwm_bytes
    return counters


def multi_counters(runner: Runner, document, tokens: int | None) -> dict:
    """Routing telemetry of one shared pass (``MultiStreamingRun.stats``)."""
    stream = runner.stream(document)
    deque(stream, maxlen=0)
    stats = stream.stats
    return {
        "shared.dispatched_tokens": stats.dispatched_tokens,
        "shared.route_share": ratio(
            stats.dispatched_tokens, stats.tokens_read * stats.query_count
        ),
        "shared.single_scan": float(stats.tokens_read == tokens),
        "peak_buffer_bytes": stats.peak_live_bytes,
    }


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def code_counters() -> dict:
    """Source lines and ``__all__`` entries under src/repro (ROADMAP item 3's
    trend lines), read from the files, nothing imported."""
    lines = symbols = 0
    for source in sorted((SRC / "repro").rglob("*.py")):
        text = source.read_text(encoding="utf-8")
        lines += text.count("\n")
        for node in ast.parse(text).body:
            if (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))
            ):
                symbols += len(node.value.elts)
    return {"code.src_loc": lines, "code.public_symbols": symbols}


def empty_run_us(runner: Runner, repeats: int) -> float:
    """Fixed cost of one run: the session over ``<site/>``."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        runner.run("<site/>")
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e6


# -- the traced passes ---------------------------------------------------


def trace_in_process(inputs: Inputs, seconds: float, recorder: SpanRecorder) -> dict:
    workload, sizes = inputs.workload, inputs.sizes
    path, expected = inputs.paths[0], inputs.expected[0]
    name = workload.name
    runner = Runner(workload, inputs.queries)
    multi = workload.kind == "multi"
    direct = workload.schema
    counters: dict = {}

    probes = [Probe("lex", lex_probe(path))]
    if multi:
        probes.append(Probe("lex+lanes", shared_lanes_probe(path, inputs.queries)))
    elif not direct:
        (query,) = inputs.queries.values()
        probes.append(Probe("lex+match", matcher_probe(path, query)))
        probes.append(Probe("lex+match+lane", lane_probe(path, query, counters)))
    probes.append(Probe("stream", stream_probe(runner, path)))
    probes.append(Probe("run", run_probe(runner, path), verify=True))
    if multi:
        probes.append(
            Probe("sequential", sequential_probe(path, inputs.queries), verify=True)
        )
    by_name = {probe.name: probe for probe in probes}

    for _ in range(sizes.warmup_ops):
        runner.run(path)
    attempted = failed = 0
    bare: list[float] = []
    reference = Reference()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while time.perf_counter() < deadline or rounds < sizes.min_rounds:
        reference.sample()
        speed = reference.local_speed()
        with recorder.span("op", op=rounds, workload=name) as root:
            for probe in probes:
                outputs = probe(speed)
                if probe.broken:
                    continue
                recorder.add(probe.name, *probe.span, op=rounds,
                             workload=name, parent=root)  # fmt: skip
                if probe.verify:
                    attempted += 1
                    failed += outputs != expected
            # The same op with no span around it: the tracing overhead.
            gc.collect()
            started = time.perf_counter()
            runner.run(path)
            bare.append((time.perf_counter() - started) * speed)
        rounds += 1

    errors: list = []
    counters.update(guarded(errors, lambda: lexer_counters(path), {}))
    counters.update(guarded(errors, lambda: run_counters(runner, path), {}))
    if multi:
        counters.update(
            guarded(
                errors,
                lambda: multi_counters(runner, path, counters.get("lexer.tokens")),
                {},
            )
        )
    counters.update(guarded(errors, code_counters, {}))
    # One-off measurements are stated at the run's overall machine speed.
    speed = reference.speed()
    _wall, cold = guarded(errors, lambda: cold_launch(inputs), (None, {}))
    cold = {phase: ms * speed for phase, ms in cold.items() if phase != "digest"}

    lex_ms = by_name["lex"].median_ms()
    run_ms = by_name["run"].median_ms()
    bare_ms = statistics.median(bare) * 1e3
    if multi:
        chain = [("lexer.scan_ms", "lex"), ("lane.project_ms", "lex+lanes")]
    elif direct:
        chain = [("lexer.scan_ms", "lex")]
    else:
        chain = [
            ("lexer.scan_ms", "lex"),
            ("matcher.step_ms", "lex+match"),
            ("lane.project_ms", "lex+match+lane"),
        ]
    chain.append(("direct.eval_ms" if direct else "evaluator.eval_ms", "stream"))
    chain.append(("serialize.write_ms", "run"))
    metrics = layer_self_times(
        [(layer, by_name[probe].median_ms()) for layer, probe in chain]
    )
    tokens = counters.get("lexer.tokens")
    decodes = counters.pop("lexer.text_decodes", None)
    metrics.update(counters)
    metrics.update(
        {
            "lexer.mb_s": inputs.input_bytes[0] / 1e3 / lex_ms if lex_ms else None,
            "lexer.text_decodes_per_ktoken": (
                1e3 * decodes / tokens if tokens and decodes is not None else None
            ),
            "pipeline.e2e_over_lex_ratio": bare_ms / lex_ms if lex_ms else None,
            "lane.share": (
                metrics["lane.project_ms"] / run_ms
                if run_ms and metrics.get("lane.project_ms") is not None
                else None
            ),
            "analysis.import_ms": cold.get("import_ms"),
            "analysis.compile_ms": cold.get("compile_ms"),
            "analysis.schema_load_ms": cold.get("schema_load_ms"),
            "session.empty_run_us": guarded(
                errors, lambda: empty_run_us(runner, sizes.micro_repeats) * speed
            ),
            "session.cold_run_excess_ms": (
                max(0.0, cold["first_op_ms"] - bare_ms) if cold else None
            ),
            "op_ms_p90": percentile(bare, 0.90) * 1e3,
            "trace.op_ms_p50": run_ms,
            "trace.overhead_ratio": run_ms / bare_ms if run_ms else None,
            "trace.machine_speed": speed,
        }
    )
    if multi:
        sequential_ms = by_name["sequential"].median_ms()
        metrics.update(
            {
                "multi.shared_pass_ms": run_ms,
                "multi.sequential_ms": sequential_ms,
                "multi.shared_speedup": (
                    sequential_ms / run_ms if sequential_ms and run_ms else None
                ),
            }
        )
    broken = sum(probe.broken for probe in probes) + len(errors)
    metrics["trace.probe_errors"] = broken
    return {"attempted": attempted, "failed": failed, "samples": rounds,
            "speed": speed, "metrics": metrics}  # fmt: skip


def trace_serve(inputs: Inputs, seconds: float, recorder: SpanRecorder) -> dict:
    """ping -> in-process session -> in-process pool -> the wire."""
    sizes = inputs.sizes
    (query,) = inputs.queries.values()
    errors: list = []
    documents = inputs.documents

    def per_document_us(run: Callable) -> float:
        """Median over the fragment set of one in-process op each, after a
        warm-up sweep, in microseconds."""
        for document in documents:
            run(document)
        samples = []
        for document in documents:
            started = time.perf_counter()
            run(document)
            samples.append(time.perf_counter() - started)
        return statistics.median(samples) * 1e6

    reference = Reference()
    reference.sample_many(sizes.reference_samples)
    runner = Runner(inputs.workload, inputs.queries)
    session_us = guarded(errors, lambda: per_document_us(runner.run))
    empty_us = guarded(errors, lambda: empty_run_us(runner, sizes.micro_repeats))

    def pool_probe():
        from repro import SessionPool

        with SessionPool(query, max_workers=2) as pool:
            op_us = per_document_us(pool.run)
            return op_us, pool.stats.peak_live_bytes

    pool_us, pool_peak = guarded(errors, pool_probe, (None, None))

    _wall, cold = serve_cold_launch(inputs)
    with Server() as server:
        with Connection(server.port) as first, Connection(server.port) as second:
            first.register(query)
            cached_s, cached = second.register(query)
            pings = [first.ping() for _ in range(sizes.micro_repeats)]
        window = seconds * SERVE_WINDOW_SHARE
        reference.sample_many(sizes.reference_samples)
        plain_logs = drive_clients(server, inputs, window)
        reference.sample_many(sizes.reference_samples)
        traced_logs = drive_clients(server, inputs, window, recorder)
        reference.sample_many(sizes.reference_samples)
    if not cached:
        errors.append("second register was not served from the cache")

    # Every time below is stated at the pass's overall machine speed: the
    # clients keep both cores busy, so it cannot be sampled inside a window.
    speed = reference.speed()
    plain = window_summary(plain_logs, speed)
    traced = window_summary(traced_logs, speed)

    def scaled(value):
        return value * speed if value is not None else None

    op_ms = plain["op_ms_p50"]
    pool_us = scaled(pool_us)
    metrics = {
        "session.empty_run_us": scaled(empty_us),
        "session.inproc_op_us_p50": scaled(session_us),
        "pool.inproc_op_us_p50": pool_us,
        "pool.peak_live_bytes": pool_peak,
        "serve.startup_ms": scaled(cold["startup_ms"]),
        "serve.register_cold_ms": scaled(cold["register_cold_ms"]),
        "serve.register_cached_ms": scaled(cached_s * 1e3),
        "serve.ping_us_p50": scaled(statistics.median(pings) * 1e6),
        "serve.frames_per_op": plain["frames_per_op"],
        "serve.overhead_share": (
            1.0 - pool_us / 1e3 / op_ms if pool_us is not None else None
        ),
        "serve.errors": plain["errors"] + traced["errors"],
        "op_ms_p90": plain["op_ms_p90"],
        "serve.op_ms_p99": plain["op_ms_p99"],
        "serve.first_result_ms_p99": plain["first_result_ms_p99"],
        "session.cold_run_excess_ms": max(
            0.0, scaled(cold["first_op_ms"]) - op_ms
        ),
        "peak_buffer_bytes": max(
            plain["peak_buffer_bytes"], traced["peak_buffer_bytes"]
        ),
        "trace.op_ms_p50": traced["op_ms_p50"],
        "trace.overhead_ratio": traced["op_ms_p50"] / op_ms,
        "trace.machine_speed": speed,
    }
    metrics.update(guarded(errors, code_counters, {}))
    metrics["trace.probe_errors"] = len(errors)
    return {
        "attempted": 1 + sum(w["ops"] + w["errors"] for w in (plain, traced)),
        "failed": plain["failed"] + traced["failed"],
        "samples": plain["ops"],
        "speed": speed,
        "metrics": metrics,
    }
