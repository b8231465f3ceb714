"""The untraced pass: end-to-end metrics through top-level public API only.

One op is one document evaluated to complete, verified output.  The
in-process workloads drive ``repro.GCXEngine`` / ``repro.MultiQuerySession``
exactly as a caller of the library would; the serve workload (see
``ledger_serve``) talks to a ``gcx serve`` subprocess over its wire
protocol.  Every op's output is compared with the DOM oracle outside the
timed region; a mismatch or a raise (including the engine's strict-mode
safety checks) counts as a failed op.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

from repro import GCXEngine, MultiQuerySession, load_dtd

from ledger_inputs import DTD_PATH, HERE, SRC, Inputs, Workload
from ledger_reference import Reference

#: Share of ``--seconds`` spent in the timed window; the rest is left for
#: the allocation-peak op, which ``tracemalloc`` slows several times over.
WINDOW_SHARE = 0.9
#: One machine-speed sample is taken per this many ops (ledger_reference).
REFERENCE_EVERY = 3


class Runner:
    """The session a workload runs, built the way a library user builds it."""

    def __init__(self, workload: Workload, queries: dict[str, str]) -> None:
        started = time.perf_counter()
        schema = load_dtd(DTD_PATH) if workload.schema else None
        self.schema_load_s = time.perf_counter() - started
        started = time.perf_counter()
        if workload.kind == "multi":
            self.names = tuple(queries)
            self.session = MultiQuerySession(queries)
        else:
            (text,) = queries.values()
            self.names = None
            self.session = GCXEngine().session(text, schema=schema)
        self.compile_s = time.perf_counter() - started
        #: Output tokens that need no input: one wrapper tag per query.
        self.query_count = len(queries)

    def results(self, document) -> list:
        """Evaluate to complete output: one ``RunResult`` per query."""
        if self.names is None:
            return [self.session.run(document)]
        results = self.session.run(document)
        return [results[name] for name in self.names]

    def run(self, document) -> tuple[str, ...]:
        """Evaluate to complete output: one string per query."""
        return tuple(result.output for result in self.results(document))

    def stream(self, document):
        """The op as an iterator of output tokens (has ``close()``)."""
        return self.session.run_streaming(document)


def outputs_digest(outputs: tuple[str, ...]) -> str:
    return hashlib.sha256("\0".join(outputs).encode("utf-8")).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_launch(inputs: Inputs) -> tuple[float, dict]:
    """One fresh interpreter: spawn -> import -> compile -> first op done.

    Returns the wall time the parent saw and the child's own phase
    report; raises if the cold op's output is not the oracle's.
    """
    started = time.perf_counter()
    with subprocess.Popen(
        [
            sys.executable,
            str(HERE / "ledger_cold.py"),
            inputs.workload.name,
            str(inputs.paths[0]),
        ],
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.wait(timeout=120)
    if child.returncode != 0 or not line:
        raise RuntimeError(f"cold launch exited with {child.returncode}")
    report = json.loads(line)
    if report["digest"] != outputs_digest(inputs.expected[0]):
        raise RuntimeError("cold launch produced output that differs from the oracle")
    return elapsed, report


def attempt(what: str, fn):
    """``fn()``, or ``None`` with the failure logged: an op that raises —
    the engine's strict-mode safety checks included — is a failed op."""
    try:
        return fn()
    except Exception as error:
        print(f"ledger: {what} raised {error!r}", file=sys.stderr)
        return None


def measure_setup(inputs: Inputs, launch, reference: Reference) -> tuple[float, int]:
    """Median wall time of the configured number of cold launches, each
    stated at reference speed, and how many of them failed."""
    walls = []
    for _ in range(inputs.sizes.setup_launches):
        reference.sample()
        launched = attempt("cold launch", lambda: launch(inputs))
        if launched is not None:
            walls.append(launched[0] * reference.local_speed())
    failed = inputs.sizes.setup_launches - len(walls)
    return (statistics.median(walls) if walls else 0.0), failed


def timed_op(runner: Runner, document, expected: tuple[str, ...]) -> tuple[float, bool]:
    """One full op: wall seconds and whether the output was the oracle's."""
    gc.collect()  # every op starts from a collected heap, as `gcx run` does
    started = time.perf_counter()
    outputs = attempt("op", lambda: runner.run(document))
    return time.perf_counter() - started, outputs == expected


def first_result_seconds(runner: Runner, document) -> float:
    """Seconds until output token number R+1 of a streaming op, R being the
    number of queries: the first token that needed input.  The run is
    closed there; the full ops verify complete output."""
    gc.collect()
    stream = runner.stream(document)
    started = time.perf_counter()
    try:
        for index, _token in enumerate(stream):
            if index == runner.query_count:
                break
        return time.perf_counter() - started
    finally:
        stream.close()


def allocation_peak_kb(runner: Runner, document) -> float:
    """``tracemalloc`` peak of one untimed streaming op, output discarded."""
    gc.collect()
    tracemalloc.start()
    try:
        for _token in runner.stream(document):
            pass
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def run_in_process(inputs: Inputs, seconds: float) -> dict:
    """The end-to-end pass of a session or multi workload.  Every time is
    scaled to reference speed as it is taken (ledger_reference)."""
    sizes = inputs.sizes
    document = inputs.paths[0]
    expected = inputs.expected[0]
    reference = Reference()
    setup_s, failed = measure_setup(inputs, cold_launch, reference)
    attempted = sizes.setup_launches

    runner = Runner(inputs.workload, inputs.queries)
    # Streaming ops are closed early, which discards their buffer; a session
    # of their own keeps that from costing the full ops their warm buffer.
    streamer = Runner(inputs.workload, inputs.queries)
    for _ in range(sizes.warmup_ops):
        runner.run(document)
        first_result_seconds(streamer, document)

    # A full op and a time-to-first-result op alternate, so that both
    # metrics sample the whole window and a slow spell hits them alike.
    samples: list[float] = []
    firsts: list[float] = []
    deadline = time.perf_counter() + seconds * WINDOW_SHARE
    while time.perf_counter() < deadline or len(samples) < sizes.min_ops:
        if len(samples) % REFERENCE_EVERY == 0:
            reference.sample()
        speed = reference.local_speed()
        elapsed, ok = timed_op(runner, document, expected)
        samples.append(elapsed * speed)
        failed += not ok
        first = attempt(
            "streaming op", lambda: first_result_seconds(streamer, document)
        )
        if first is None:
            failed += 1
        else:
            firsts.append(first * speed)
    peak_kb = attempt("allocation op", lambda: allocation_peak_kb(runner, document))
    failed += peak_kb is None
    attempted += 2 * len(samples) + 1

    megabytes = inputs.input_bytes[0] / 1e6
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(samples),
        "speed": reference.speed(),
        "metrics": {
            "setup_s": setup_s,
            "throughput_mb_s": megabytes * len(samples) / sum(samples),
            "op_ms_p50": statistics.median(samples) * 1e3,
            "first_result_ms_p50": (
                statistics.median(firsts) * 1e3 if firsts else 0.0
            ),
            "peak_alloc_kb": peak_kb or 0.0,
        },
    }
