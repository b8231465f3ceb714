"""The serve workload: a ``gcx serve`` subprocess behind its wire protocol.

Closed loop: each connection sends its next ``eval`` only after the
``done`` frame of the previous one, so a slower server receives less load.
Nothing here imports the server — only the CLI entry point and the NDJSON
frames documented in docs/SERVING.md are used.
"""

from __future__ import annotations

import json
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from ledger_inputs import Inputs
from ledger_reference import Reference
from ledger_stats import percentile
from ledger_workloads import child_env, measure_setup

CONNECTIONS = 2  # nproc on the reference box; the issue caps clients there
BANNER = "gcx serve: listening on "
QUERY_ID = "q"


class Server:
    """One ``gcx serve`` process on an ephemeral port; SIGTERM-drained on exit."""

    def __init__(self) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(CONNECTIONS)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=child_env(),
            text=True,
        )  # fmt: skip
        # A server that never prints its banner must not hang the run.
        watchdog = threading.Timer(60, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stderr.readline()
            if not line.startswith(BANNER):
                raise RuntimeError(f"gcx serve did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise
        finally:
            watchdog.cancel()
        self.startup_s = time.perf_counter() - started

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def vm_hwm_kb(self) -> float:
        """The server's peak resident set so far (``VmHWM``), in KB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
        raise RuntimeError("no VmHWM line in /proc status")

    def stop(self) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stderr.close()


@dataclass
class EvalReply:
    started: float  # perf_counter when the eval frame was sent
    first_result_s: float
    total_s: float
    output: str  # result fragments, concatenated
    frames: int  # frames the server sent for this op
    hwm_bytes: int


class Connection:
    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.reader.close()
        self.sock.close()

    def send(self, frame: dict) -> None:
        self.sock.sendall(json.dumps(frame).encode("ascii") + b"\n")

    def receive(self, expected_type: str | None = None) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        frame = json.loads(line)
        if expected_type is not None and frame.get("type") != expected_type:
            raise RuntimeError(f"expected a {expected_type} frame, got {frame}")
        return frame

    def register(self, query: str) -> tuple[float, bool]:
        """Seconds to register, and whether the server had it compiled."""
        started = time.perf_counter()
        self.send({"op": "register", "id": QUERY_ID, "query": query})
        frame = self.receive("registered")
        return time.perf_counter() - started, bool(frame["cached"])

    def ping(self) -> float:
        started = time.perf_counter()
        self.send({"op": "ping"})
        self.receive("pong")
        return time.perf_counter() - started

    def eval(self, document: str) -> EvalReply:
        started = time.perf_counter()
        self.send({"op": "eval", "id": QUERY_ID, "doc": document})
        first = None
        fragments: list[str] = []
        frames = 0
        while True:
            frame = self.receive()
            frames += 1
            kind = frame["type"]
            if kind == "result":
                if first is None:
                    first = time.perf_counter() - started
                fragments.append(frame["fragment"])
            elif kind == "done":
                total = time.perf_counter() - started
                return EvalReply(
                    started,
                    first if first is not None else total,
                    total,
                    "".join(fragments),
                    frames,
                    frame["hwm_bytes"],
                )
            else:
                raise RuntimeError(f"eval answered with {frame}")


def serve_cold_launch(inputs: Inputs) -> tuple[float, dict]:
    """Spawn -> banner -> register -> first ``done``; the server is then
    drained.  The phase report feeds the traced pass."""
    (query,) = inputs.queries.values()
    started = time.perf_counter()
    with Server() as server:
        with Connection(server.port) as connection:
            register_s, _cached = connection.register(query)
            reply = connection.eval(inputs.documents[0])
            elapsed = time.perf_counter() - started
    if (reply.output,) != inputs.expected[0]:
        raise RuntimeError("cold serve op produced output that differs from the oracle")
    return elapsed, {
        "startup_ms": server.startup_s * 1e3,
        "register_cold_ms": register_s * 1e3,
        "first_op_ms": reply.total_s * 1e3,
    }


@dataclass
class ClientLog:
    """What one closed-loop connection saw during the timed window."""

    replies: list[EvalReply]
    input_bytes: int = 0
    failed: int = 0
    errors: int = 0  # ops the server answered with an error or dropped
    started: float = 0.0
    ended: float = 0.0


def _client(
    index: int,
    port: int,
    inputs: Inputs,
    seconds: float,
    barrier: threading.Barrier,
    log: ClientLog,
    recorder,
) -> None:
    (query,) = inputs.queries.values()
    documents, expected = inputs.documents, inputs.expected
    sizes = inputs.input_bytes
    # Connections walk the fragment set from different offsets so both are
    # never on the same document at once.
    cursor = index * len(documents) // CONNECTIONS
    try:
        with Connection(port) as connection:
            connection.register(query)
            for _ in range(inputs.sizes.serve_warmup_evals):
                connection.eval(documents[cursor % len(documents)])
                cursor += 1
            barrier.wait(timeout=120)
            log.started = time.perf_counter()
            deadline = log.started + seconds
            while (
                time.perf_counter() < deadline
                or len(log.replies) < inputs.sizes.min_ops
            ):
                which = cursor % len(documents)
                cursor += 1
                try:
                    reply = connection.eval(documents[which])
                except RuntimeError as error:  # a survivable error frame
                    print(f"ledger: serve op failed: {error}", file=sys.stderr)
                    log.failed += 1
                    log.errors += 1
                    continue
                if recorder is not None:
                    record_spans(recorder, reply, f"{index}.{len(log.replies)}")
                log.replies.append(reply)
                log.input_bytes += sizes[which]
                log.failed += (reply.output,) != expected[which]
            log.ended = time.perf_counter()
    except Exception as error:  # connection lost: the op in flight failed
        print(f"ledger: serve connection {index} died: {error!r}", file=sys.stderr)
        barrier.abort()
        log.failed += 1
        log.errors += 1
        log.ended = time.perf_counter()


def record_spans(recorder, reply: EvalReply, op: str) -> None:
    """One op as seen from the client: eval -> done, and inside it the
    wait for the first result frame."""
    name = "serve_small_docs"
    root = recorder.add("serve.eval", reply.started,
                        reply.started + reply.total_s, op=op, workload=name)  # fmt: skip
    recorder.add("serve.first_result", reply.started,
                 reply.started + reply.first_result_s, op=op, workload=name,
                 parent=root)  # fmt: skip


def drive_clients(
    server: Server, inputs: Inputs, seconds: float, recorder=None
) -> list[ClientLog]:
    """Run the closed-loop connections against ``server`` for ``seconds``;
    with a ``recorder`` every op also leaves its spans."""
    barrier = threading.Barrier(CONNECTIONS)
    logs = [ClientLog([]) for _ in range(CONNECTIONS)]
    threads = [
        threading.Thread(
            target=_client,
            args=(index, server.port, inputs, seconds, barrier, logs[index], recorder),
            name=f"ledger-client-{index}",
        )
        for index in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
        if thread.is_alive():
            raise RuntimeError("a serve client did not finish")
    return logs


def window_summary(logs: list[ClientLog], speed: float) -> dict:
    """Latency and throughput over the connections' shared timed window,
    stated at reference speed given the machine ``speed`` around it."""
    logs = [log for log in logs if log.replies]
    if not logs:
        raise RuntimeError("no serve op completed")
    replies = [reply for log in logs for reply in log.replies]
    totals = [reply.total_s * speed for reply in replies]
    firsts = [reply.first_result_s * speed for reply in replies]
    wall = max(log.ended for log in logs) - min(log.started for log in logs)
    wall *= speed
    return {
        "ops": len(replies),
        "failed": sum(log.failed for log in logs),
        "errors": sum(log.errors for log in logs),
        "throughput_mb_s": sum(log.input_bytes for log in logs) / 1e6 / wall,
        "op_ms_p50": statistics.median(totals) * 1e3,
        "op_ms_p90": percentile(totals, 0.90) * 1e3,
        "op_ms_p99": percentile(totals, 0.99) * 1e3,
        "first_result_ms_p50": statistics.median(firsts) * 1e3,
        "first_result_ms_p99": percentile(firsts, 0.99) * 1e3,
        "frames_per_op": sum(reply.frames for reply in replies) / len(replies),
        "peak_buffer_bytes": max(reply.hwm_bytes for reply in replies),
    }


def run_serve(inputs: Inputs, seconds: float) -> dict:
    """The end-to-end pass of the serve workload."""
    reference = Reference()
    setup_s, failed = measure_setup(inputs, serve_cold_launch, reference)
    with Server() as server:
        # The clients keep both cores busy, so machine speed is sampled
        # around the window, not inside it.
        reference.sample_many(inputs.sizes.reference_samples)
        logs = drive_clients(server, inputs, seconds)
        reference.sample_many(inputs.sizes.reference_samples)
        peak_kb = server.vm_hwm_kb()
    window = window_summary(logs, reference.speed())
    return {
        "attempted": inputs.sizes.setup_launches + window["ops"] + window["errors"],
        "failed": failed + window["failed"],
        "samples": window["ops"],
        "speed": reference.speed(),
        "metrics": {
            "setup_s": setup_s,
            "throughput_mb_s": window["throughput_mb_s"],
            "op_ms_p50": window["op_ms_p50"],
            "first_result_ms_p50": window["first_result_ms_p50"],
            "peak_alloc_kb": peak_kb,
        },
    }
