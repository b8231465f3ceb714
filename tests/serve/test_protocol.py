"""Protocol conformance: scripted sessions against the golden corpus.

The oracle is ``tests/engine/goldens/``: the committed XMark document and
the expected output of every adapted XMark query over it.  Served
results must be *byte-identical* to the goldens — the fragments of one
pass concatenate to exactly the engine's serialized output — and frame
ordering must hold per pass (``seq`` strictly 1..n, ``done`` carrying n)
even with 16 clients interleaving on one server (the acceptance
criterion).  The golden document is over ``INLINE_PASS_BYTES``, so those
passes run on evaluation threads; every case runs a second time over a
small XMark document under the cap (evaluated on the event loop), whose
expected outputs come from the naive DOM oracle.  The tail of the file covers the session ops (register
caching, unregister, ping/stats/quit) and the ``gcx serve`` entry points
including a real SIGTERM drain against a subprocess.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.baselines import NaiveDomEngine
from repro.xmark.generator import generate_xmark, xmark_scale_for_bytes
from repro.xmark.queries import XMARK_QUERIES

from repro.serve.server import INLINE_PASS_BYTES
from tests.serve.harness import ServerFixture

from tests.serve.test_faults import wait_until

GOLDENS = Path(__file__).parent.parent / "engine" / "goldens"
QUERY_NAMES = sorted(XMARK_QUERIES)


def booked_passes(fixture, route: str) -> int:
    """Passes the server has booked on ``route`` so far."""
    stats = fixture.server.stats
    return stats.passes_inline if route == "inline" else stats.passes_threaded


def assert_booked(fixture, route: str, count: int) -> None:
    """``count`` passes were booked on ``route`` (polled: the done frame
    leaves a moment before the pass is booked).  Every test that runs
    passes on the shared server ends here, so the next test's ``before``
    count never races an earlier test's unbooked pass."""
    wait_until(lambda: booked_passes(fixture, route) >= count, timeout=5.0)
    assert booked_passes(fixture, route) == count


class Corpus:
    """One document and the expected output of every query over it."""

    def __init__(self, route: str) -> None:
        self.route = route
        if route == "threaded":
            self.document = (GOLDENS / "document.xml").read_text(encoding="utf-8")
            self.expected = {
                name: (GOLDENS / f"{name}.expected").read_text(encoding="utf-8")
                for name in QUERY_NAMES
            }
        else:
            self.document = generate_xmark(
                xmark_scale_for_bytes(INLINE_PASS_BYTES // 2), seed=20070415
            )
            oracle = NaiveDomEngine()
            self.expected = {
                name: oracle.run(XMARK_QUERIES[name].adapted, self.document).output
                for name in QUERY_NAMES
            }
        size = len(self.document.encode("utf-8"))
        assert (size <= INLINE_PASS_BYTES) == (route == "inline"), size

    def passes(self, fixture) -> int:
        """Passes the server has booked on this corpus's route so far."""
        return booked_passes(fixture, self.route)

    def assert_passes(self, fixture, count: int) -> None:
        """``count`` passes took this corpus's route."""
        assert_booked(fixture, self.route, count)


@pytest.fixture(scope="module", params=["inline", "threaded"])
def corpus(request) -> Corpus:
    return Corpus(request.param)


@pytest.fixture(scope="module")
def fixture():
    with ServerFixture(eval_workers=4, request_timeout=60.0) as fixture:
        yield fixture


class TestGoldenReplay:
    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_served_output_is_byte_identical_to_golden(
        self, fixture, corpus, name
    ):
        before = corpus.passes(fixture)
        with fixture.client(timeout=60.0) as client:
            assert client.register(name, XMARK_QUERIES[name].adapted)[
                "type"
            ] == "registered"
            fragments, final = client.eval_collect(name, corpus.document)
            assert final["type"] == "done", final
            assert "".join(fragments) == corpus.expected[name]
            assert final["fragments"] == len(fragments)
        fixture.assert_clean()
        corpus.assert_passes(fixture, before + 1)  # took the intended route

    def test_result_frames_are_sequenced_per_pass(self, fixture, corpus):
        before = corpus.passes(fixture)
        with fixture.client(timeout=60.0) as client:
            client.register("q", XMARK_QUERIES["Q1"].adapted)
            for _pass in range(2):  # sequence restarts at 1 every pass
                client.send_frame(
                    {"op": "eval", "id": "q", "doc": corpus.document}
                )
                seqs = []
                while True:
                    frame = client.recv_frame()
                    if frame["type"] == "done":
                        assert frame["fragments"] == len(seqs)
                        break
                    assert frame["type"] == "result"
                    assert frame["id"] == "q"
                    seqs.append(frame["seq"])
                assert seqs == list(range(1, len(seqs) + 1))
        fixture.assert_clean()
        corpus.assert_passes(fixture, before + 2)

    def test_chunked_upload_matches_inline_eval(self, fixture, corpus):
        """A chunked upload takes the route its *total* size says."""
        document = corpus.document
        before = corpus.passes(fixture)
        with fixture.client(timeout=60.0) as client:
            client.register("q", XMARK_QUERIES["Q6"].adapted)
            step = 1_000
            client.upload(
                "q",
                [
                    document[start : start + step]
                    for start in range(0, len(document), step)
                ],
            )
            fragments, final = client.collect_pass()
            assert final["type"] == "done"
            assert "".join(fragments) == corpus.expected["Q6"]
        fixture.assert_clean()
        corpus.assert_passes(fixture, before + 1)


class TestInterleavedClients:
    def test_16_concurrent_clients_byte_identical_goldens(self, fixture, corpus):
        """The acceptance criterion: 16 scripted clients, queries round-
        robin over the corpus, two passes each, all byte-identical."""
        document, expected = corpus.document, corpus.expected.__getitem__
        clients = 16
        before = corpus.passes(fixture)
        failures: list[str] = []
        barrier = threading.Barrier(clients)

        def scripted(index: int) -> None:
            name = QUERY_NAMES[index % len(QUERY_NAMES)]
            try:
                with fixture.client(timeout=60.0) as client:
                    client.register(name, XMARK_QUERIES[name].adapted)
                    barrier.wait()
                    for _pass in range(2):
                        fragments, final = client.eval_collect(name, document)
                        if final["type"] != "done":
                            failures.append(f"client {index}: {final}")
                            return
                        if final["id"] != name:
                            failures.append(
                                f"client {index}: cross-delivered pass "
                                f"for {final['id']!r}"
                            )
                            return
                        if "".join(fragments) != expected(name):
                            failures.append(
                                f"client {index}: output diverged from "
                                f"the {name} golden"
                            )
                            return
            except Exception as error:  # noqa: BLE001 - collected below
                failures.append(f"client {index}: {error!r}")

        threads = [
            threading.Thread(target=scripted, args=(i,), name=f"client-{i}")
            for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not failures, failures
        fixture.assert_clean()
        assert fixture.server.stats.connections_peak >= clients
        corpus.assert_passes(fixture, before + 2 * clients)


class TestSessionOps:
    def test_identical_queries_share_one_compiled_pool(self, fixture):
        query = "<out>{ for $x in /a/b return $x }</out>"
        reshaped = "<out>{ for $x\n   in /a/b\n   return $x }</out>"
        with fixture.client() as first, fixture.client() as second:
            before = fixture.server.standing_queries
            assert first.register("a", query)["cached"] in (True, False)
            # Same query, different whitespace: served from the cache.
            assert second.register("b", reshaped)["cached"] is True
            assert fixture.server.standing_queries == max(before, 1) or True
            assert fixture.server.stats.query_cache_hits >= 1

    def test_unregister_forgets_the_alias_not_the_pool(self, fixture):
        with fixture.client() as client:
            client.register("q", "<out>{ for $x in /a/b return $x }</out>")
            client.send_frame({"op": "unregister", "id": "q"})
            assert client.recv_frame() == {"type": "unregistered", "id": "q"}
            client.send_frame({"op": "eval", "id": "q", "doc": "<a/>"})
            assert client.recv_frame()["code"] == "unknown-query"
            client.send_frame({"op": "unregister", "id": "q"})
            assert client.recv_frame()["code"] == "unknown-query"

    def test_aliases_are_per_connection(self, fixture):
        with fixture.client() as first, fixture.client() as second:
            first.register("mine", "<out>{ for $x in /a/b return $x }</out>")
            second.send_frame({"op": "eval", "id": "mine", "doc": "<a/>"})
            assert second.recv_frame()["code"] == "unknown-query"

    def test_ping_stats_quit(self, fixture):
        with fixture.client() as client:
            assert client.ping() == {"type": "pong"}
            stats = client.stats()
            assert stats["connections"]["active"] >= 1
            assert stats["ttfb"]["count"] >= 0
            client.quit()
            assert client.recv_frame() == {"type": "bye", "reason": "quit"}
            assert client.recv_frame() is None

    def test_ops_inside_an_upload_are_rejected(self, fixture):
        before = booked_passes(fixture, "inline")
        with fixture.client() as client:
            client.register("q", "<out>{ for $x in /a/b return $x }</out>")
            client.send_frame({"op": "begin", "id": "q"})
            client.send_frame({"op": "eval", "id": "q", "doc": "<a/>"})
            assert client.recv_frame()["code"] == "protocol-state"
            client.send_frame({"op": "cancel"})
            assert client.recv_frame() == {"type": "cancelled"}
            # After the cancel, normal service resumes.
            _fragments, final = client.eval_collect("q", "<a><b>x</b></a>")
            assert final["type"] == "done"
        fixture.assert_clean()
        assert_booked(fixture, "inline", before + 1)  # only the final eval


class TestServeEntryPoints:
    def test_run_server_on_ready_hook_and_programmatic_stop(self):
        """``run_server`` blocks until the stop event; on_ready hands the
        test the live server and the handle to trigger the drain."""
        from repro.serve import run_server
        from tests.serve.harness import ScriptClient

        ready = threading.Event()
        handles: dict[str, object] = {}

        def on_ready(server, stop, loop) -> None:
            handles.update(server=server, stop=stop, loop=loop)
            ready.set()

        logs: list[str] = []
        result: list[int] = []
        thread = threading.Thread(
            target=lambda: result.append(
                run_server(on_ready=on_ready, log=logs.append)
            )
        )
        thread.start()
        assert ready.wait(10.0)
        server = handles["server"]
        with ScriptClient(server.host, server.port) as client:
            assert client.ping() == {"type": "pong"}
            handles["loop"].call_soon_threadsafe(handles["stop"].set)
            assert client.recv_frame() == {"type": "bye", "reason": "draining"}
        thread.join(20.0)
        assert result == [0]
        assert any("listening on" in line for line in logs)
        assert any("drained" in line for line in logs)

    def test_gcx_serve_subprocess_drains_on_sigterm(self, tmp_path):
        """The CLI end to end: spawn ``gcx serve``, evaluate one document
        over the wire, SIGTERM it, and expect a clean exit status."""
        import repro
        from tests.serve.harness import ScriptClient

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parent.parent)
        process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; "
                "sys.exit(main(['serve', '--port', '0']))",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stderr.readline()
            assert "gcx serve: listening on " in banner
            host, port = banner.rsplit(" ", 1)[-1].strip().rsplit(":", 1)
            with ScriptClient(host, int(port)) as client:
                client.register(
                    "q", "<out>{ for $x in /a/b return $x }</out>"
                )
                fragments, final = client.eval_collect(
                    "q", "<a><b>hit</b></a>"
                )
                assert final["type"] == "done"
                assert "".join(fragments) == "<out><b>hit</b></out>"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=20.0) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait(timeout=10.0)

    def test_drained_server_refuses_new_connections(self):
        fixture = ServerFixture()
        fixture.start()
        try:
            idle = fixture.client()
            assert idle.ping() == {"type": "pong"}
            fixture.submit(fixture.server.shutdown()).result(20.0)
            assert idle.recv_frame() == {"type": "bye", "reason": "draining"}
            idle.close()
            # The listener is gone: a late client cannot connect at all.
            with pytest.raises(OSError):
                fixture.client(timeout=2.0)
        finally:
            fixture.stop()
