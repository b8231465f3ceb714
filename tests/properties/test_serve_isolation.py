"""Serving isolation property: interleaved clients never cross-deliver.

Hypothesis builds a scripted plan per client (register / inline eval /
chunked upload / cancelled upload / malformed document / ping) and an
arbitrary frame-level interleaving across 2-4 concurrent connections:
the send phase pushes every client's next frame in the chosen global
order *without reading replies* (the protocol allows pipelining), so
passes genuinely overlap on the server.  The read phase then verifies
each connection's full reply stream in isolation:

* every ``result``/``done`` frame names the client's own alias — results
  are never delivered across connections;
* each pass's fragments concatenate to the solo
  :class:`~repro.engine.session.QuerySession` oracle output — shared
  server state is observationally invisible;
* the stream terminates and every pass settles — no deadlock (the
  client socket timeout is the deadlock verdict);
* after every example the standing pools report zero outstanding
  checkouts (the RunOwner invariant).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import QuerySession

from tests.serve.harness import ServerFixture

SLOW_IO = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.function_scoped_fixture,
    ],
)

QUERIES = [
    "<out>{ for $x in /a/b return <hit>{ $x/c }</hit> }</out>",
    "<all>{ for $y in //c return $y }</all>",
]

_ORACLES = [QuerySession(query) for query in QUERIES]


def make_document(matches: int, salt: int) -> str:
    body = "".join(f"<b><c>v{salt}-{i}</c></b>" for i in range(matches))
    return f"<a>{body}</a>"


# One client action: (kind, query_index, document_size, salt).
actions = st.tuples(
    st.sampled_from(["eval", "upload", "cancel", "bad", "ping"]),
    st.integers(min_value=0, max_value=len(QUERIES) - 1),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=99),
)

plans = st.lists(  # one inner list of actions per client
    st.lists(actions, min_size=1, max_size=5), min_size=2, max_size=4
)

schedules = st.lists(
    st.integers(min_value=0, max_value=3), min_size=0, max_size=80
)


def compile_plan(plan):
    """A client's plan -> (wire frames, expected reply checks)."""
    frames = []
    expects = []
    for index in range(len(QUERIES)):
        frames.append(
            {"op": "register", "id": f"q{index}", "query": QUERIES[index]}
        )
        expects.append(("registered", f"q{index}"))
    for kind, query_index, size, salt in plan:
        alias = f"q{query_index}"
        if kind == "eval":
            document = make_document(size, salt)
            frames.append({"op": "eval", "id": alias, "doc": document})
            expects.append(("pass", alias, query_index, document))
        elif kind == "upload":
            document = make_document(size, salt)
            frames.append({"op": "begin", "id": alias})
            step = max(1, len(document) // 3)
            for start in range(0, len(document), step):
                frames.append(
                    {"op": "chunk", "data": document[start : start + step]}
                )
            frames.append({"op": "end"})
            expects.append(("pass", alias, query_index, document))
        elif kind == "cancel":
            frames.append({"op": "begin", "id": alias})
            frames.append({"op": "chunk", "data": "<a><b>"})
            frames.append({"op": "cancel"})
            expects.append(("cancelled",))
        elif kind == "bad":
            frames.append(
                {"op": "eval", "id": alias, "doc": f"<a><b><c>x{salt}"}
            )
            expects.append(("errpass", alias))
        else:  # ping
            frames.append({"op": "ping"})
            expects.append(("pong",))
    return frames, expects


def verify_replies(client, expects) -> None:
    for expect in expects:
        if expect[0] == "registered":
            frame = client.recv_frame()
            assert frame == {
                "type": "registered",
                "id": expect[1],
                "cached": frame["cached"],
            }
        elif expect[0] == "pong":
            assert client.recv_frame() == {"type": "pong"}
        elif expect[0] == "cancelled":
            assert client.recv_frame() == {"type": "cancelled"}
        elif expect[0] == "pass":
            _kind, alias, query_index, document = expect
            fragments = []
            last_seq = 0
            while True:
                frame = client.recv_frame()
                assert frame is not None, "connection closed mid-pass"
                if frame["type"] == "result":
                    assert frame["id"] == alias  # no cross-delivery
                    assert frame["seq"] == last_seq + 1  # ordered
                    last_seq = frame["seq"]
                    fragments.append(frame["fragment"])
                    continue
                assert frame["type"] == "done", frame
                assert frame["id"] == alias
                break
            expected = _ORACLES[query_index].run(document).output
            assert "".join(fragments) == expected
        else:  # errpass
            _kind, alias = expect
            while True:
                frame = client.recv_frame()
                assert frame is not None, "connection closed mid-pass"
                if frame["type"] == "result":
                    assert frame["id"] == alias
                    continue
                assert frame["type"] == "error", frame
                assert frame["code"] == "document-error"
                assert frame["fatal"] is False
                break


@pytest.fixture(scope="module")
def fixture():
    with ServerFixture(
        eval_workers=4, bridge_depth=4, request_timeout=30.0
    ) as fixture:
        yield fixture


class TestInterleavedClientIsolation:
    @SLOW_IO
    @given(plans=plans, schedule=schedules)
    def test_no_cross_delivery_no_deadlock(self, fixture, plans, schedule):
        compiled = [compile_plan(plan) for plan in plans]
        clients = [fixture.client(timeout=15.0) for _ in compiled]
        try:
            pending = [list(frames) for frames, _expects in compiled]
            # Send phase: hypothesis interleaves frames across clients
            # (pipelined; nothing is read back yet).
            for pick in schedule:
                queue = pending[pick % len(pending)]
                if queue:
                    clients[pick % len(pending)].send_frame(queue.pop(0))
            for index, queue in enumerate(pending):  # flush the rest
                for frame in queue:
                    clients[index].send_frame(frame)
            # Read phase: every connection's stream must verify alone.
            for index, (_frames, expects) in enumerate(compiled):
                verify_replies(clients[index], expects)
        finally:
            for client in clients:
                client.close()
        fixture.assert_clean(timeout=10.0)

    def test_server_survived_the_whole_property_run(self, fixture):
        """After all examples: still serving, nothing checked out."""
        with fixture.client() as client:
            assert client.ping() == {"type": "pong"}
        assert fixture.outstanding_checkouts() == 0
