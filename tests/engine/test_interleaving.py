"""Interleaved same-thread streaming runs: independent dynamic state.

A session supports any number of concurrently open streaming runs on one
thread; each run owns its preprojector (frame stack, depth, consumed
``[1]`` bookkeeping) and buffer while sharing the session's lazy-DFA
matcher.  These are the regression tests that the shared static state
stays observationally invisible across interleavings — in particular that
two generators over *different documents* keep independent preprojector
depth state, and that ``check_safety`` (run strictly at each run's
finalize) never sees one run's counters polluted by another's progress.

Kept deliberately brutal on the schedule: uneven alternation, runs over
documents of different depths, ``[1]``-consuming (off-DFA) queries, and a
multi-query shared pass interleaved with single-query runs of the same
underlying sessions.
"""

from __future__ import annotations

import pytest

import repro.engine.session as session_module
from repro.engine import MultiQuerySession, QuerySession
from repro.stream.preprojector import StreamPreprojector
from repro.xmark.queries import XMARK_QUERIES
from repro.xmlio import StringSink


def drain(tokens) -> str:
    sink = StringSink()
    for token in tokens:
        sink.write(token)
    sink.close()
    return sink.getvalue()


def doc_flat(n: int) -> str:
    items = "".join(f"<book><title>F{i}</title></book>" for i in range(n))
    return f"<bib>{items}</bib>"


def doc_deep(n: int) -> str:
    items = "".join(
        f"<book><x><y><z>deep</z></y></x><title>D{i}</title></book>"
        for i in range(n)
    )
    return f"<bib>{items}</bib>"


QUERY = "<o>{for $b in /bib/book return $b/title}</o>"
#: Forces [1]-step consumption (off-DFA transitions) via the condition.
FIRST_WITNESS_QUERY = (
    "<o>{for $b in /bib/book return "
    'if ($b/title = "F1") then <hit/> else ()}</o>'
)


class TestInterleavedDepthState:
    def test_two_generators_keep_independent_depth(self, monkeypatch):
        """The satellite regression: depths diverge, outputs do not."""
        session = QuerySession(QUERY)
        doc_a, doc_b = doc_flat(4), doc_deep(3)
        expected_a = session.run(doc_a).output
        expected_b = session.run(doc_b).output

        pumps: list[StreamPreprojector] = []

        class RecordedPump(StreamPreprojector):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pumps.append(self)

        monkeypatch.setattr(session_module, "StreamPreprojector", RecordedPump)
        run_a = session.run_streaming(doc_a)
        run_b = session.run_streaming(doc_b)
        pump_a, pump_b = pumps
        out_a = [next(run_a)]  # A under way...
        out_b = drain(run_b)  # ...while B runs to completion
        # B's exhaustion must not have dragged A's preprojector along:
        # A is still mid-document at its own depth, B's is closed out.
        assert not pump_a.buffer.document.finished
        assert run_b.result.exhausted_input
        assert pump_b.depth == 0
        out_a.extend(run_a)
        assert drain(out_a) == expected_a
        assert out_b == expected_b
        assert run_a.result is not None and run_b.result is not None

    @pytest.mark.parametrize("query", [QUERY, FIRST_WITNESS_QUERY])
    def test_uneven_three_way_interleave(self, query):
        session = QuerySession(query)
        documents = [doc_flat(5), doc_deep(4), doc_flat(1)]
        expected = [session.run(doc).output for doc in documents]

        runs = [iter(session.run_streaming(doc)) for doc in documents]
        outputs: list[list] = [[], [], []]
        done = [False, False, False]
        step = 0
        while not all(done):
            index = step % 3
            step += 1
            # Uneven schedule: run i advances i+1 tokens per turn.
            for _count in range(index + 1):
                if done[index]:
                    break
                try:
                    outputs[index].append(next(runs[index]))
                except StopIteration:
                    done[index] = True
        assert [drain(tokens) for tokens in outputs] == expected

    def test_strict_safety_after_interleaved_completion(self):
        """check_safety runs per finalize; interleaving must not trip it."""
        session = QuerySession(FIRST_WITNESS_QUERY)  # strict by default
        run_a = iter(session.run_streaming(doc_flat(3)))
        run_b = iter(session.run_streaming(doc_deep(2)))
        a_done = b_done = False
        while not (a_done and b_done):
            if not a_done:
                a_done = next(run_a, None) is None
            if not b_done:
                b_done = next(run_b, None) is None
        # Both finalized under strict mode: balanced role accounting each.
        assert session.runs_completed >= 2

    def test_multi_run_interleaved_with_single_runs(self):
        """A shared pass and plain runs of its member sessions coexist."""
        multi = MultiQuerySession(
            {"Q1": XMARK_QUERIES["Q1"].adapted, "Q17": XMARK_QUERIES["Q17"].adapted}
        )
        from pathlib import Path

        document = (
            Path(__file__).parent / "goldens" / "document.xml"
        ).read_text(encoding="utf-8")
        expected_q1 = multi.sessions["Q1"].run(document).output
        expected_q17 = multi.sessions["Q17"].run(document).output

        stream = multi.run_streaming(document)
        first_pairs = [next(stream) for _count in range(2)]
        # While the shared pass is mid-flight, run the same sessions solo
        # on this thread — their checkouts are per-run, so nothing leaks.
        assert multi.sessions["Q1"].run(document).output == expected_q1
        sinks = {"Q1": StringSink(), "Q17": StringSink()}
        for name, token in first_pairs:
            sinks[name].write(token)
        for name, token in stream:
            sinks[name].write(token)
        for sink in sinks.values():
            sink.close()
        assert sinks["Q1"].getvalue() == expected_q1
        assert sinks["Q17"].getvalue() == expected_q17
