"""Golden test for Figure 2: active garbage collection, step by step.

The paper traces the introduction's query on the stream
``<bib><book><title/><author/></book>...`` and shows, per step, what has
been read, the buffer contents with role annotations, and the output.  This
test drives the preprojector token by token and replays the evaluation up
to step 7, comparing buffer snapshots against the figure (base scheme: no
aggregate roles, no early updates, no redundant-role elimination).
"""

import pytest

from repro.analysis import CompileOptions, compile_query
from repro.buffer import BufferTree
from repro.engine.evaluator import Evaluator
from repro.stream import StreamPreprojector
from repro.xmlio import tokenize
from repro.xmlio.serialize import StringSink

from tests.helpers import INTRO_QUERY

PAPER_OPTIONS = CompileOptions(early_updates=False, eliminate_redundant=False)
STREAM = "<bib><book><title/><author/></book></bib>"


@pytest.fixture
def machinery():
    compiled = compile_query(INTRO_QUERY, PAPER_OPTIONS)
    buffer = BufferTree()
    preprojector = StreamPreprojector(
        tokenize(STREAM), compiled.projection_tree, buffer, aggregate_roles=False
    )
    return compiled, buffer, preprojector


class TestFigure2Projection:
    """Steps 2-5: reading tokens fills the buffer with annotated nodes."""

    def test_step2_bib(self, machinery):
        _compiled, buffer, pp = machinery
        pp.pull()  # <bib>
        assert buffer.format_contents() == ["bib{r2}"]

    def test_step3_book(self, machinery):
        _compiled, buffer, pp = machinery
        pp.pull(), pp.pull()  # <bib> <book>
        assert buffer.format_contents() == ["bib{r2}", "  book{r3,r5,r6}"]

    def test_step4_title(self, machinery):
        _compiled, buffer, pp = machinery
        for _ in range(4):  # <bib> <book> <title> </title>
            pp.pull()
        assert buffer.format_contents() == [
            "bib{r2}",
            "  book{r3,r5,r6}",
            "    title{r5,r7}",
        ]

    def test_step5_author(self, machinery):
        _compiled, buffer, pp = machinery
        for _ in range(6):  # ... <author> </author>
            pp.pull()
        assert buffer.format_contents() == [
            "bib{r2}",
            "  book{r3,r5,r6}",
            "    title{r5,r7}",
            "    author{r5}",
        ]


class TestFigure2Evaluation:
    """Steps 6-7: </book> unblocks the if, output + signOffs purge author."""

    def test_step7_buffer_after_first_book(self, machinery):
        compiled, buffer, pp = machinery
        list(
            Evaluator(
                compiled.rewritten, buffer, pp.pull, aggregate_roles=False
            ).iter_tokens()
        )
        # After evaluation the buffer is empty, so instead replay only the
        # first book by a fresh run over a longer stream, pausing when the
        # second book starts: the paper's step 7 state.
        compiled2 = compile_query(INTRO_QUERY, PAPER_OPTIONS)
        buffer2 = BufferTree()
        stream = "<bib><book><title/><author/></book><book><x/></book></bib>"
        pp2 = StreamPreprojector(
            tokenize(stream), compiled2.projection_tree, buffer2,
            aggregate_roles=False,
        )
        evaluator2 = Evaluator(
            compiled2.rewritten, buffer2, pp2.pull, aggregate_roles=False
        )
        snapshots = []

        def snapshot(event):
            snapshots.append((event, buffer2.format_contents()))

        evaluator2.on_event = snapshot
        list(evaluator2.iter_tokens())
        # Find the state right after the first book's signOff batch ran
        # (the last signOff of the batch is r5's).
        after_batch = [
            state
            for event, state in snapshots
            if event.startswith("signOff") and "r5" in event
        ][0]
        assert after_batch[:3] == [
            "bib{r2}",
            "  book{r6}",
            "    title{r7}",
        ]

    def test_step6_output(self, machinery):
        compiled, buffer, pp = machinery
        sink = StringSink()
        sink.write_all(
            Evaluator(
                compiled.rewritten, buffer, pp.pull, aggregate_roles=False
            ).iter_tokens()
        )
        assert sink.getvalue() == "<r><book><title/><author/></book><title/></r>"

    def test_author_purged_title_kept(self, machinery):
        """Step 6's narrative: the author node loses its single role r5 and,
        as it has no descendants, is purged; title keeps r7 for for_b."""
        compiled, buffer, pp = machinery
        states = []
        evaluator = Evaluator(
            compiled.rewritten, buffer, pp.pull, aggregate_roles=False,
            on_event=lambda event: states.append(
                (event, [l.split("{")[0].strip() for l in buffer.format_contents()])
            ),
        )
        list(evaluator.iter_tokens())
        r5_state = [s for e, s in states if "r5" in e][0]
        assert "author" not in r5_state
        assert "title" in r5_state

    def test_buffer_empty_at_end(self, machinery):
        compiled, buffer, pp = machinery
        list(
            Evaluator(
                compiled.rewritten, buffer, pp.pull, aggregate_roles=False
            ).iter_tokens()
        )
        assert buffer.is_empty()
        assert buffer.stats.role_accounting_balanced()
