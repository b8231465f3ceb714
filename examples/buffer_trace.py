"""Reproduce Figure 2: active garbage collection, step by step.

Runs the introduction's query over the paper's example stream in the base
configuration (per-node roles, no early updates, no redundancy elimination)
and prints, per input token, the buffer contents with role annotations and
the output produced so far — the three columns of Figure 2.

Run:  python examples/buffer_trace.py
"""

from repro.analysis import CompileOptions, compile_query
from repro.buffer import BufferTree
from repro.engine.evaluator import Evaluator
from repro.stream import StreamPreprojector
from repro.xmlio import tokenize
from repro.xmlio.serialize import StringSink
from repro.xquery import unparse

INTRO_QUERY = """
<r> {
for $bib in /bib return
((for $x in $bib/* return
if (not(exists $x/price)) then $x else ()),
for $b in $bib/book return $b/title)
} </r>
"""

STREAM = "<bib><book><title/><author/></book><book><price>9</price></book></bib>"


class TracingPreprojector(StreamPreprojector):
    """Prints a Figure 2 row after every token it processes."""

    def __init__(self, *args, sink: StringSink, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sink = sink
        self._step = 0

    def pull(self) -> bool:
        before = self.buffer.stats.tokens_read
        more = super().pull()
        if self.buffer.stats.tokens_read != before:
            self._step += 1
            print(f"step {self._step:2d}  buffer:")
            for line in self.buffer.format_contents() or ["  (empty)"]:
                print("    " + line)
            print(f"        output so far: {self._sink.getvalue()!r}")
        return more


def main() -> None:
    compiled = compile_query(
        INTRO_QUERY, CompileOptions(early_updates=False, eliminate_redundant=False)
    )
    print("rewritten query (with signOff statements):")
    print(unparse(compiled.rewritten, indent=2))
    print()
    print(f"input stream: {STREAM}")
    print()

    buffer = BufferTree()
    sink = StringSink()
    preprojector = TracingPreprojector(
        tokenize(STREAM),
        compiled.projection_tree,
        buffer,
        aggregate_roles=False,
        sink=sink,
    )
    evaluator = Evaluator(
        compiled.rewritten,
        buffer,
        preprojector.pull,
        aggregate_roles=False,
        on_event=lambda event: print(f"        {event}"),
    )
    sink.write_all(evaluator.iter_tokens())
    print()
    print("final output:", sink.getvalue())
    print("final stats: ", buffer.stats.summary())


if __name__ == "__main__":
    main()
