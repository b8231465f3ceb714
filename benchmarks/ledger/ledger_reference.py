"""A machine-speed probe, so that times can be stated at reference speed.

The reference box is a shared 2-core VM whose speed drifts by a third for
minutes at a time: the CPU time of an identical op rises with its wall
time, so no choice of clock or percentile removes it, and a wall-clock
bound of 25% cannot tell a regression from a neighbour.  Every run
therefore interleaves its ops with a fixed piece of work that uses the
same resources — an ``expat`` pass with Python handlers over a fixed
0.8 MB document: byte scanning, interpreter dispatch, allocation, dict
updates — and scales each time by ``NOMINAL_MS / reference time`` as
measured next to it.  On the reference box in a quiet minute the factor is
1 and the times read as plain milliseconds.  The probe uses the standard library only, so no
change to ``src/`` can move it.
"""

from __future__ import annotations

import gc
import statistics
import time
from xml.parsers import expat

from ledger_inputs import serve_fragments

#: What one reference pass takes on the reference box when it is quiet.
NOMINAL_MS = 20.0


class Reference:
    def __init__(self) -> None:
        body = "".join(serve_fragments(620, seed=0))
        self.document = f"<r>{body}</r>".encode("ascii")
        self.samples: list[float] = []
        self.sample()  # the first pass pays for cold caches; not a sample
        self.samples.clear()

    def sample(self) -> None:
        """Time one reference pass."""
        counts: dict[str, int] = {}
        stack: list[str] = []
        characters = 0

        def start(tag, _attributes):
            stack.append(tag)
            counts[tag] = counts.get(tag, 0) + 1

        def end(_tag):
            stack.pop()

        def data(text):
            nonlocal characters
            characters += len(text)

        parser = expat.ParserCreate()
        parser.StartElementHandler = start
        parser.EndElementHandler = end
        parser.CharacterDataHandler = data
        gc.collect()
        started = time.perf_counter()
        parser.Parse(self.document, True)
        self.samples.append(time.perf_counter() - started)

    def sample_many(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def local_speed(self) -> float:
        """Machine speed just now, relative to the reference box (1.0), from
        the three latest samples: multiply a time measured next to them by
        it to state that time at reference speed.  Scaling each sample by
        the speed around it, not the run by its average, is what keeps a
        slow spell that covers part of a run from moving the medians."""
        return NOMINAL_MS / (statistics.median(self.samples[-3:]) * 1e3)

    def speed(self) -> float:
        """Machine speed over the whole run, for one-off measurements and
        for the run's report."""
        return NOMINAL_MS / (statistics.median(self.samples) * 1e3)
