"""Regenerate the conformance corpus (document + expected outputs).

Run only after an *intentional* output-semantics change, and eyeball the
diff — these files are the end-to-end oracle for matcher/buffer refactors:

    PYTHONPATH=src python tests/engine/goldens/regenerate.py

Besides each query's output it writes ``counters.json``: the run's
deterministic :class:`~repro.buffer.stats.BufferStats` counters (no
timings), so a refactor that promises "same reads, same order" is held
to it by ``test_goldens.py``, not only by review.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.engine.session import QuerySession
from repro.xmark.generator import generate_xmark, xmark_scale_for_bytes
from repro.xmark.queries import XMARK_QUERIES

GOLDENS = Path(__file__).parent
TARGET_BYTES = 60_000
SEED = 20070415  # fixed forever: the corpus document must stay stable

#: The BufferStats fields pinned per query: every one is a pure function of
#: the query, the document and the order of the evaluator's input reads.
COUNTERS = (
    "tokens_read",
    "nodes_created",
    "hwm_bytes",
    "hwm_nodes",
    "tokens_held_before_emit",
    "early_flushes",
    "signoffs_executed",
    "gc_invocations",
)


def counters(stats) -> dict[str, int]:
    """The pinned counters of one run's ``BufferStats``."""
    return {name: getattr(stats, name) for name in COUNTERS}


def main() -> None:
    document = generate_xmark(xmark_scale_for_bytes(TARGET_BYTES), seed=SEED)
    (GOLDENS / "document.xml").write_text(document, encoding="utf-8")
    print(f"document.xml: {len(document)} bytes (seed={SEED})")
    pinned = {}
    for name, entry in sorted(XMARK_QUERIES.items()):
        result = QuerySession(entry.adapted).run(document)
        (GOLDENS / f"{name}.expected").write_text(result.output, encoding="utf-8")
        pinned[name] = counters(result.stats)
        print(f"{name}.expected: {len(result.output)} bytes")
    (GOLDENS / "counters.json").write_text(
        json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"counters.json: {len(pinned)} queries")


if __name__ == "__main__":
    main()
