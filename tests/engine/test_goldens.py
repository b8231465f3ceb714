"""Deterministic conformance corpus: every XMark query vs committed goldens.

``goldens/document.xml`` is a small XMark document (committed, so the
oracle does not depend on the generator's cross-version stability) and
``goldens/<Q>.expected`` holds the full evaluation output of each adapted
query from :mod:`repro.xmark.queries` over it.  Every query runs three
ways — fresh session, recycled session, and through a shared
:class:`~repro.engine.pool.SessionPool` — and all must stay byte-identical
to the committed bytes, giving matcher/buffer refactors an end-to-end
oracle beyond the unit level.  ``goldens/counters.json`` pins each query's
deterministic ``BufferStats`` counters as well (reads, buffered nodes,
high watermarks, hold time, flushes, signOffs, GC calls), so a refactor
of how the evaluator walks the buffer must keep the same input reads in
the same order, not only the same bytes.

To regenerate after an *intentional* semantics change::

    PYTHONPATH=src python tests/engine/goldens/regenerate.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.engine import QuerySession, SessionPool
from repro.xmark.queries import XMARK_QUERIES

GOLDENS = Path(__file__).parent / "goldens"
QUERY_NAMES = sorted(XMARK_QUERIES)


@pytest.fixture(scope="module")
def document() -> str:
    return (GOLDENS / "document.xml").read_text(encoding="utf-8")


def expected(name: str) -> str:
    path = GOLDENS / f"{name}.expected"
    assert path.is_file(), (
        f"missing golden for {name}; regenerate with "
        "PYTHONPATH=src python tests/engine/goldens/regenerate.py"
    )
    return path.read_text(encoding="utf-8")


class TestGoldenConformance:
    def test_every_query_has_a_golden(self):
        assert {p.stem for p in GOLDENS.glob("*.expected")} == set(
            QUERY_NAMES
        )

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_sequential_session_matches_golden(self, name, document):
        session = QuerySession(XMARK_QUERIES[name].adapted)
        assert session.run(document).output == expected(name)
        # A recycled (warm buffer, warm matcher) run must not drift.
        assert session.run(document).output == expected(name)

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_counters_match_golden(self, name, document):
        pinned = json.loads((GOLDENS / "counters.json").read_text("utf-8"))
        assert len(pinned[name]) == 8  # the fields regenerate.py writes
        session = QuerySession(XMARK_QUERIES[name].adapted)
        for _ in range(2):  # fresh, then recycled
            stats = session.run(document).stats
            assert {k: getattr(stats, k) for k in pinned[name]} == pinned[name]

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_pooled_evaluation_matches_golden(self, name, document):
        with SessionPool(
            XMARK_QUERIES[name].adapted, max_workers=4
        ) as pool:
            results = list(pool.map([document] * 8, chunksize=2))
        assert [r.output for r in results] == [expected(name)] * 8

    def test_goldens_are_nontrivial(self, document):
        """Guard against silently regenerating an empty corpus."""
        assert len(document) > 10_000
        assert sum(len(expected(name)) for name in QUERY_NAMES) > 1_000
