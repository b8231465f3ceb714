"""Differential guarantee: earliness never changes what a query returns.

The earliness pass (:mod:`repro.analysis.earliness`) only moves *when*
output leaves the engine, never *what* leaves it — so for every query
and every document, running with watermark-triggered flushing must be
byte-identical to the conservative serialize-at-signoff engine.  The
conservative engine (``EngineOptions(earliness=False)``) is the oracle;
the committed goldens are the independent anchor.

On top of identity, the accounting must be monotone: the watermark
engine never holds a produced token *longer* than the conservative one
(``tokens_held_before_emit`` on <= off, per query and document), and for
the known-early goldens the inequality is strict — Q1 through the
first-witness watermark, Q13 through the schema-certified at-most-once
watermark (which only arms under ``trust_schema=True``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine import EngineOptions, GCXEngine
from repro.xmark.queries import XMARK_QUERIES
from repro.xmark.schema import xmark_schema
from repro.xmlio.lexer import tokenize

GOLDENS = Path(__file__).parent / "goldens"
QUERY_NAMES = sorted(XMARK_QUERIES)

#: The oracle configuration: everything on except the earliness pass.
CONSERVATIVE = EngineOptions(earliness=False)


@pytest.fixture(scope="module")
def xmark_document() -> str:
    return (GOLDENS / "document.xml").read_text(encoding="utf-8")


class TestGoldenCorpus:
    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_earliness_on_equals_earliness_off(self, name, xmark_document):
        on = GCXEngine().run(XMARK_QUERIES[name].adapted, xmark_document)
        off = GCXEngine(CONSERVATIVE).run(XMARK_QUERIES[name].adapted, xmark_document)
        assert on.output == off.output
        # The committed goldens are the independent anchor.
        expected = (GOLDENS / f"{name}.expected").read_text(encoding="utf-8")
        assert on.output == expected

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_held_tokens_are_monotone(self, name, xmark_document):
        """Watermarks may only release buffered output *earlier*."""
        on = GCXEngine().run(XMARK_QUERIES[name].adapted, xmark_document)
        off = GCXEngine(CONSERVATIVE).run(XMARK_QUERIES[name].adapted, xmark_document)
        assert on.stats.tokens_held_before_emit <= off.stats.tokens_held_before_emit

    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_trusted_mode_is_monotone_too(self, name, xmark_document):
        """Same inequality under FluX mode, where at-most-once loops arm."""
        trusted = EngineOptions(trust_schema=True)
        trusted_off = EngineOptions(trust_schema=True, earliness=False)
        schema = xmark_schema()
        on = GCXEngine(trusted).run(
            XMARK_QUERIES[name].adapted, xmark_document, schema=schema
        )
        off = GCXEngine(trusted_off).run(
            XMARK_QUERIES[name].adapted, xmark_document, schema=schema
        )
        assert on.output == off.output
        assert on.stats.tokens_held_before_emit <= off.stats.tokens_held_before_emit


class TestKnownEarlyGoldens:
    def test_q1_first_witness_is_strictly_earlier(self, xmark_document):
        """Q1's condition decides at the first <id> — no schema needed."""
        on = GCXEngine().run(XMARK_QUERIES["Q1"].adapted, xmark_document)
        off = GCXEngine(CONSERVATIVE).run(XMARK_QUERIES["Q1"].adapted, xmark_document)
        assert on.output == off.output
        assert off.stats.tokens_held_before_emit > 0
        assert on.stats.tokens_held_before_emit < off.stats.tokens_held_before_emit

    def test_q13_at_most_once_is_strictly_earlier_when_trusted(self, xmark_document):
        """Q13 is structurally irreducible untrusted (a second <name>
        cannot be ruled out before </item>); the DTD's ``name`` content
        model proves at-most-once, so under ``trust_schema=True`` the loop
        stops at the first match and the held tokens drop strictly.  (Fed
        pre-tokenised: scanned bytes would copy each ``description``, a
        copy site, whole — see ``tests/engine/test_buffered_copy.py``.)"""
        trusted = EngineOptions(trust_schema=True)
        trusted_off = EngineOptions(trust_schema=True, earliness=False)
        schema = xmark_schema()
        on = GCXEngine(trusted).run(
            XMARK_QUERIES["Q13"].adapted, tokenize(xmark_document), schema=schema
        )
        off = GCXEngine(trusted_off).run(
            XMARK_QUERIES["Q13"].adapted, tokenize(xmark_document), schema=schema
        )
        assert on.output == off.output
        assert off.stats.tokens_held_before_emit > 0
        assert on.stats.tokens_held_before_emit < off.stats.tokens_held_before_emit
        assert on.stats.early_flushes > 0

    def test_q13_untrusted_stays_conservative(self, xmark_document):
        """Without schema trust the at-most-once watermark must NOT arm:
        the conservative and watermark engines hold the same tokens."""
        on = GCXEngine().run(XMARK_QUERIES["Q13"].adapted, xmark_document)
        off = GCXEngine(CONSERVATIVE).run(XMARK_QUERIES["Q13"].adapted, xmark_document)
        assert on.stats.tokens_held_before_emit == off.stats.tokens_held_before_emit

    def test_q6_streams_through_the_open_watermark(self, xmark_document):
        """Q6's verbatim-subtree output site streams in arrival order
        (token by token when fed pre-tokenised; scanned bytes copy each
        item, a copy site, whole)."""
        query = XMARK_QUERIES["Q6"].adapted
        on = GCXEngine().run(query, tokenize(xmark_document))
        off = GCXEngine(CONSERVATIVE).run(query, tokenize(xmark_document))
        assert on.output == off.output
        assert on.stats.early_flushes > 0
        assert on.stats.tokens_held_before_emit < off.stats.tokens_held_before_emit


class TestDisabledAccounting:
    @pytest.mark.parametrize("name", QUERY_NAMES)
    def test_no_early_flushes_when_disabled(self, name, xmark_document):
        """``early_flushes`` counts *watermark* flushes only: zero when
        the pass is off, so the stat cleanly separates the mechanisms."""
        off = GCXEngine(CONSERVATIVE).run(XMARK_QUERIES[name].adapted, xmark_document)
        assert off.stats.early_flushes == 0

    def test_no_early_flushes_without_aggregate_roles(self, xmark_document):
        """The open watermark's proof *is* the aggregate-role cover;
        without aggregate roles the pass must disarm itself entirely."""
        options = EngineOptions(aggregate_roles=False)
        for name in ("Q1", "Q6"):
            run = GCXEngine(options).run(XMARK_QUERIES[name].adapted, xmark_document)
            assert run.stats.early_flushes == 0
            oracle = GCXEngine(CONSERVATIVE).run(
                XMARK_QUERIES[name].adapted, xmark_document
            )
            assert run.output == oracle.output
