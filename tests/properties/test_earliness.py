"""Property: earliness is invisible except in the accounting.

For random documents and random well-scoped queries, the watermark
engine must produce byte-identical output to the conservative engine
(``EngineOptions(earliness=False)``), and it must never hold a produced
token longer (``tokens_held_before_emit`` on <= off).  The query
strategy exercises every construct the earliness pass touches: bare
variable output (the open watermark), path output, conditions (the
first-witness watermark), nesting, and sequences.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings

from repro.engine import EngineOptions, GCXEngine

from tests.properties.strategies import documents, queries

FAST = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

CONSERVATIVE = EngineOptions(earliness=False)


@FAST
@given(document=documents(max_depth=5), query=queries())
@example(  # an empty left operand must not drain the right one
    document="<r><a/></r>",
    query="<out>{for $v in $root/*/a return "
    "if (($v/a = $root/a or true())) then $v else ()}</out>",
)
def test_earliness_matches_conservative_oracle(document, query):
    on = GCXEngine().run(query, document)
    off = GCXEngine(CONSERVATIVE).run(query, document)
    assert on.output == off.output
    assert on.stats.tokens_held_before_emit <= off.stats.tokens_held_before_emit
    assert off.stats.early_flushes == 0


@FAST
@given(document=documents(max_depth=5))
def test_subtree_output_streams_identically(document):
    """The open-watermark poster child: verbatim subtree output."""
    query = "<o>{for $x in /r/a return $x}</o>"
    on = GCXEngine().run(query, document)
    off = GCXEngine(CONSERVATIVE).run(query, document)
    assert on.output == off.output
    assert on.stats.tokens_held_before_emit <= off.stats.tokens_held_before_emit


@FAST
@given(document=documents(max_depth=5))
def test_first_witness_condition_matches_oracle(document):
    """The first-witness watermark: a condition decided at the first
    witnessing pair must not change what the guarded branch returns."""
    query = '<o>{for $x in /r/a return if ($x/b = "x") then $x/c else ()}</o>'
    on = GCXEngine().run(query, document)
    off = GCXEngine(CONSERVATIVE).run(query, document)
    assert on.output == off.output
    assert on.stats.tokens_held_before_emit <= off.stats.tokens_held_before_emit
