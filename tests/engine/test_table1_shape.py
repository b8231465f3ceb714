"""Table 1 and the Section 6 ablations, as exact checks.

Table 1 runs five XMark queries on every engine and reads two columns:
output and buffer high watermark.  The paper's headline claim is that
GCX's watermark is independent of the input size for Q1, Q6, Q13 and Q20,
grows for the join Q8, and is the lowest of all engines in every row.
The documents are the Table 1 ladder scaled down (~40, ~80 and ~160 KB,
the same seed); each cell is one run, and only outputs and deterministic
counters are compared.
"""

from __future__ import annotations

import pytest

from repro.baselines import ENGINES, NaiveDomEngine, UnsupportedQueryError
from repro.engine import EngineOptions, GCXEngine
from repro.xmark import XMARK_QUERIES, generate_xmark

FLAT_QUERIES = ("Q1", "Q6", "Q13", "Q20")
TABLE1_QUERIES = FLAT_QUERIES + ("Q8",)
#: Table 1's "n/a" cells: FluXQuery cannot evaluate Q6's descendant axis.
NOT_APPLICABLE = {("flux-like", "Q6")}
BASELINES = ("flux-like", "projection-only", "naive-dom")
LADDER = {"small": 0.001, "medium": 0.002, "large": 0.004}
ABLATIONS = {
    "no-early-updates": EngineOptions(early_updates=False),
    "no-aggregate-roles": EngineOptions(aggregate_roles=False),
    "no-redundancy-elim": EngineOptions(eliminate_redundant_roles=False),
    "paper-base-scheme": EngineOptions(
        early_updates=False,
        aggregate_roles=False,
        eliminate_redundant_roles=False,
    ),
}


@pytest.fixture(scope="module")
def ladder() -> dict[str, str]:
    return {size: generate_xmark(scale, seed=42) for size, scale in LADDER.items()}


@pytest.fixture(scope="module")
def small(ladder) -> str:
    return ladder["small"]


@pytest.fixture(scope="module")
def large(ladder) -> str:
    return ladder["large"]


def hwm_bytes(name: str, document: str) -> int:
    return GCXEngine().run(XMARK_QUERIES[name].adapted, document).stats.hwm_bytes


def roles_assigned(name: str, options: EngineOptions, document: str) -> int:
    result = GCXEngine(options).run(XMARK_QUERIES[name].adapted, document)
    return result.stats.roles_assigned


class TestTable1Row:
    @pytest.mark.parametrize("query", TABLE1_QUERIES)
    @pytest.mark.parametrize("engine_name", tuple(ENGINES))
    def test_engine_agrees_with_the_dom_reference(self, engine_name, query, small):
        engine = ENGINES[engine_name]()
        text = XMARK_QUERIES[query].adapted
        if (engine_name, query) in NOT_APPLICABLE:
            with pytest.raises(UnsupportedQueryError):
                engine.compile(text)
            return
        expected = NaiveDomEngine().run(text, small).output
        assert engine.run(engine.compile(text), small).output == expected

    @pytest.mark.parametrize(
        ("baseline", "query"),
        [
            (baseline, query)
            for baseline in BASELINES
            for query in TABLE1_QUERIES
            if (baseline, query) not in NOT_APPLICABLE
        ],
    )
    def test_gcx_buffers_no_more_than_the_baseline(self, baseline, query, small):
        text = XMARK_QUERIES[query].adapted
        theirs = ENGINES[baseline]().run(text, small).stats.hwm_bytes
        assert hwm_bytes(query, small) <= theirs


class TestMemoryShape:
    @pytest.mark.parametrize("size", tuple(LADDER))
    @pytest.mark.parametrize("query", TABLE1_QUERIES)
    def test_gcx_agrees_with_the_dom_reference_on_the_ladder(
        self, query, size, ladder
    ):
        """Every ladder cell: identical output, and a watermark no larger
        than the DOM engine's whole-document buffer."""
        text = XMARK_QUERIES[query].adapted
        reference = NaiveDomEngine().run(text, ladder[size])
        result = GCXEngine().run(text, ladder[size])
        assert result.output == reference.output
        assert result.stats.hwm_bytes <= reference.stats.hwm_bytes

    @pytest.mark.parametrize("name", FLAT_QUERIES)
    def test_buffer_is_size_independent(self, name, small, large):
        before, after = hwm_bytes(name, small), hwm_bytes(name, large)
        assert 0 < after <= 2.5 * before, f"{name}: {before} -> {after}"

    def test_join_buffer_grows_with_the_input(self, small, large):
        """Q8 buffers the people it joins against (9.8 MB -> 86 MB in the
        paper)."""
        before, after = hwm_bytes("Q8", small), hwm_bytes("Q8", large)
        assert after >= 2 * before, f"Q8: {before} -> {after}"


class TestRoleAblations:
    @pytest.mark.parametrize("query", ("Q1", "Q13", "Q20"))
    @pytest.mark.parametrize("config", tuple(ABLATIONS))
    def test_disabling_an_optimization_costs_no_less(self, config, query, small):
        """Same output; the watermark and the role count never drop."""
        text = XMARK_QUERIES[query].adapted
        full = GCXEngine().run(text, small)
        ablated = GCXEngine(ABLATIONS[config]).run(text, small)
        assert ablated.output == full.output
        assert ablated.stats.hwm_bytes >= full.stats.hwm_bytes
        assert ablated.stats.roles_assigned >= full.stats.roles_assigned

    def test_aggregate_roles_assign_fewer_roles_on_q13(self, small):
        """One aggregate role per subtree instead of one per node."""
        full = roles_assigned("Q13", EngineOptions(), small)
        ablated = roles_assigned("Q13", EngineOptions(aggregate_roles=False), small)
        assert full < ablated

    def test_redundancy_elimination_never_adds_roles_on_q20(self, small):
        full = roles_assigned("Q20", EngineOptions(), small)
        ablated = roles_assigned(
            "Q20", EngineOptions(eliminate_redundant_roles=False), small
        )
        assert full <= ablated
