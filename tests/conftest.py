"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro.analysis import CompileOptions, compile_query
from repro.xmark import generate_xmark

from tests.helpers import INTRO_DOC, INTRO_QUERY


@pytest.fixture(scope="session")
def intro_compiled_paper():
    """The introduction's query compiled in the paper's base configuration
    (no early updates, no redundant-role elimination) — matches Figures 1-2."""
    return compile_query(
        INTRO_QUERY, CompileOptions(early_updates=False, eliminate_redundant=False)
    )


@pytest.fixture
def direct_runners(monkeypatch) -> list:
    """Every schema-certified direct runner a session builds while the
    test runs (the route a run took, observed where it is chosen)."""
    from repro.engine import direct

    built: list = []

    class Recorded(direct.DirectEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(direct, "DirectEvaluator", Recorded)
    return built


@pytest.fixture(scope="session")
def intro_doc() -> str:
    return INTRO_DOC


@pytest.fixture(scope="session")
def xmark_doc_small() -> str:
    """A ~40 KB XMark document shared across tests (generation is fast but
    not free, so keep it session scoped)."""
    return generate_xmark(0.001, seed=7)
