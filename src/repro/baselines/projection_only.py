"""The static-analysis-only baseline: projection without garbage collection.

Models Galax's static projection [13] and, more broadly, every scheme the
paper argues against in Section 1: what to buffer is decided purely at
compile time, the projected document is computed *before* query evaluation
starts, and nothing is purged while the query runs.  The memory high
watermark is therefore the size of the whole projected document — small for
selective queries, but still growing linearly with the input, in contrast
to GCX's combined static + dynamic scheme.

Implementation: the same projection machinery as GCX (same projection tree,
same matcher), run to completion up front; the evaluator then runs with
signOff execution disabled, so no roles are ever removed.
"""

from __future__ import annotations

import time

from repro.analysis.compile import CompiledQuery, CompileOptions, compile_query
from repro.buffer.buffer import BufferTree
from repro.buffer.stats import BufferCostModel
from repro.engine.evaluator import Evaluator
from repro.engine.gcx import RunResult
from repro.stream.preprojector import StreamPreprojector
from repro.xmlio.lexer import tokenize
from repro.xmlio.serialize import serialize_tokens
from repro.xquery.ast import Query

__all__ = ["ProjectionOnlyEngine"]


class ProjectionOnlyEngine:
    """Static document projection up front, no runtime buffer minimization."""

    name = "projection-only"
    description = "static projection before evaluation, no GC (Galax projection)"
    supports_descendant = True

    def __init__(self, cost_model: BufferCostModel | None = None) -> None:
        self.cost_model = cost_model or BufferCostModel()

    def compile(self, query: Query | str, *, schema=None) -> CompiledQuery:
        # Early updates and redundant-role elimination only matter for
        # dynamic buffer minimization; first-witness trimming is part of the
        # *static* projection (Marian & Simeon keep prefixes too), so it
        # stays on.  A schema still yields the constraint report.
        return compile_query(
            query,
            CompileOptions(early_updates=False, eliminate_redundant=False),
            schema=schema,
        )

    def run(self, query: Query | str | CompiledQuery, document: str) -> RunResult:
        compiled = query if isinstance(query, CompiledQuery) else self.compile(query)
        started = time.perf_counter()
        buffer = BufferTree(self.cost_model)
        preprojector = StreamPreprojector(
            tokenize(document),
            compiled.projection_tree,
            buffer,
            aggregate_roles=True,
        )
        # Phase 1 (the Galax way): project the complete input document.
        preprojector.run_to_completion()
        # Phase 2: evaluate on the projected buffer; nothing is purged.
        evaluator = Evaluator(
            compiled.rewritten,
            buffer,
            preprojector.pull,
            aggregate_roles=True,
            execute_signoffs=False,
        )
        output = serialize_tokens(evaluator.iter_tokens())
        elapsed = time.perf_counter() - started
        return RunResult(
            output=output,
            stats=buffer.stats,
            compiled=compiled,
            elapsed_seconds=elapsed,
            exhausted_input=True,
        )
