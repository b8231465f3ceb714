"""The flux-like baseline: scope-based buffering, static analysis only.

Models the buffer-management strategy of the FluXQuery engine [11]
(Koch et al., VLDB'04) as characterized by the paper:

* buffering decisions are purely static; buffers live exactly as long as
  the scope of their XQuery variable,
* descendant axes and wildcard-heavy queries are not supported — the paper
  benchmarks show ``n/a`` for XMark Q6 — so this engine refuses any query
  whose paths leave the child axis,
* duplicate buffering cannot always be avoided when a node is bound by
  different variables (Section 1); the buffer cost model charges a
  duplication factor for this, and per-node overhead reflects a JVM-style
  representation,
* none of GCX's dynamic refinements apply: no early updates, no aggregate
  roles, no redundant-role elimination, no first-witness trimming.

What remains *is* scope-end purging (FluX frees a buffer when its
variable's scope ends), which the shared machinery expresses as signOff
batches at scope ends — so this baseline is flat in document size for
scope-local queries, like the real FluXQuery in Table 1, but consistently
buffers more than GCX.
"""

from __future__ import annotations

from repro.analysis.compile import CompiledQuery, CompileOptions, compile_query
from repro.analysis.schema import Schema
from repro.buffer.stats import BufferCostModel
from repro.engine.gcx import EngineOptions, GCXEngine, RunResult
from repro.xquery.ast import (
    Comparison,
    Exists,
    ForLoop,
    PathOperand,
    PathOutput,
    Query,
    atomic_conditions,
    conditions_of,
    walk,
)
from repro.xquery.paths import Axis, Path, TestKind

__all__ = ["UnsupportedQueryError", "FluxLikeEngine", "FLUX_COST_MODEL"]


class UnsupportedQueryError(ValueError):
    """The query lies outside the engine's fragment (reported as n/a)."""


#: JVM-flavoured cost model: fatter nodes (object headers, UTF-16 strings)
#: and a duplication factor for per-variable buffer copies.
FLUX_COST_MODEL = BufferCostModel(
    node_overhead=112,
    text_byte=2,
    role_instance=16,
    duplication_factor=1.6,
)


class FluxLikeEngine:
    """Schema-based scope buffering without dynamic analysis."""

    name = "flux-like"
    description = "scope-based static buffering (FluXQuery class); child axis only"
    supports_descendant = False

    def __init__(
        self,
        cost_model: BufferCostModel | None = None,
        schema: Schema | None = None,
    ) -> None:
        #: FluXQuery is the schema-*driven* engine of the related work:
        #: the same unified :class:`~repro.analysis.schema.Schema` the GCX
        #: analysis consumes is its default compile-time schema here.
        self.schema = schema
        self._engine = GCXEngine(
            EngineOptions(
                aggregate_roles=False,
                early_updates=False,
                eliminate_redundant_roles=False,
                eager_leaf_bindings=True,
                cost_model=cost_model or FLUX_COST_MODEL,
            )
        )

    def compile(
        self, query: Query | str, *, schema: Schema | None = None
    ) -> CompiledQuery:
        schema = schema if schema is not None else self.schema
        compiled = compile_query(
            query,
            CompileOptions(
                early_updates=False,
                eliminate_redundant=False,
                first_witness=False,
            ),
            schema=schema,
        )
        self._check_fragment(compiled.normalized)
        if schema is not None:
            self._check_schema(compiled.normalized, schema)
        return compiled

    def run(self, query: Query | str | CompiledQuery, document: str) -> RunResult:
        compiled = query if isinstance(query, CompiledQuery) else self.compile(query)
        return self._engine.run(compiled, document)

    # ------------------------------------------------------------------

    def _check_fragment(self, query: Query) -> None:
        """Reject descendant axes anywhere in the query (FluX's n/a cases)."""
        for expr in walk(query.root):
            if isinstance(expr, (ForLoop, PathOutput)):
                self._check_path(expr.path)
        for cond in conditions_of(query.root):
            for atom in atomic_conditions(cond):
                if isinstance(atom, Exists):
                    self._check_path(atom.path)
                elif isinstance(atom, Comparison):
                    for operand in (atom.left, atom.right):
                        if isinstance(operand, PathOperand):
                            self._check_path(operand.path)

    def _check_path(self, path) -> None:
        for step in path:
            if step.axis is not Axis.CHILD:
                raise UnsupportedQueryError(
                    "flux-like engine supports the child axis only "
                    f"(found {step})"
                )

    def _check_schema(self, query: Query, schema: Schema) -> None:
        """Reject queries naming tags the schema cannot produce.

        FluX compiles against the DTD; a path step whose tag is not in the
        schema at all can never match and the real engine reports it as
        outside its (schema-constrained) fragment.
        """
        for expr in walk(query.root):
            if isinstance(expr, (ForLoop, PathOutput)):
                self._check_tags(expr.path, schema)
        for cond in conditions_of(query.root):
            for atom in atomic_conditions(cond):
                if isinstance(atom, Exists):
                    self._check_tags(atom.path, schema)
                elif isinstance(atom, Comparison):
                    for operand in (atom.left, atom.right):
                        if isinstance(operand, PathOperand):
                            self._check_tags(operand.path, schema)

    @staticmethod
    def _check_tags(path: Path, schema: Schema) -> None:
        for step in path:
            if step.test.kind is TestKind.TAG and step.test.name not in schema.tags:
                raise UnsupportedQueryError(
                    f"tag {step.test.name!r} does not occur in the schema"
                )
