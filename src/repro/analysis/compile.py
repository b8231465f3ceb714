"""The static analysis pipeline: from surface query to compiled artifacts.

``compile_query`` chains the stages of Sections 3, 4 and 6:

1. normalization (let removal, where->if, multi-step expansion),
2. early updates (Section 6, optional): outputs become one-iteration loops,
3. if-pushdown (Figure 7), so no signOff lands inside an if-expression
   (run after early updates so the freshly created loops receive their ifs),
4. variable analysis: VarsQ, parVarQ, straightness, fsa,
5. dependency collection (Definition 2),
6. projection tree derivation with role assignment (Section 4),
7. signOff insertion (Figure 8),
8. redundant role elimination (Section 6, optional).

The result bundles everything the runtime needs: the rewritten query, the
projection tree, and the analysis tables (useful for inspection and tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dependencies import (
    Dependency,
    collect_dependencies,
    copy_site_roles,
)
from repro.analysis.earliness import EarlinessPlan, compute_earliness
from repro.analysis.early_updates import apply_early_updates
from repro.analysis.joinplan import JoinPlan, compute_join_plan
from repro.analysis.projection_tree import (
    ProjectionTree,
    attach_aggregate_chains,
    build_projection_tree,
)
from repro.analysis.redundancy import eliminate_redundant_roles
from repro.analysis.roles import Role
from repro.analysis.schema import Schema
from repro.analysis.schema_constraints import (
    SchemaConstraints,
    compute_schema_constraints,
)
from repro.analysis.signoff import insert_signoffs
from repro.analysis.straight import StraightInfo, compute_straight
from repro.xquery.ast import Query
from repro.xquery.ifpushdown import push_ifs_down_query
from repro.xquery.normalize import normalize
from repro.xquery.parser import parse_query
from repro.xquery.semantics import QueryVariables, analyze_variables

__all__ = ["CompileOptions", "CompiledQuery", "compile_query"]


@dataclass(frozen=True)
class CompileOptions:
    """Feature switches for the Section 6 optimizations.

    The defaults match the paper's prototype ("implemented exactly as
    described in this paper"), i.e. all optimizations on.  The benchmark
    ablations toggle them individually.
    """

    early_updates: bool = True
    eliminate_redundant: bool = True
    first_witness: bool = True


@dataclass
class CompiledQuery:
    """Everything the static analysis produced for one query."""

    source: Query  # the parsed, un-normalized query
    normalized: Query  # core XQ before signOff insertion
    rewritten: Query  # with signOff statements (and eliminations applied)
    variables: QueryVariables
    straight: StraightInfo
    dependencies: dict[str, list[Dependency]]
    projection_tree: ProjectionTree
    eliminated_roles: list[Role] = field(default_factory=list)
    options: CompileOptions = field(default_factory=CompileOptions)
    #: The schema the query was compiled against, if any, and the facts the
    #: schema-constraint pass proved (pruning, signoff strengthening, and —
    #: when it holds — the zero-buffer certification the direct runner uses).
    schema: Schema | None = None
    constraints: SchemaConstraints | None = None
    #: Decided-watermark plan (docs/EARLINESS.md): which output sites may
    #: stream as tokens arrive, and the per-node watermark report.
    earliness: EarlinessPlan | None = None
    #: Equi-join loops of the rewritten query (docs/JOINS.md), keyed by
    #: loop-node identity; the evaluator dispatches them to the hash
    #: build/probe path.  Recomputed whenever ``rewritten`` is replaced
    #: (trusted-schema pruning), since the keys are ``id()``-based.
    joinplan: JoinPlan = field(default_factory=JoinPlan)
    #: The dependency roles of the query's copy sites: outputs whose
    #: subtree nothing else reads, which the buffered engine may receive
    #: as one copied span (docs/PERFORMANCE.md, "The COPY row").
    copy_roles: frozenset[Role] = frozenset()

    @property
    def certified_zero_buffer(self) -> bool:
        return self.constraints is not None and self.constraints.certified_zero_buffer


def compile_query(
    query: Query | str,
    options: CompileOptions | None = None,
    *,
    schema: Schema | None = None,
) -> CompiledQuery:
    """Run the full static analysis pipeline on a query (or query text).

    With ``schema`` the pipeline additionally runs the schema-constraint
    pass (:mod:`repro.analysis.schema_constraints`): the resulting
    :class:`CompiledQuery` records the proofs in ``constraints`` and the
    engines dispatch certified queries to the zero-buffer direct runner.
    The default artifacts stay untouched — schema facts only rewrite the
    runtime plan under ``EngineOptions(trust_schema=True)``.
    """
    options = options or CompileOptions()
    source = parse_query(query) if isinstance(query, str) else query
    normalized = normalize(source)
    # Early updates must precede if-pushdown: the rewrite turns outputs into
    # for-loops, and pushdown then moves enclosing ifs inside those loops so
    # that every signOff batch is executed unconditionally (the guarantee of
    # Section 3's "Pushing if-Statements").
    if options.early_updates:
        normalized = apply_early_updates(normalized)
    normalized = push_ifs_down_query(normalized)
    variables = analyze_variables(normalized)
    straight = compute_straight(variables)
    dependencies = collect_dependencies(
        normalized, first_witness=options.first_witness
    )
    tree = build_projection_tree(normalized, variables, dependencies)
    # Accumulable aggregates contribute no dependencies; their role-less
    # acc chains keep the matcher descending so the lane's accumulator
    # sees the tokens it counts (repro.engine.relops.aggregates).
    from repro.engine.relops.aggregates import collect_aggregate_sites

    aggregate_sites = collect_aggregate_sites(normalized)
    if aggregate_sites:
        attach_aggregate_chains(tree, aggregate_sites)
    rewritten = insert_signoffs(normalized, variables, straight, tree)
    eliminated: list[Role] = []
    if options.eliminate_redundant:
        rewritten, eliminated = eliminate_redundant_roles(rewritten, variables, tree)
    constraints: SchemaConstraints | None = None
    if schema is not None:
        constraints = compute_schema_constraints(
            source, variables, dependencies, tree, schema
        )
    earliness = compute_earliness(rewritten, tree, constraints)
    joinplan = compute_join_plan(rewritten)
    copy_roles = copy_site_roles(normalized, tree, first_witness=options.first_witness)
    return CompiledQuery(
        source=source,
        normalized=normalized,
        rewritten=rewritten,
        variables=variables,
        straight=straight,
        dependencies=dependencies,
        projection_tree=tree,
        eliminated_roles=eliminated,
        options=options,
        schema=schema,
        constraints=constraints,
        earliness=earliness,
        joinplan=joinplan,
        copy_roles=copy_roles,
    )
