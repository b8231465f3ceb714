"""Variable dependencies (Definition 2).

``dep($x)`` collects, for every variable, the relative paths whose matches
must be preserved in the buffer:

* ``exists $x/path``            ->  ``path`` with a ``[1]`` predicate on the
                                    last step (only the first witness counts),
* output or comparison ``$x/path`` -> ``path/dos::node()`` (the node and its
                                    whole subtree are needed),
* bare output ``$x``            ->  ``dos::node()``.

Deviation from the letter of the paper: entries are deduplicated per
variable by path.  If-pushdown (Figure 7) triples conditions syntactically;
giving each copy its own role would triple buffering for no benefit.  All
copies are signed off in the same batch (the scope end of ``fsa``), so one
role per distinct path is assigned exactly as often as it is removed.

Multi-step condition paths are kept (the paper's XMark adaptation rewrites
only for-loop paths to single steps); Definition 2 extends verbatim.

The same walk, with repeats, finds the *copy sites*
(:func:`copy_site_roles`): outputs whose ``…/dos::node()`` dependency
nothing else reads, which the buffered engine may receive as one copied
span (docs/PERFORMANCE.md, "The COPY row").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.xquery.ast import (
    Aggregate,
    And,
    Comparison,
    Condition,
    Element,
    Exists,
    Expr,
    ForLoop,
    IfThenElse,
    Not,
    Or,
    PathOperand,
    PathOutput,
    Quantified,
    Query,
    SignOff,
    Sequence,
    VarRef,
)
from repro.xquery.paths import Path, Step, TestKind, dos_node

if TYPE_CHECKING:
    from repro.analysis.projection_tree import ProjectionTree
    from repro.analysis.roles import Role

__all__ = ["Dependency", "collect_dependencies"]


@dataclass(frozen=True, slots=True)
class Dependency:
    """One entry of ``dep($x)``: a relative path that must stay buffered."""

    var: str
    path: Path

    def __str__(self) -> str:
        from repro.xquery.paths import format_path

        return f"<{format_path(self.path)}>"


def _with_first_witness(path: Path) -> Path:
    """Mark the last step with the ``[1]`` (first witness) predicate."""
    *prefix, last = path
    return tuple(prefix) + (Step(last.axis, last.test, first=True),)


def _with_subtree(path: Path) -> Path:
    """Append ``dos::node()`` so the whole subtree is preserved."""
    return path + (dos_node(),)


def collect_dependencies(
    query: Query, *, first_witness: bool = True
) -> dict[str, list[Dependency]]:
    """Compute ``dep($x)`` for every variable, in syntactic order.

    The returned dict maps variable names to ordered, de-duplicated
    dependency lists; variables without dependencies are absent.

    With ``first_witness=False``, existence checks keep *all* witnesses
    instead of the first one (no ``[1]`` predicate) — this models engines
    without the paper's first-witness trimming, e.g. the flux-like baseline.
    """
    deps: dict[str, list[Dependency]] = {}
    seen: set[tuple[str, Path]] = set()
    for var, path, _output in _reads(query, first_witness):
        key = (var, path)
        if key not in seen:
            seen.add(key)
            deps.setdefault(var, []).append(Dependency(var, path))
    return deps


def copy_site_roles(
    query: Query, tree: ProjectionTree, *, first_witness: bool = True
) -> frozenset[Role]:
    """The dependency roles of the query's *copy sites*.

    A copy site is an output ``{$x}`` or ``{$x/p}`` whose subtree the query
    only ever copies to output: its ``…/dos::node()`` dependency is read by
    that one output and by no other expression (no condition, positional
    aggregate, join key or second output — dependencies are de-duplicated,
    so any of those would share the role), its target is an element (a
    name or ``*`` test, not ``text()``) whose only projection-tree child is
    the ``dos::node()`` node (no other path, accumulator chain or nested
    loop reads below it), and no step on its path is positional.  The
    matcher turns such a role into a COPY scan entry where nothing else can
    match below the element (:meth:`repro.stream.matcher.StreamMatcher.miss`).
    """
    readers: dict[tuple[str, Path], int] = {}
    outputs: set[tuple[str, Path]] = set()
    for var, path, output in _reads(query, first_witness):
        readers[(var, path)] = readers.get((var, path), 0) + 1
        if output:
            outputs.add((var, path))
    roles: set[Role] = set()
    for var, entries in tree.dep_entries.items():
        for dep, role in entries:
            if (var, dep.path) not in outputs or readers[(var, dep.path)] != 1:
                continue
            leaf = tree.role_nodes[role]
            target = leaf.parent
            if (
                target is not None
                and target.step is not None
                and target.step.test.kind in (TestKind.TAG, TestKind.STAR)
                and target.children == [leaf]
                and not leaf.children
                and not any(
                    step.first or step.last for step in target.path_from_root()
                )
            ):
                roles.add(role)
    return frozenset(roles)


def _reads(query: Query, first_witness: bool) -> Iterator[tuple[str, Path, bool]]:
    """Every read Definition 2 turns into a dependency, in syntactic
    order and with repeats: ``(var, path, read by an output)``."""

    def visit(expr: Expr) -> Iterator[tuple[str, Path, bool]]:
        if isinstance(expr, Sequence):
            for item in expr.items:
                yield from visit(item)
        elif isinstance(expr, Element):
            yield from visit(expr.body)
        elif isinstance(expr, ForLoop):
            if expr.where is not None:
                yield from visit_condition(expr.where)
            yield from visit(expr.body)
        elif isinstance(expr, IfThenElse):
            yield from visit_condition(expr.cond)
            yield from visit(expr.then_branch)
            yield from visit(expr.else_branch)
        elif isinstance(expr, VarRef):
            yield expr.var, (dos_node(),), True
        elif isinstance(expr, PathOutput):
            yield expr.var, _with_subtree(expr.path), True
        elif isinstance(expr, Aggregate):
            # Accumulable aggregates contribute no dependencies at all: the
            # projection lane's O(1) accumulator replaces the subtree the
            # naive reading of Definition 2 would buffer
            # (repro.engine.relops.aggregates).  Paths with positional
            # predicates fall outside the accumulator automaton, so they
            # keep the buffered subtree and are navigated at eval time.
            if any(step.first or step.last for step in expr.path):
                yield expr.var, _with_subtree(expr.path), False
        elif isinstance(expr, SignOff):
            raise ValueError("dependencies must be collected before signOff insertion")

    def visit_condition(
        cond: Condition, rebind: dict[str, tuple[str, Path]] | None = None
    ) -> Iterator[tuple[str, Path, bool]]:
        def resolved(var: str, path: Path) -> tuple[str, Path, bool]:
            # Rebase paths on quantified variables onto the binding
            # source (transitively, for nested quantifiers).
            while rebind and var in rebind:
                base_var, base_prefix = rebind[var]
                var, path = base_var, base_prefix + path
            return var, path, False

        if isinstance(cond, Exists):
            path = _with_first_witness(cond.path) if first_witness else cond.path
            yield resolved(cond.var, path)
        elif isinstance(cond, Comparison):
            for operand in (cond.left, cond.right):
                if isinstance(operand, PathOperand):
                    yield resolved(operand.var, _with_subtree(operand.path))
        elif isinstance(cond, Quantified):
            # The witness nodes themselves must be buffered (the evaluator
            # binds and navigates from them); every witness may need
            # testing, so no first-witness trimming on the binding path.
            yield resolved(cond.source, cond.path)
            inner_rebind = dict(rebind) if rebind else {}
            inner_rebind[cond.var] = (cond.source, cond.path)
            yield from visit_condition(cond.inner, inner_rebind)
        elif isinstance(cond, (And, Or)):
            yield from visit_condition(cond.left, rebind)
            yield from visit_condition(cond.right, rebind)
        elif isinstance(cond, Not):
            yield from visit_condition(cond.operand, rebind)

    return visit(query.root)
