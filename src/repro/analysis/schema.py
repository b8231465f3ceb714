"""First-class schema abstraction for schema-aware static analysis.

The paper's buffer minimization is purely query-driven; the FluX line of
work (Koch et al., "Schema-based Scheduling of Event Processors",
cs/0406016) shows that DTD knowledge lets a compiler *prove* occurrence
facts — "this element occurs at most once under that parent", "no more
``name`` children can open once ``payment`` has" — and convert buffered
paths into direct-output paths.  :class:`Schema` is the object those
proofs are made against.

A schema is a set of simplified regular content models: each element maps
to an *ordered* list of :class:`ChildSpec` entries ``(tag, min, max)``
with ``max = None`` meaning unbounded.  This is exactly the fragment the
adapted XMark DTD uses (attributes already converted to subelements, cf.
Section 7 of the paper), and it is closed under the DTD subset rendered
by :meth:`Schema.to_dtd`: ``<!ELEMENT parent (a, b?, c*, d+)>`` plus
``<!ELEMENT leaf (#PCDATA)>`` lines round-trip losslessly through
:meth:`Schema.from_dtd_text`.

Two wrinkles inherited from the attribute conversion:

* *reference positions*: ``<buyer person="p0">`` becomes
  ``<buyer><person>p0</person></buyer>``, where ``person`` is a PCDATA
  leaf even though ``person`` *records* elsewhere have a content model.
  ``reference_positions`` lists such ``(parent, child)`` pairs; they are
  serialized into the DTD text as a structured comment so the round trip
  stays exact.
* element content is element-only: a modeled parent carries no character
  data (the generator emits none and the validator enforces none), which
  is what makes ``text()`` steps under modeled parents provably empty.

The derived facts (:meth:`allows`, :meth:`max_occurs`, :meth:`closers`,
:meth:`reachable_from`, …) are cached on first use; instances are
immutable, so one instance is safely shared by every thread of a pool.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

__all__ = [
    "ChildSpec",
    "Schema",
    "SchemaViolation",
    "load_dtd",
]


class SchemaViolation(ValueError):
    """A document (or DTD text) does not conform to the schema."""


@dataclass(frozen=True)
class ChildSpec:
    """One entry of a content model: ``tag`` with occurrence bounds."""

    tag: str
    min_occurs: int = 1
    max_occurs: int | None = 1  # None = unbounded

    def __post_init__(self) -> None:
        if self.min_occurs < 0:
            raise ValueError(f"min_occurs must be >= 0, got {self.min_occurs}")
        if self.max_occurs is not None and self.max_occurs < self.min_occurs:
            raise ValueError(
                f"max_occurs {self.max_occurs} < min_occurs {self.min_occurs}"
            )

    @property
    def suffix(self) -> str:
        """The DTD occurrence indicator: ``""``, ``?``, ``*`` or ``+``."""
        if self.max_occurs is None:
            return "*" if self.min_occurs == 0 else "+"
        if self.min_occurs == 0:
            return "?"
        return ""


#: Parses one element declaration of the supported DTD subset.
_ELEMENT_RE = re.compile(r"<!ELEMENT\s+([\w.-]+)\s+\(([^)]*)\)\s*>")
#: The structured comment that preserves reference positions (see module
#: docstring); written by to_dtd, read back by from_dtd_text.
_REFERENCES_RE = re.compile(r"<!--\s*reference positions:\s*([^>]*?)\s*-->")
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)


@dataclass(frozen=True)
class Schema:
    """Content models plus reference positions, with derived facts cached.

    ``models`` maps each non-leaf element tag to its ordered child specs;
    tags that appear only as children are PCDATA leaves.  Construct via
    :meth:`from_content_models` or :meth:`from_dtd_text` rather than
    directly — they normalize the inputs.
    """

    models: Mapping[str, tuple[ChildSpec, ...]] = field(default_factory=dict)
    reference_positions: frozenset[tuple[str, str]] = frozenset()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_content_models(
        cls,
        models: Mapping[str, Iterable[tuple[str, int, int | None] | ChildSpec]],
        reference_positions: Iterable[tuple[str, str]] = (),
    ) -> "Schema":
        """Build a schema from ``{parent: [(tag, min, max), ...]}`` tables."""
        normalized: dict[str, tuple[ChildSpec, ...]] = {}
        for parent, specs in models.items():
            entries = tuple(
                spec
                if isinstance(spec, ChildSpec)
                else ChildSpec(spec[0], spec[1], spec[2])
                for spec in specs
            )
            seen: set[str] = set()
            for entry in entries:
                if entry.tag in seen:
                    raise SchemaViolation(
                        f"content model of <{parent}> lists <{entry.tag}> twice"
                    )
                seen.add(entry.tag)
            normalized[parent] = entries
        return cls(normalized, frozenset(reference_positions))

    @classmethod
    def from_dtd_text(cls, text: str) -> "Schema":
        """Parse the DTD subset emitted by :meth:`to_dtd`.

        Supported: ``<!ELEMENT name (a, b?, c*, d+)>`` element-content
        declarations, ``<!ELEMENT name (#PCDATA)>`` leaves, comments, and
        the structured ``reference positions`` comment.  Anything else
        (mixed content, alternation, nested groups, attlists) raises
        :class:`SchemaViolation` — the analysis must not silently accept
        a schema it cannot reason about.
        """
        references: set[tuple[str, str]] = set()
        for match in _REFERENCES_RE.finditer(text):
            for pair in match.group(1).split():
                parent, _, child = pair.partition("/")
                if not child:
                    raise SchemaViolation(
                        f"malformed reference position {pair!r} (want parent/child)"
                    )
                references.add((parent, child))
        stripped = _COMMENT_RE.sub("", text)
        models: dict[str, tuple[ChildSpec, ...]] = {}
        declared_leaves: set[str] = set()
        consumed = 0
        for match in _ELEMENT_RE.finditer(stripped):
            consumed += 1
            parent, content = match.group(1), match.group(2).strip()
            if parent in models or parent in declared_leaves:
                raise SchemaViolation(f"duplicate declaration of <{parent}>")
            if content == "#PCDATA":
                declared_leaves.add(parent)
                continue
            specs: list[ChildSpec] = []
            for part in content.split(","):
                part = part.strip()
                if not part:
                    raise SchemaViolation(
                        f"empty particle in content model of <{parent}>"
                    )
                if part[-1] in "?*+":
                    tag, suffix = part[:-1].strip(), part[-1]
                else:
                    tag, suffix = part, ""
                if not re.fullmatch(r"[\w.-]+", tag) or tag == "#PCDATA":
                    raise SchemaViolation(
                        f"unsupported particle {part!r} in <{parent}> (the "
                        "analysis handles sequences of optionally-repeated "
                        "tags only)"
                    )
                bounds = {"": (1, 1), "?": (0, 1), "*": (0, None), "+": (1, None)}
                lo, hi = bounds[suffix]
                specs.append(ChildSpec(tag, lo, hi))
            models[parent] = tuple(specs)
        if not consumed:
            raise SchemaViolation("no <!ELEMENT ...> declarations found")
        schema = cls.from_content_models(models, references)
        # Leaves are implied by absence; declared leaves must not clash.
        for leaf in declared_leaves:
            if leaf in models:
                raise SchemaViolation(f"<{leaf}> declared both leaf and parent")
        return schema

    def to_dtd(self) -> str:
        """Render the schema as DTD text (lossless round trip).

        Matches the layout of the adapted XMark DTD the benchmarks ship:
        element-content declarations in model order, PCDATA leaves sorted
        at the end, and reference positions preserved in a structured
        comment.
        """
        lines = ["<!-- XMark DTD, adapted: attributes are subelements -->"]
        if self.reference_positions:
            rendered = " ".join(
                f"{parent}/{child}"
                for parent, child in sorted(self.reference_positions)
            )
            lines.append(f"<!-- reference positions: {rendered} -->")
        for parent, specs in self.models.items():
            parts = ", ".join(spec.tag + spec.suffix for spec in specs)
            lines.append(f"<!ELEMENT {parent} ({parts})>")
        for leaf in sorted(self.leaves):
            lines.append(f"<!ELEMENT {leaf} (#PCDATA)>")
        return "\n".join(lines) + "\n"

    # -- basic facts ----------------------------------------------------

    @cached_property
    def tags(self) -> frozenset[str]:
        """All element tags that can occur in a conforming document."""
        tags = set(self.models)
        for specs in self.models.values():
            tags.update(spec.tag for spec in specs)
        return frozenset(tags)

    @cached_property
    def leaves(self) -> frozenset[str]:
        """Tags with no content model: PCDATA-only elements."""
        return frozenset(tag for tag in self.tags if tag not in self.models)

    @cached_property
    def roots(self) -> frozenset[str]:
        """Tags that never occur as a child: document-root candidates.

        Empty for a fully recursive schema, in which case callers must
        treat every tag as a possible root (the conservative reading).
        """
        children = {spec.tag for specs in self.models.values() for spec in specs}
        return frozenset(self.tags - children)

    def children_of(self, parent: str) -> tuple[ChildSpec, ...]:
        """The content model of ``parent`` (empty for leaves/unknown)."""
        return self.models.get(parent, ())

    @cached_property
    def _spec_index(self) -> dict[tuple[str, str], tuple[int, ChildSpec]]:
        index: dict[tuple[str, str], tuple[int, ChildSpec]] = {}
        for parent, specs in self.models.items():
            for position, spec in enumerate(specs):
                index[(parent, spec.tag)] = (position, spec)
        return index

    def allows(self, parent: str, child: str) -> bool:
        """Can ``child`` occur as a direct element child of ``parent``?"""
        return (parent, child) in self._spec_index

    def is_reference(self, parent: str, child: str) -> bool:
        """Is ``child`` a PCDATA reference leaf *at this position*?"""
        return (parent, child) in self.reference_positions

    def max_occurs(self, parent: str, child: str) -> int | None:
        """Occurrence ceiling of ``child`` under ``parent`` (0 = never)."""
        entry = self._spec_index.get((parent, child))
        if entry is None:
            return 0
        return entry[1].max_occurs

    def at_most_once(self, parent: str, child: str) -> bool:
        """Does the schema prove ``child`` occurs <= 1 time under ``parent``?"""
        return self.max_occurs(parent, child) in (0, 1)

    def closers(self, parent: str, child: str) -> frozenset[str]:
        """Sibling tags whose opening proves no further ``child`` can open.

        The content model is an ordered sequence, so once a sibling that
        sorts strictly *after* ``child`` has opened under ``parent``, the
        schema forbids any later ``child`` occurrence — the fact behind
        FluX-style "release at the last schema-possible occurrence".
        Empty when ``child`` is not in the model (no fact available).
        """
        entry = self._spec_index.get((parent, child))
        if entry is None:
            return frozenset()
        position = entry[0]
        specs = self.models[parent]
        return frozenset(spec.tag for spec in specs[position + 1 :])

    @cached_property
    def text_bearing(self) -> frozenset[str]:
        """Tags that can carry character data at *some* position.

        Leaves always can; a modeled tag can when some reference position
        turns an occurrence of it into a PCDATA leaf (``seller/person``).
        The union over positions is deliberately conservative: proofs of
        *impossibility* (pruning a ``text()`` step) must over-approximate
        what a conforming document may contain.
        """
        return self.leaves | frozenset(
            child for _parent, child in self.reference_positions
        )

    def reachable_from(self, tag: str) -> frozenset[str]:
        """Element tags reachable as proper descendants of ``tag``.

        Deliberately over-approximate: reference-position children are
        expanded through their record-form content model even though a
        conforming document keeps them as PCDATA leaves there.  Every
        consumer of this fact proves an impossibility (a path cannot
        match; a binding cannot nest), so extra edges only make the
        analysis more conservative, never unsound.
        """
        return self._reachability.get(tag, frozenset())

    @cached_property
    def _reachability(self) -> dict[str, frozenset[str]]:
        resolved: dict[str, frozenset[str]] = {}
        for start in self.tags:
            seen: set[str] = set()
            stack = [spec.tag for spec in self.children_of(start)]
            while stack:
                tag = stack.pop()
                if tag in seen:
                    continue
                seen.add(tag)
                stack.extend(
                    spec.tag
                    for spec in self.children_of(tag)
                    if spec.tag not in seen
                )
            resolved[start] = frozenset(seen)
        return resolved

    # -- validation -----------------------------------------------------

    def validate_children(
        self, parent: str, children: list[str], *, as_reference: bool = False
    ) -> None:
        """Check a child-tag sequence against ``parent``'s content model.

        Raises :class:`SchemaViolation` on the first mismatch.  Leaves
        (and reference-position occurrences) accept no element children.
        """
        if as_reference or parent not in self.models:
            if children:
                raise SchemaViolation(
                    f"leaf element <{parent}> must not have element children"
                )
            return
        position = 0
        for spec in self.models[parent]:
            count = 0
            while position < len(children) and children[position] == spec.tag:
                position += 1
                count += 1
            if count < spec.min_occurs or (
                spec.max_occurs is not None and count > spec.max_occurs
            ):
                raise SchemaViolation(
                    f"<{parent}> has children {children} violating its "
                    "content model"
                )
        if position != len(children):
            raise SchemaViolation(
                f"<{parent}> has children {children} violating its "
                "content model"
            )

    def validate_document(self, document) -> int:
        """Validate a parsed or textual document; returns elements checked.

        Accepts document text or a
        :class:`~repro.xmlio.tree.DocumentNode`; raises
        :class:`SchemaViolation` on the first offending element.
        """
        # Local import: repro.xmlio depends on nothing in repro.analysis,
        # and keeping the analysis layer import-light keeps compile-only
        # users (e.g. pool worker bootstrap) fast.
        from repro.xmlio.tree import DocumentNode, ElementNode, parse_tree

        tree = (
            document
            if isinstance(document, DocumentNode)
            else parse_tree(document)
        )
        known = self.tags
        checked = 0

        def visit(node: ElementNode, is_reference: bool) -> None:
            nonlocal checked
            if node.tag not in known:
                raise SchemaViolation(f"unknown element <{node.tag}>")
            child_tags = [
                child.tag
                for child in node.children
                if isinstance(child, ElementNode)
            ]
            self.validate_children(
                node.tag, child_tags, as_reference=is_reference
            )
            checked += 1
            for child in node.children:
                if isinstance(child, ElementNode):
                    visit(child, self.is_reference(node.tag, child.tag))

        root = tree.root_element
        if root is not None:
            visit(root, False)
        return checked


def load_dtd(source: str | Path) -> Schema:
    """Load a :class:`Schema` from a DTD file path.

    The CLI's ``--schema PATH`` lands here; pass DTD *text* directly to
    :meth:`Schema.from_dtd_text` instead (the serve protocol does, since
    frames carry text, not filenames).
    """
    return Schema.from_dtd_text(Path(source).read_text(encoding="utf-8"))
