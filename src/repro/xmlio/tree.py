"""In-memory XML trees and the document projection of Definition 1.

The baselines (naive DOM engine, projection-only engine) evaluate queries on
these trees, and the tests use them as the reference data model.  Nodes carry
stable identities so node-set comparisons work the way the paper requires
("when comparing node-sets ... we compare node-identifiers only").
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.xmlio.lexer import tokenize
from repro.xmlio.tokens import EndTag, StartTag, Text, Token, escape_text

__all__ = [
    "XMLNode",
    "ElementNode",
    "TextNode",
    "DocumentNode",
    "parse_tree",
    "project",
    "tree_tokens",
]


class XMLNode:
    """Base class of DOM nodes.

    Document order is materialized in ``order``; parents hold children in a
    list.  ``size`` (|T| in the paper) counts all nodes in the subtree.
    """

    __slots__ = ("parent", "children", "order")

    def __init__(self) -> None:
        self.parent: XMLNode | None = None
        self.children: list[XMLNode] = []
        self.order: int = -1

    # -- structure ------------------------------------------------------

    def append(self, child: "XMLNode") -> None:
        child.parent = self
        self.children.append(child)

    def iter_subtree(self) -> Iterator["XMLNode"]:
        """Yield this node and all descendants in document order."""
        yield self
        yield from self.descendants()

    def descendants(self) -> Iterator["XMLNode"]:
        """All descendants in document order, one child iterator per level."""
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                yield child
                if child.children:
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def ancestors(self) -> Iterator["XMLNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    @property
    def size(self) -> int:
        return sum(1 for _ in self.iter_subtree())

    # -- values ---------------------------------------------------------

    def string_value(self) -> str:
        """The concatenated text content of the subtree (XPath string value)."""
        parts: list[str] = []
        for node in self.iter_subtree():
            if isinstance(node, TextNode):
                parts.append(node.content)
        return "".join(parts)


class ElementNode(XMLNode):
    """An element with a tag name."""

    __slots__ = ("tag",)

    def __init__(self, tag: str) -> None:
        super().__init__()
        self.tag = tag

    def __repr__(self) -> str:
        return f"ElementNode({self.tag!r}, order={self.order})"


class TextNode(XMLNode):
    """A character-data node."""

    __slots__ = ("content",)

    def __init__(self, content: str) -> None:
        super().__init__()
        self.content = content

    def __repr__(self) -> str:
        return f"TextNode({self.content!r}, order={self.order})"


class DocumentNode(XMLNode):
    """The document root (the node the paper calls ``root``).

    Its single element child is the root element; XPath ``/bib`` selects
    ``bib`` children of this node.
    """

    def __repr__(self) -> str:
        return f"DocumentNode(order={self.order})"

    @property
    def root_element(self) -> ElementNode | None:
        for child in self.children:
            if isinstance(child, ElementNode):
                return child
        return None


def parse_tree(text: str, *, strip_whitespace: bool = True) -> DocumentNode:
    """Parse document text into a DOM tree."""
    return build_tree(tokenize(text, strip_whitespace=strip_whitespace))


def build_tree(tokens: Iterable[Token]) -> DocumentNode:
    """Build a DOM tree from a token stream."""
    document = DocumentNode()
    document.order = 0
    stack: list[XMLNode] = [document]
    counter = 1
    for token in tokens:
        if isinstance(token, StartTag):
            element = ElementNode(token.tag)
            element.order = counter
            counter += 1
            stack[-1].append(element)
            stack.append(element)
        elif isinstance(token, EndTag):
            stack.pop()
        elif isinstance(token, Text):
            text_node = TextNode(token.content)
            text_node.order = counter
            counter += 1
            stack[-1].append(text_node)
    return document


def tree_tokens(node: XMLNode) -> Iterator[Token]:
    """Serialize a subtree back into a token stream (document order),
    keeping each open node with the iterator over its remaining children."""
    if isinstance(node, TextNode):
        yield Text(node.content)
        return
    if isinstance(node, ElementNode):
        yield StartTag(node.tag)
    stack = [(node, iter(node.children))]
    while stack:
        parent, children = stack[-1]
        for child in children:
            if isinstance(child, ElementNode):
                yield StartTag(child.tag)
                stack.append((child, iter(child.children)))
                break
            if isinstance(child, TextNode):
                yield Text(child.content)
        else:
            stack.pop()
            if isinstance(parent, ElementNode):
                yield EndTag(parent.tag)


def serialize_tree(node: XMLNode) -> str:
    """Serialize a subtree to text, using bachelor tags for empty elements."""
    parts: list[str] = []
    _serialize_into(node, parts)
    return "".join(parts)


def _serialize_into(node: XMLNode, parts: list[str]) -> None:
    if isinstance(node, DocumentNode):
        for child in node.children:
            _serialize_into(child, parts)
    elif isinstance(node, ElementNode):
        if node.children:
            parts.append(f"<{node.tag}>")
            for child in node.children:
                _serialize_into(child, parts)
            parts.append(f"</{node.tag}>")
        else:
            parts.append(f"<{node.tag}/>")
    elif isinstance(node, TextNode):
        parts.append(escape_text(node.content))


def project(
    document: DocumentNode, keep: set[XMLNode] | Callable[[XMLNode], bool]
) -> DocumentNode:
    """Compute the projection Pi_S(T) of Definition 1.

    ``keep`` is either the node-set S (the document root is always kept) or a
    predicate over nodes.  The projected tree consists of copies of the
    selected nodes with ancestor-descendant and following relationships
    preserved: a kept node becomes a child of its nearest kept ancestor, in
    document order.  The original tree is left untouched; copies keep the
    original ``order`` values so node identity can be traced across the
    projection.
    """
    if callable(keep):
        predicate = keep
    else:
        kept_set = keep
        predicate = lambda node: node in kept_set  # noqa: E731 - tiny closure

    new_document = DocumentNode()
    new_document.order = document.order

    def copy_of(node: XMLNode) -> XMLNode:
        if isinstance(node, ElementNode):
            clone = ElementNode(node.tag)
        elif isinstance(node, TextNode):
            clone = TextNode(node.content)
        else:  # pragma: no cover - the document root is handled outside
            raise TypeError(f"cannot project node {node!r}")
        clone.order = node.order
        return clone

    def walk(original: XMLNode, attach_to: XMLNode) -> None:
        for child in original.children:
            if predicate(child):
                clone = copy_of(child)
                attach_to.append(clone)
                walk(child, clone)
            else:
                # The child is discarded; its kept descendants are promoted.
                walk(child, attach_to)

    walk(document, new_document)
    return new_document
