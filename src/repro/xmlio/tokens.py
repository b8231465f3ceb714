"""XML stream tokens.

The paper (Section 2) views an XML document dually as an unranked ordered
labeled tree and as a stream of opening tags, closing tags, and character
sequences.  This module defines the token vocabulary shared by the lexer,
the stream preprojector, and the serializers.

XML attributes are not part of the data model; the paper converts attributes
into subelements (Section 7), and :mod:`repro.xmlio.lexer` performs the same
conversion when it encounters attributes in input documents.

Decode-on-demand text
---------------------
The bytes-domain lexer never decodes character data eagerly: it emits
:class:`LazyText`, a :class:`Text` whose UTF-8 decode and entity unescape
run the first time ``.content`` is read.  Tokens for subtrees the
preprojector prunes are simply dropped, so skipped text never pays ``str``
conversion at all.  Every decode increments a module counter
(:func:`text_decode_count`), which is how tests *prove* the skipped
subtrees stayed in the bytes domain.  ``LazyText`` compares equal to an
eager ``Text`` with the same content, so the differential oracle suites
are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Token",
    "StartTag",
    "EndTag",
    "Text",
    "LazyText",
    "LazyCData",
    "Skipped",
    "Span",
    "text_decode_count",
]


@dataclass(frozen=True, slots=True)
class Token:
    """Base class of all stream tokens."""


@dataclass(frozen=True, slots=True)
class StartTag(Token):
    """An opening tag ``<tag>``."""

    tag: str

    def __str__(self) -> str:
        return f"<{self.tag}>"


@dataclass(frozen=True, slots=True)
class EndTag(Token):
    """A closing tag ``</tag>``."""

    tag: str

    def __str__(self) -> str:
        return f"</{self.tag}>"


@dataclass(frozen=True, slots=True)
class Text(Token):
    """A run of character data between tags."""

    content: str

    def __str__(self) -> str:
        return escape_text(self.content)


#: Total lazy-text decodes performed in this process.  The counter exists
#: so the decode-on-demand guarantee is testable: project a document whose
#: projection prunes a subtree, and the delta must not include its text.
_decode_count = 0


def text_decode_count() -> int:
    """Number of :class:`LazyText` decodes performed so far (this process).

    Monotonic; tests snapshot it before a run and assert on the delta.
    Under threads the counter is approximate (unsynchronized increment) —
    the provability tests are single-threaded.
    """
    return _decode_count


class LazyText(Text):
    """A text token carried as an undecoded UTF-8 byte span.

    Emitted by the bytes-domain lexer.  ``raw`` is the byte slice exactly
    as it appeared in the document; the UTF-8 decode and the
    predefined-entity unescape are deferred until the first ``.content``
    access and cached.  Equality and hashing match an eager :class:`Text`
    with the same decoded content, so token streams mixing the two compare
    element-wise — which is what keeps the frozen reference-lexer
    differential suites valid.

    The frozen-dataclass write guard stays in force (no ``__setattr__``
    override: defining one would force every attribute store through the
    slow ``slot_tp_setattro`` dispatch); the constructor and the decode
    cache write through the slot descriptors instead, and the lexer's hot
    path builds instances the same way (``__new__`` plus one descriptor
    store — measurably cheaper than a constructor call).

    ``_unescape`` is a class attribute, not a per-instance slot: character
    data always unescapes, and :class:`LazyCData` overrides it for CDATA
    content, where entity references are literal text.
    """

    __slots__ = ("_raw", "_decoded")

    _unescape = True

    def __init__(self, raw: bytes) -> None:
        # ``_decoded`` is deliberately left unset (an unset slot raises
        # AttributeError on read): one attribute write fewer is measurable.
        object.__setattr__(self, "_raw", raw)

    @property
    def content(self) -> str:  # shadows the base class slot
        try:
            return self._decoded
        except AttributeError:
            pass
        global _decode_count
        _decode_count += 1
        decoded = self._raw.decode("utf-8")
        if self._unescape and "&" in decoded:
            decoded = unescape_text(decoded)
        object.__setattr__(self, "_decoded", decoded)
        return decoded

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Text):
            return self.content == other.content
        return NotImplemented

    def __hash__(self) -> int:
        # Matches the tuple hash the frozen dataclass generates for Text.
        return hash((self.content,))

    def __reduce__(self):
        # Pickle as an eager Text: the raw bytes would survive, but the
        # decode counter would silently reset semantics across processes.
        return (Text, (self.content,))


class LazyCData(LazyText):
    """CDATA section content: decoded on demand, never entity-unescaped."""

    __slots__ = ()

    _unescape = False


@dataclass(frozen=True, slots=True)
class Skipped(Token):
    """A run of dead material the guided scanner validated but never built.

    Emitted by :class:`~repro.xmlio.lexer.XMLTokenizer` when it runs under a
    scan guide (docs/PERFORMANCE.md, "Scan-time projection"), in the place
    of the tokens it stands for, so a consumer that adds the counts keeps
    exactly the counters the unguided stream would have produced.
    """

    #: Tokens the unguided stream would have delivered here (attribute
    #: subelements and stripped whitespace counted exactly as unguided).
    tokens: int
    #: How many of them were start tags or text — what a projection lane
    #: counts as dropped nodes.
    dropped: int
    #: Top-level dead elements spanned (each would have cost a lane of the
    #: shared pass one open, one park and one close).
    roots: int

    def __str__(self) -> str:
        return ""


@dataclass(frozen=True, slots=True)
class Span(Token):
    """A whole output subtree the guided scanner copied as text.

    Emitted in place of a match subtree when the scan guide's row says
    COPY (the schema-certified direct runner's ``{$x}`` bodies, and the
    buffered engine's copy sites; see "The COPY row" in
    docs/PERFORMANCE.md).  ``text`` is exactly what the
    serializers would have written for the replaced tokens — so a sink
    appends it verbatim, and ``str(span) == span.text`` — and
    ``tokenize(span.text)`` gives those tokens back.  The round trip is
    exact up to how character data is cut: text the document split with
    a comment or CDATA boundary comes back as one token, an empty CDATA
    section as none, and a whitespace-only attribute value only under
    ``strip_whitespace=False``.  A span never spans more than one scan
    batch.
    """

    #: The canonical serialization of the subtree.
    text: str
    #: Tokens the unguided stream would have delivered for the subtree.
    tokens: int
    #: The interned start tag of the subtree's root: what a projection
    #: lane steps its matcher with (the direct runner needs no tag).
    start: StartTag

    def __str__(self) -> str:
        return self.text


def escape_text(content: str) -> str:
    """Escape character data for serialization."""
    return content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def unescape_text(content: str) -> str:
    """Resolve the predefined XML entities in character data."""
    return (
        content.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", '"')
        .replace("&apos;", "'")
        .replace("&amp;", "&")
    )
