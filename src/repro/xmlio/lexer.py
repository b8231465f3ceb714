"""A streaming XML tokenizer that scans raw UTF-8 bytes.

The tokenizer is the lowest layer of the GCX architecture (Figure 11): the
stream preprojector pulls tokens from it one at a time, so the tokenizer must
never materialize the whole document.  It is deliberately written from
scratch (no ``xml.sax``) so the repository is self-contained and the token
boundaries match the paper's stream model exactly.

One reader, three emitters (see docs/PERFORMANCE.md)
----------------------------------------------------
Every well-formedness rule is written once, in the *reader*, which turns
the construct at a byte offset into a row ``(kind, end, name, attributes,
text)``:

* *the kernel* — one compiled pattern, :data:`_KERNEL`, matches a plain
  construct in C: a bare leaf ``<n>text</n>``, a start tag whose quoted
  attribute values hold no ``&``, ``<``, ``>`` or quote, a bare end tag, or
  a text run with no ``&`` or ``>`` that a ``<`` follows.  Names are ASCII.
* *the careful reader* (:meth:`XMLTokenizer._careful`) — everything else:
  comments, PIs, DOCTYPE and CDATA, escaped text, whitespace inside tags,
  attributes that need it, non-ASCII names (which it checks are UTF-8),
  anything that reaches the end of the window (it refills, so in file mode
  a construct is never read from half a chunk), every construct at the top
  level and the end of input.  It is the only code that raises
  :class:`XMLSyntaxError`, so an error has one message, offset, line and
  column whichever mode met it.

Three emitters turn rows into what the consumer receives, and neither the
kernel nor the careful reader knows which one asked:

* *LIVE* (:meth:`XMLTokenizer._fill`) builds tokens.  Start tags are looked
  up in a *row* keyed by the **undecoded** name: a tag name is decoded (and
  ``sys.intern``-ed, so the matcher's ``(state, tag)`` keys share one
  cached hash) once per distinct spelling.  Character data is emitted as
  :class:`~repro.xmlio.tokens.LazyText` carrying the raw byte span: UTF-8
  decode and entity unescape run only when ``.content`` is first read.
* *DEAD* — with a scan ``guide`` (the projection matcher's lazy DFA, see
  "Scan-time projection" in docs/PERFORMANCE.md) a subtree the guide's row
  calls :data:`DEAD` is read like any other input, but no token is
  allocated, no text decoded and no tag interned: it leaves as one
  :class:`~repro.xmlio.tokens.Skipped` count.
* *COPY* — a subtree the row calls :data:`COPY` (the schema-certified
  runner's ``{$x}`` matches, and the buffered engine's copy sites: an
  element whose subtree the query only ever copies to output) leaves as
  one :class:`~repro.xmlio.tokens.Span` of its canonical output text, or
  LIVE when it cannot be copied.

The scanner fills token batches that iteration hands out whole; a
batch stops after a byte budget (:data:`BATCH_BYTES`, or the chunk size in
file mode, so the file-backed subclass can compact its window between
batches).  ``str`` input is encoded once up front and file input is
mmap-mapped (:mod:`repro.xmlio.filelexer`); every markup delimiter is
ASCII, so a multi-byte UTF-8 sequence is never split by a token boundary.

Positions (``XMLSyntaxError.position``) are document-absolute **byte**
offsets; ``.line``/``.column`` are computed lazily from the offending
window on first access.  The pre-batching implementation is kept as a
test oracle under ``tests/xmlio/``; differential tests assert both emit
identical token streams (and that a guided stream, with every
``Skipped`` expanded, is the unguided one).  The repository's benchmark
(``benchmarks/ledger``) tracks the scanner's throughput.

Supported XML subset
--------------------
* elements with start/end/bachelor tags,
* character data with the predefined entities,
* attributes, which are converted to leading subelements (the adaptation the
  paper applies to XMark: "we converted XML attributes into subelements"),
  so an attribute name must read back as a tag name: not empty, no
  whitespace, not starting with ``/``, ``!`` or ``?``, not ending with ``/``,
* comments, processing instructions, XML declarations and DOCTYPE clauses,
  which are skipped,
* CDATA sections, which become text.

Namespaces are treated literally (a tag ``a:b`` is just the name ``a:b``).
Input must be UTF-8; whitespace *inside markup* is ASCII whitespace (as the
XML grammar's ``S`` production requires).
"""

from __future__ import annotations

import re
from sys import intern
from typing import Iterator

from repro.xmlio.tokens import (
    EndTag,
    LazyCData,
    LazyText,
    Skipped,
    Span,
    StartTag,
    Token,
    escape_text,
    unescape_text,
)

__all__ = [
    "XMLSyntaxError",
    "XMLTokenizer",
    "tokenize",
    "BATCH_BYTES",
    "COPY",
    "DEAD",
    "scan_entry",
]

#: Byte budget per scan batch for in-memory input: one internal scan
#: call advances at most this far before handing the batch to the
#: iterator.  Large enough to amortize the per-batch setup over thousands
#: of tokens, small enough that time-to-first-token and the token batch
#: stay bounded.  (The file-backed subclass overrides the budget with its
#: chunk size so window compaction keeps pace with scanning.)
BATCH_BYTES = 1 << 16

_LT = 0x3C  # ``<``
_SLASH = 0x2F  # ``/``

#: UTF-8 encodings of every code point ``str.strip()`` treats as
#: whitespace.  ``bytes.isspace()`` only knows the ASCII six; this pattern
#: covers the rest (NEL, NBSP, the U+2000 block, …) so whitespace-only
#: classification matches the str-domain reference *without decoding*.
_UNICODE_WS = re.compile(
    rb"(?:[ \t\n\r\x0b\x0c\x1c-\x1f]"
    rb"|\xc2[\x85\xa0]"
    rb"|\xe1\x9a\x80"
    rb"|\xe2\x80[\x80-\x8a\xa8\xa9\xaf]"
    rb"|\xe2\x81\x9f"
    rb"|\xe3\x80\x80)+\Z"
).match

_NAME = rb"[A-Za-z_:][-.\w:]*"  # ASCII: ``\w`` in a bytes pattern
_S = rb"[ \t\r\n]"
_VALUE = rb"(?:\"[^\"'&<>]*\"|'[^\"'&<>]*')"
_ATTRIBUTE = _S + rb"+" + _NAME + _S + rb"*=" + _S + rb"*" + _VALUE
_LEAF_FORM = rb"<(" + _NAME + rb")>([^<&>]*)</\1>"
_END_FORM = rb"</(" + _NAME + rb">)"
_START_FORM = rb"<(" + _NAME + rb")((?:" + _ATTRIBUTE + rb")*)" + _S + rb"*(/?)>"

#: The kernel: one plain construct at a position, matched in C.  Groups
#: 1-2 are a leaf's name and text, 3 an end tag's ``name>``, 4-6 a start
#: tag's name, attributes and ``/``; a text run matches no group (and
#: must see the ``<`` after it, so it never stops at a window's end).
_KERNEL = re.compile(
    b"|".join((_LEAF_FORM, _END_FORM, _START_FORM, rb"[^<&>]+(?=<)"))
).match
#: The ``(name, value)`` pairs in the attributes the kernel matched.
_ATTRIBUTES = re.compile(
    b"(" + _NAME + b")" + _S + b"*=" + _S + rb"*[\"']([^\"']*)"
).findall

#: An attribute name that, written as a tag, would not read back as a
#: start tag of that name: empty, ``</x>`` is an end tag, ``<!x>`` and
#: ``<?x>`` are markup, ``<x/>`` closes itself, and whitespace ends a name.
_NOT_A_NAME = re.compile(rb"\A(?:[/!?]|\Z)|[ \t\r\n]|/\Z").search
_WS_SEARCH = re.compile(rb"[ \t\r\n]").search

#: Row kinds (field 0 of what :meth:`XMLTokenizer._read` returns).  A
#: LEAF is an element with no children: ``<n/>``, or ``<n>text</n>``.
_TEXT, _CDATA, _SKIP, _END, _START, _LEAF, _EOF = range(7)


#: Slot-descriptor store for ``LazyText._raw``: the hot loop builds text
#: tokens as ``__new__`` + one descriptor call, bypassing both the
#: constructor frame and the frozen-dataclass ``__setattr__`` dispatch.
_SET_RAW = LazyText._raw.__set__


#: Row verdict for a start tag whose whole subtree no consumer can need:
#: the scanner validates it and delivers a ``Skipped`` instead of tokens.
DEAD = object()

#: Child-row marker of an entry whose whole subtree the consumer copies
#: verbatim: the scanner validates it and delivers one ``Span`` of its
#: canonical text, or — when it cannot — the element LIVE.
COPY = object()

#: Character data or an attribute value the serializer would not write
#: back byte for byte: an entity reference, or a ``<``/``>`` it escapes.
_NEEDS_ESCAPE = re.compile(rb"[&<>]").search


def scan_entry(
    name_key: bytes,
    child_row: "dict | None" = None,
    parent_row: "dict | None" = None,
    text_dead: bool = False,
) -> tuple:
    """Build the row entry of one tag spelling (interned once per row).

    A *row* maps the undecoded tag name to what the scanner needs when it
    meets that tag in a given context, as one flat tuple:

    0. ``b"name>"`` and 1. its length — the *closer*: an end tag must read
       ``</`` and then exactly these bytes;
    2. the shared :class:`EndTag`, 3. the tag and 4. the shared
       :class:`StartTag`;
    5. the row the element's children are looked up in — ``None`` means
       LIVE: nothing below is consulted, the tokenizer's own tag table
       serves the whole subtree; :data:`COPY` means the subtree is
       delivered as one :class:`~repro.xmlio.tokens.Span` (LIVE when the
       scanner cannot copy it);
    6. the guide row this entry lives in (restored when the element
       closes) — ``None`` for the tokenizer's own table;
    7. whether character data directly inside the element is dead.

    The tokenizer's own table is the row with nothing to skip (fields 5–7
    at their defaults); a scan guide supplies rows whose entries say more,
    or :data:`DEAD` in place of an entry.
    """
    tag = intern(name_key.decode("utf-8"))
    return (
        name_key + b">",
        len(name_key) + 1,
        EndTag(tag),
        tag,
        StartTag(tag),
        child_row,
        parent_row,
        text_dead,
    )


class RunGuide:
    """One run's view of a scan guide shared by many runs (a session's
    warm matcher or chain guide): the guide's rows, with the subtrees its
    :data:`COPY` entries could not copy counted on the run's statistics
    (``stats.copy_fallbacks``)."""

    __slots__ = ("root_row", "miss", "_stats")

    def __init__(self, guide: object, stats: object) -> None:
        self.root_row = guide.root_row
        self.miss = guide.miss
        self._stats = stats

    def copy_failed(self, entry: tuple) -> None:
        """The scanner could not copy the subtree of ``entry`` (a COPY
        entry of one of the guide's rows) and delivers it LIVE."""
        self._stats.copy_fallbacks += 1


def _decode_name(name: bytes, position: int) -> str:
    """A tag or attribute name, decoded; an :class:`XMLSyntaxError` at
    ``position`` when it is not UTF-8.  Every route checks every name, a
    dead subtree's too, so a name fails alike however it is scanned."""
    try:
        return name.decode("utf-8")
    except UnicodeDecodeError:
        raise XMLSyntaxError("tag name is not UTF-8", position) from None


def _canonical_text(raw: bytes) -> bytes:
    """Character data as the serializer writes it: unescaped, re-escaped."""
    if _NEEDS_ESCAPE(raw) is None:
        return raw
    return escape_text(unescape_text(raw.decode("utf-8"))).encode("utf-8")


def _canonical_tag(name: bytes, attributes, text: "bytes | None") -> bytes:
    """A start tag (``text`` is ``None``) or a whole leaf as the serializer
    writes it: attributes as leading subelements, text re-escaped, and a
    leaf with neither as ``<name/>``."""
    if text == b"" and not attributes:
        return b"<" + name + b"/>"
    chunks = [b"<", name, b">"]
    for attr_name, value in attributes:
        if value:
            value = _canonical_text(value)
            chunks += (b"<", attr_name, b">", value, b"</", attr_name, b">")
        else:
            chunks += (b"<", attr_name, b"/>")
    if text is not None:
        chunks += (_canonical_text(text), b"</", name, b">")
    return b"".join(chunks)


def _ws_only(raw: bytes) -> bool:
    """True when ``raw`` decodes to whitespace-only text (without decoding).

    Mirrors the reference lexer's ``content.strip() == ""`` check in the
    bytes domain.
    """
    if not raw:
        return True
    first = raw[0]
    if first >= 33 and first < 0xC2:
        return False  # common case: text starts with a printable ASCII byte
    return raw.isspace() or _UNICODE_WS(raw) is not None


class XMLSyntaxError(ValueError):
    """Raised when the input is not well-formed within the supported subset.

    ``position`` is the document-absolute **byte** offset of the offending
    construct (for pure-ASCII documents this coincides with the character
    offset the pre-bytes lexers reported).  ``line`` and ``column`` (both
    1-based; the column counts bytes) are computed lazily from the window
    the lexer attached at raise time — ``None`` when no window is available
    (e.g. errors raised by the frozen reference lexer).
    """

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self._message = message
        self.position = position
        self._window: bytes | None = None
        self._window_offset = 0
        self._nl_before = 0
        self._last_nl_abs = -1
        self._line: int | None = None
        self._column: int | None = None
        self._located = False

    def __reduce__(self):
        return (XMLSyntaxError, (self._message, self.position))

    @property
    def line(self) -> int | None:
        self.ensure_location()
        return self._line

    @property
    def column(self) -> int | None:
        self.ensure_location()
        return self._column

    def ensure_location(self) -> None:
        """Force the lazy line/column computation now.

        ``tokenize_file`` calls this before an error propagates out of an
        mmap-backed scan, because unwinding the generator closes the map
        the window points into.
        """
        if self._located:
            return
        self._located = True
        window = self._window
        rel = self.position - self._window_offset
        if window is None or rel < 0:
            return
        # ``bytes(...)`` also copies mmap windows, which lack ``count``.
        prefix = bytes(window[: min(rel, len(window))])
        self._line = self._nl_before + prefix.count(b"\n") + 1
        last = prefix.rfind(b"\n")
        if last != -1:
            self._column = rel - last
        elif self._last_nl_abs >= 0:
            self._column = self.position - self._last_nl_abs
        else:
            self._column = self.position + 1


class XMLTokenizer:
    """Incrementally tokenize an XML document held as UTF-8 bytes.

    The tokenizer checks well-formedness of tag nesting as it goes and
    raises :class:`XMLSyntaxError` on mismatched or dangling tags.  Errors
    surface in stream order: tokens scanned before the offending construct
    are delivered first, exactly like the pre-batching implementation.

    Parameters
    ----------
    text:
        The document: ``str`` (encoded to UTF-8 once), ``bytes``, a
        ``bytearray``/``memoryview`` (copied to ``bytes``), or an
        ``mmap.mmap`` (scanned in place; slices taken from it are plain
        ``bytes``, so emitted tokens never keep the map alive).
    strip_whitespace:
        When true (the default), text tokens consisting purely of whitespace
        between elements are dropped.  XMark documents carry no meaningful
        inter-element whitespace, and the paper's data model has no notion of
        ignorable whitespace either.
    guide:
        Optional scan guide (duck-typed; the projection matcher and the
        shared pass's product guide implement it): ``root_row()`` returns
        the row for the document's top level (``None``: nothing can be
        skipped) and ``miss(row, name)`` fills and returns the entry of a
        tag a row has not seen — a :func:`scan_entry` or :data:`DEAD`.
        Dead subtrees are validated like any other input but delivered as
        :class:`~repro.xmlio.tokens.Skipped` counts instead of tokens.  A
        guide whose entries say :data:`COPY` also provides
        ``copy_failed(entry)``, called with the COPY entry whenever its
        subtree arrives LIVE (a :class:`RunGuide` counts them on one
        run's statistics).
    """

    def __init__(
        self,
        text: "str | bytes | bytearray | memoryview",
        *,
        strip_whitespace: bool = True,
        guide: "object | None" = None,
    ) -> None:
        if isinstance(text, str):
            data = text.encode("utf-8")
        elif isinstance(text, (bytearray, memoryview)):
            data = bytes(text)  # slices must be hashable bytes
        else:
            data = text  # bytes or mmap: find + slicing, scanned in place
        self._data = data
        self._pos = 0
        self._offset = 0  # bytes discarded by compaction (file mode)
        self._strip_whitespace = strip_whitespace
        # Innermost-first stack of the open elements: the row entry (see
        # :func:`scan_entry`) of each delivered element and, above them
        # while a dead subtree is being validated, the bare ``b"name>"``
        # closer of each dead one (``_dead_depth`` of them).
        self._open_tags: list = []
        self._dead_depth = 0
        self._seen_root = False
        # Batch machinery: tokens are scanned a batch at a time into
        # ``_out`` and delivered from there.  ``_batch_bytes`` caps how far one
        # batch may advance (the file subclass sets it to the chunk size so
        # compaction keeps up with scanning).
        self._out: list[Token] = []
        self._batch_bytes = BATCH_BYTES
        self._error: XMLSyntaxError | None = None
        # The tokenizer's own row (nothing to skip), keyed by the
        # *undecoded* tag name: one token object — and one UTF-8 decode —
        # per distinct tag spelling.
        self._start_tags: dict[bytes, tuple] = {}
        # The row start tags are looked up in right now: a guide row while
        # the guide tracks the open element, else the tokenizer's own.
        self._guide = guide
        row = guide.root_row() if guide is not None else None
        self._row: dict = row if row is not None else self._start_tags
        # Newline bookkeeping for lazy line/column on errors: counts for
        # the compacted-away prefix (file mode keeps these current).
        self._nl_before = 0
        self._last_nl_abs = -1

    def _refill(self) -> bool:
        """Ask for more input.  The in-memory tokenizer has none; the
        file-backed subclass appends the next chunk and returns True."""
        return False

    def _before_batch(self) -> None:
        """Hook run before scanning a batch (the file subclass compacts)."""

    def __iter__(self) -> Iterator[Token]:
        # The one delivery protocol.  It bypasses per-token method dispatch
        # entirely: each batch is handed to the list iterator, so the
        # steady-state cost of one token is a generator resume plus a
        # list-iterator step.
        while True:
            if not self._fill():
                if self._error is not None:
                    raise self._error
                return
            yield from self._out

    # ------------------------------------------------------------------
    # the reader: the kernel, and the careful path behind it
    # ------------------------------------------------------------------

    def _read(self, pos: int, expected: "bytes | None") -> tuple:
        """The construct at ``pos`` as a row ``(kind, end, name,
        attributes, text)``: ``end`` is where it stops, ``name`` a start
        tag's or leaf's undecoded name (an end tag's ``b"name>"``),
        ``attributes`` its ``(name, value)`` byte pairs, and ``text`` a
        leaf's, text run's or CDATA section's raw bytes.

        ``expected`` is the ``b"name>"`` closer of the innermost open
        element, ``None`` at the top level.  The kernel reads a plain
        construct; the careful reader everything else, every top-level
        construct included (that is where the document-level rules live).
        """
        match = _KERNEL(self._data, pos)
        if match is None or expected is None:
            return self._careful(pos, expected)
        kind = match.lastindex
        if kind == 2:
            return _LEAF, match.end(), match[1], (), match[2]
        if kind == 3:
            if match[3] != expected:
                return self._careful(pos, expected)
            return _END, match.end(), expected, (), None
        if kind is None:
            return _TEXT, match.end(), None, (), match[0]
        attributes = match[5]
        return (
            _LEAF if match[6] else _START,
            match.end(),
            match[4],
            _ATTRIBUTES(attributes) if attributes else (),
            b"",
        )

    def _careful(self, pos: int, expected: "bytes | None") -> tuple:
        """:meth:`_read` for a construct the kernel does not take: every
        check, refilling as needed.  This is the one place a document is
        found malformed.  At the end of input the row is ``_EOF``, or an
        error when an element is still open or none was seen."""
        position = pos + self._offset
        if not self._have(pos + 1):
            if expected is not None:
                name = expected[:-1].decode("utf-8")
                raise XMLSyntaxError(
                    f"input exhausted with unclosed element <{name}>", position
                )
            if not self._seen_root:
                raise XMLSyntaxError("document has no root element", position)
            return _EOF, pos, None, (), None
        if self._data[pos] != _LT:
            kind = _TEXT
            end = self._find(b"<", pos)
            if end == -1:
                end = len(self._data)
            text = self._data[pos:end]
        else:
            # The longest prefix, ``<![CDATA[``, decides the construct.
            self._have(pos + 9)
            head = self._data[pos : pos + 9]
            if head[:4] == b"<!--":
                kind, needle, what = _SKIP, b"-->", "construct, expected '-->'"
            elif head == b"<![CDATA[":
                kind, needle, what = _CDATA, b"]]>", "CDATA section"
            elif head[1:2] == b"?":
                kind, needle, what = _SKIP, b"?>", "construct, expected '?>'"
            elif head[1:2] == b"!":  # no needle: brackets nest in a DOCTYPE
                kind, needle, what = _SKIP, b"", "<!DOCTYPE ...> clause"
            elif head[1:2] == b"/":
                kind, needle, what = _END, b">", "end tag"
            else:
                kind, needle, what = _START, b">", "start tag"
            end = self._find(needle, pos) if needle else self._doctype_end(pos)
            if end == -1:
                raise XMLSyntaxError(f"unterminated {what}", position)
            data = self._data
            if kind == _SKIP:
                return _SKIP, end + len(needle or b">"), None, (), None
            if kind == _CDATA:
                text = data[pos + 9 : end]
                end += 3
            elif kind == _END:
                name = data[pos + 2 : end].strip()
                if not name:
                    raise XMLSyntaxError("empty end tag", position)
                if name + b">" != expected:
                    name = _decode_name(name, position)
                    if expected is None:
                        raise XMLSyntaxError(
                            f"closing tag </{name}> with no open element", position
                        )
                    raise XMLSyntaxError(
                        f"mismatched closing tag </{name}>, "
                        f"expected </{expected[:-1].decode('utf-8')}>",
                        position,
                    )
                return _END, end + 1, expected, (), None
            else:
                closing = data[end - 1] == _SLASH
                name, attributes = self._parse_tag_body(
                    data[pos + 1 : end - closing], position
                )
                if expected is None:
                    if self._seen_root:
                        raise XMLSyntaxError(
                            "document has more than one root element", position
                        )
                    self._seen_root = True
                return _LEAF if closing else _START, end + 1, name, attributes, b""
        if expected is None and (kind == _CDATA or not _ws_only(text)):
            raise XMLSyntaxError("character data outside the root element", position)
        return kind, end, None, (), text

    def _parse_tag_body(
        self, body: bytes, position: int
    ) -> tuple[bytes, list[tuple[bytes, bytes]]]:
        """A start tag's name and its ``(name, value)`` attribute pairs."""
        body = body.strip()
        if not body:
            raise XMLSyntaxError("empty start tag", position)
        split = _WS_SEARCH(body)
        i = length = len(body)
        if split is not None:
            i = split.start()
        name = body[:i]
        attributes: list[tuple[bytes, bytes]] = []
        while i < length:
            while body[i] in b" \t\r\n":
                i += 1
            eq = body.find(b"=", i)
            attr_name = body[i:eq].strip()
            problem = None
            if eq == -1 or _NOT_A_NAME(attr_name):
                problem = "malformed attribute"
            else:
                j = eq + 1
                while j < length and body[j] in b" \t\r\n":
                    j += 1
                close = -1
                if j >= length or body[j] not in b"\"'":
                    problem = "unquoted attribute value"
                else:
                    close = body.find(body[j : j + 1], j + 1)
                    if close == -1:
                        problem = "unterminated attribute value"
            if problem is not None:
                tag = name.decode("utf-8", "replace")
                raise XMLSyntaxError(f"{problem} in <{tag}>", position)
            attributes.append((attr_name, body[j + 1 : close]))
            i = close + 1
        if not body.isascii():
            # Names become tags; values stay bytes until read.
            _decode_name(name, position)
            for attr_name, _value in attributes:
                _decode_name(attr_name, position)
        return name, attributes

    def _have(self, size: int) -> bool:
        """Whether the window holds ``size`` bytes, refilling as needed."""
        while len(self._data) < size:
            if not self._refill():
                return False
        return True

    def _find(self, needle: bytes, start: int) -> int:
        """``bytes.find`` that refills until the needle appears or input ends."""
        end = self._data.find(needle, start)
        while end == -1:
            old_length = len(self._data)
            if not self._refill():
                return -1
            # The needle may straddle the old chunk boundary; resuming
            # there keeps one long text run linear in the refills.
            rescan_from = max(start, old_length - len(needle) + 1)
            end = self._data.find(needle, rescan_from)
        return end

    def _doctype_end(self, pos: int) -> int:
        """The ``>`` closing the DOCTYPE at ``pos`` (which may hold an
        internal subset in square brackets); -1 when input ends first."""
        depth = 0
        i = pos
        while self._have(i + 1):
            ch = self._data[i]
            if ch == 0x5B:  # ``[``
                depth += 1
            elif ch == 0x5D:  # ``]``
                depth -= 1
            elif ch == 0x3E and depth <= 0:  # ``>``
                return i
            i += 1
        return -1

    # ------------------------------------------------------------------
    # the emitters: LIVE, DEAD and COPY
    # ------------------------------------------------------------------

    def _fill(self) -> bool:
        """LIVE: scan the next batch of tokens into ``_out``.

        Returns False when the stream is exhausted (or a deferred syntax
        error is pending); True when the batch may hold tokens — possibly
        zero, when the byte budget was spent on skipped constructs.
        """
        if self._error is not None:
            return False
        self._before_batch()
        out = self._out
        out.clear()
        append = out.append
        pos = self._pos
        limit = pos + self._batch_bytes
        strip_ws = self._strip_whitespace
        open_tags = self._open_tags
        pop = open_tags.pop
        push = open_tags.append
        live_row = self._start_tags
        row = self._row
        # Rows are consulted only while ``row`` is a guide's: without a
        # guide, and inside a LIVE subtree, it is the tokenizer's own table,
        # no entry says DEAD or text-dead and one flag skips the bookkeeping.
        guided = row is not live_row
        read = self._read
        lazy_new = LazyText.__new__
        lazy_cls = LazyText
        set_raw = _SET_RAW
        more = True
        try:
            if self._dead_depth:
                # The previous batch ended inside a dead subtree.
                pos = self._emit_dead(pos, limit)
            while pos <= limit:
                construct = read(pos, open_tags[-1][0] if open_tags else None)
                kind, end, name, attributes, text = construct
                if kind == _START or kind == _LEAF:
                    entry = row.get(name)
                    if entry is None:
                        entry = self._miss(row, name)
                    child_row = live_row
                    if guided:
                        if entry is DEAD:
                            pos = self._emit_dead(pos, limit, construct)
                            continue
                        child_row = entry[5]
                        if child_row is COPY:
                            copied = self._emit_copy(pos, construct, entry)
                            if copied >= 0:
                                pos = copied
                                continue
                            child_row = None
                        if child_row is None:
                            # LIVE: no row is consulted until it closes.
                            child_row = live_row
                            guided = kind == _LEAF
                    append(entry[4])
                    if attributes:
                        self._emit_attributes(attributes, child_row)
                    if kind == _START:
                        push(entry)
                        row = child_row
                    else:
                        if text and not (strip_ws and _ws_only(text)):
                            if entry[7]:
                                append(Skipped(1, 1, 0))
                            else:
                                token = lazy_new(lazy_cls)
                                set_raw(token, text)
                                append(token)
                        append(entry[2])
                elif kind == _END:
                    entry = pop()
                    append(entry[2])
                    row = entry[6]
                    if row is None:
                        row = live_row
                    guided = row is not live_row
                elif kind == _TEXT or kind == _CDATA:
                    if not (strip_ws and _ws_only(text)):
                        if open_tags and open_tags[-1][7]:
                            append(Skipped(1, 1, 0))
                        elif kind == _TEXT:
                            # Inlined LazyText construction (``__new__``
                            # plus one slot-descriptor store, no
                            # constructor frame).
                            token = lazy_new(lazy_cls)
                            set_raw(token, text)
                            append(token)
                        else:
                            append(LazyCData(text))
                elif kind == _EOF:
                    more = False
                    break
                pos = end
        except XMLSyntaxError as error:
            # Deliver already-scanned tokens first, then the error — the
            # stream behaves exactly like the token-at-a-time oracle.
            self._attach_location(error)
            self._error = error
            self._pos = pos
            self._row = row
            return bool(out)
        self._pos = pos
        self._row = row
        return more or bool(out)

    def _emit_dead(self, pos: int, limit: int, construct: "tuple | None" = None) -> int:
        """DEAD: read one dead subtree without building it.

        Entered with the row of a start tag the guide calls :data:`DEAD`
        (or, when a batch ended inside the subtree, with none: the
        subtree's closers are still on the stack) and left behind its
        closing tag, or where the batch budget ran out.  What the unguided
        stream would have delivered leaves as one :class:`Skipped`, ahead
        of the error when the reader finds one.
        """
        strip_ws = self._strip_whitespace
        open_tags = self._open_tags
        read = self._read
        depth = self._dead_depth
        roots = 0 if depth else 1
        tokens = dropped = 0
        try:
            while pos <= limit and (depth or not tokens):
                if construct is None:
                    construct = read(pos, open_tags[-1])
                kind, pos, name, attributes, text = construct
                construct = None
                if kind == _END:
                    open_tags.pop()
                    depth -= 1
                    tokens += 1
                    continue
                if kind == _START or kind == _LEAF:
                    tokens += 1
                    dropped += 1
                    for _name, value in attributes:
                        tokens += 3 if value else 2
                        dropped += 2 if value else 1
                    if kind == _START:
                        open_tags.append(name + b">")
                        depth += 1
                        continue
                    tokens += 1
                    if not text:
                        continue
                if text is not None and not (strip_ws and _ws_only(text)):
                    tokens += 1
                    dropped += 1
        finally:
            self._dead_depth = depth
            if tokens:
                self._out.append(Skipped(tokens, dropped, roots))
        return pos

    def _emit_copy(self, pos: int, construct: tuple, entry: tuple) -> int:
        """COPY: deliver the subtree at ``pos`` as one :class:`Span`, or bail.

        Entered with the row of a start tag and its :data:`COPY` entry,
        whose interned start tag the span carries.
        What the serializer would write for the subtree's tokens is
        assembled as it is read: a run of input already in that canonical
        form stays one slice, and only what is not — ``<a></a>`` (written
        ``<a/>``), attributes (leading subelements, values re-escaped),
        text holding ``&`` or ``>``, CDATA, whitespace inside tags — is
        rewritten; comments, processing instructions and whitespace-only
        text are dropped.

        Returns the position behind the subtree, with the :class:`Span`
        appended to the batch, or -1 when the subtree cannot be copied: a
        tag or attribute named like the subtree's root (a possible nested
        match the consumer must see), a syntax error, invalid UTF-8, or no
        close within one batch budget.  Nothing is consumed then; the
        caller delivers the element LIVE from the same row, so every error
        keeps its message, offset and place in the stream.  Each byte is
        thus read at most twice, and a span never outgrows one batch.
        """
        limit = pos + self._batch_bytes
        strip_ws = self._strip_whitespace
        read = self._read
        parts: list[bytes] = []  # canonical output, in order
        put = parts.append
        run = pos  # start of the verbatim run not yet in ``parts``
        closers: list[bytes] = []  # ``b"name>"`` of the open elements
        root = construct[2]  # a nested element so named may be a match
        tokens = 0
        # Length of the canonical ``<name>`` just written while nothing has
        # followed it yet: an end tag now collapses the pair into ``<name/>``.
        pending = 0
        try:
            while True:
                kind, end, name, attributes, text = construct
                data = self._data
                rewrite = None  # what replaces the construct; b"": dropped
                if kind == _START or kind == _LEAF:
                    if closers and name == root:
                        break
                    if attributes and root in dict(attributes):
                        break
                    tokens += 1
                    for _name, value in attributes:
                        tokens += 3 if value else 2
                    pending = 0
                    if kind == _START:
                        closers.append(name + b">")
                        if attributes or end - pos != len(name) + 2:
                            rewrite = _canonical_tag(name, attributes, None)
                        if not attributes:
                            pending = len(name) + 2
                    else:
                        tokens += 1
                        if text and strip_ws and _ws_only(text):
                            text = b""
                        # Only the kernel reads a leaf with text, whose
                        # text never needs escaping.
                        if text:
                            tokens += 1
                            size = 2 * len(name) + 5 + len(text)  # <n>t</n>
                        else:
                            size = len(name) + 3  # <n/>
                        if attributes or end - pos != size:
                            rewrite = _canonical_tag(name, attributes, text)
                elif kind == _END:
                    closers.pop()
                    tokens += 1
                    if pending:
                        # ``<name>`` is the last thing written: the tail of
                        # the verbatim run, or else of the last part.
                        if run < pos:
                            if run < pos - pending:
                                put(data[run : pos - pending])
                        else:
                            parts[-1] = parts[-1][:-pending]
                        put(b"<" + name[:-1] + b"/>")
                        run = end
                        pending = 0
                    elif end - pos != len(name) + 2:
                        rewrite = b"</" + name
                elif kind == _TEXT or kind == _CDATA:
                    if strip_ws and _ws_only(text):
                        rewrite = b""
                    else:
                        tokens += 1
                        pending = 0
                        if kind == _CDATA:
                            rewrite = escape_text(text.decode("utf-8")).encode()
                        elif _NEEDS_ESCAPE(text) is not None:
                            rewrite = _canonical_text(text)
                elif kind == _SKIP:
                    rewrite = b""
                if rewrite is not None:
                    if run < pos:
                        put(data[run:pos])
                    if rewrite:
                        put(rewrite)
                    run = end
                pos = end
                if pos > limit:
                    break
                if not closers:
                    # The root closed: one span.
                    if run < pos:
                        put(data[run:pos])
                    text = b"".join(parts).decode("utf-8")
                    self._out.append(Span(text, tokens, entry[4]))
                    return pos
                construct = read(pos, closers[-1])
        except (XMLSyntaxError, UnicodeDecodeError):
            pass
        # Budget spent, or a bail above: nothing consumed.
        self._guide.copy_failed(entry)
        return -1

    def _miss(self, row: dict, name_key: bytes):
        """The entry of a tag ``row`` has not seen yet (filled in)."""
        if row is self._start_tags:
            entry = row[name_key] = scan_entry(name_key)
            return entry
        return self._guide.miss(row, name_key)

    def _emit_attributes(self, attributes: list, row: dict) -> None:
        """Deliver attributes as leading subelements, looked up in the
        element's child ``row`` like any other child."""
        append = self._out.append
        for attr_name, attr_value in attributes:
            entry = row.get(attr_name)
            if entry is None:
                entry = self._miss(row, attr_name)
            if entry is DEAD:
                append(Skipped(3, 2, 1) if attr_value else Skipped(2, 1, 1))
                continue
            if entry[5] is COPY:
                # A match spelled as an attribute has no subtree to copy.
                self._guide.copy_failed(entry)
            append(entry[4])
            if attr_value:
                append(Skipped(1, 1, 0) if entry[7] else LazyText(attr_value))
            append(entry[2])

    def _attach_location(self, error: XMLSyntaxError) -> None:
        """Give the error what lazy line/column needs: the current window
        (which contains the offending byte) and the newline counts for the
        prefix that compaction already discarded."""
        error._window = self._data
        error._window_offset = self._offset
        error._nl_before = self._nl_before
        error._last_nl_abs = self._last_nl_abs


def tokenize(
    text: "str | bytes | bytearray | memoryview",
    *,
    strip_whitespace: bool = True,
    guide: "object | None" = None,
) -> Iterator[Token]:
    """Tokenize ``text`` into a stream of :class:`~repro.xmlio.tokens.Token`.

    Accepts ``str`` (encoded once) or raw UTF-8 bytes.  With a scan
    ``guide`` (see :class:`XMLTokenizer`) dead subtrees arrive as
    :class:`~repro.xmlio.tokens.Skipped` counts.
    """
    return iter(XMLTokenizer(text, strip_whitespace=strip_whitespace, guide=guide))
