"""A streaming XML tokenizer that scans raw UTF-8 bytes.

The tokenizer is the lowest layer of the GCX architecture (Figure 11): the
stream preprojector pulls tokens from it one at a time, so the tokenizer must
never materialize the whole document.  It is deliberately written from
scratch (no ``xml.sax``) so the repository is self-contained and the token
boundaries match the paper's stream model exactly.

Bytes-domain hot path (see docs/PERFORMANCE.md)
-----------------------------------------------
The scanner operates on **bytes end to end** — ``str`` input is encoded
once up front, file input is mmap-mapped (:mod:`repro.xmlio.filelexer`) —
and decoding is deferred to the consumers that actually need characters:

* *``bytes.find`` jumps* — character data, tag bodies and skipped
  constructs are located by C-speed substring search over the raw buffer
  (an ``mmap`` works directly: it supports ``find`` and slicing), never by
  per-character stepping.  Every markup delimiter is ASCII, so a multi-byte
  UTF-8 sequence can never be split by a token boundary.
* *byte-interned tags* — ``StartTag``/``EndTag`` tokens are cached keyed by
  the **undecoded** tag slice; a tag name is UTF-8-decoded (and
  ``sys.intern``-ed, so the matcher's ``(state, tag)`` table keys share one
  cached hash) exactly once per distinct spelling per document.
* *decode-on-demand text* — character data is emitted as
  :class:`~repro.xmlio.tokens.LazyText` carrying the raw byte span; UTF-8
  decode and entity unescape run only when ``.content`` is first read,
  i.e. only for nodes that survive projection.  Skipped subtrees never pay
  ``str`` conversion at all (``text_decode_count`` proves it).
* *batch scanning* — as before the rewrite, the scanner fills token
  batches that ``next_token`` serves by index; a batch now stops after a
  byte budget (:data:`BATCH_BYTES`, or the chunk size in file mode, so the
  file-backed subclass can compact its window between batches) instead of
  a token count, which removes a length check from the per-token loop.
* *guided scan* — with a scan ``guide`` (the projection matcher's lazy
  DFA, see "Scan-time projection" in docs/PERFORMANCE.md) the scanner
  looks every start tag up in the guide's row for the enclosing element;
  a subtree the row calls DEAD is validated exactly as before — closer
  stack, attribute syntax, unterminated constructs, EOF checks — but no
  token is allocated, no text sliced and no tag interned for it, and the
  subtree is delivered as one :class:`~repro.xmlio.tokens.Skipped` count.
  A subtree the row calls :data:`COPY` (the schema-certified runner's
  ``{$x}`` matches) is validated the same way and delivered as one
  :class:`~repro.xmlio.tokens.Span` of its canonical output text — or
  LIVE, when it cannot be copied.  Without a guide the tokenizer is the
  same scanner with nothing to skip.

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
_BANG = 0x21  # ``!``
_QMARK = 0x3F  # ``?``

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


#: One C-level scan for ASCII whitespace inside a tag body.  (``b" " in
#: body`` looks cheaper but is ~6x slower than the str equivalent on
#: CPython, which is exactly the kind of regression a bytes rewrite
#: invites; a single compiled-pattern search beats four of them.)
_WS_SEARCH = re.compile(rb"[ \t\r\n]").search
#: The same scan, also stopping at a non-ASCII byte: a dead start tag whose
#: body matches has attributes or a name whose UTF-8 must be checked.
_WS_OR_HIGH_SEARCH = re.compile(rb"[ \t\r\n\x80-\xff]").search

#: An attribute name that, written as a tag, does not read back as a start
#: tag of that name: ``</x>`` is an end tag, ``<!x>`` and ``<?x>`` are
#: markup, ``<x/>`` closes itself, and whitespace ends the name.
_NO_TAG_FORM = re.compile(rb"\A[/!?]|/\Z|[ \t\r\n]").search


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

#: Character data the serializer would not write back byte for byte: an
#: entity reference (``&``) or a ``>`` it escapes.
_NEEDS_ESCAPE = re.compile(rb"[&>]").search
#: The same for attribute values, which may also hold a raw ``<``.
_VALUE_NEEDS_ESCAPE = re.compile(rb"[&<>]").search


def scan_entry(
    name_key: bytes,
    child_row: "dict | None" = None,
    parent_row: "dict | None" = None,
    text_dead: bool = False,
) -> tuple:
    """Build the row entry of one tag spelling (interned once per row).

    A *row* maps the undecoded tag name to what the scanner needs when it
    meets that tag in a given context, as one flat tuple:

    0. ``b"name>"`` and 1. its length — the *closer*: the end-tag fast path
       compares upcoming bytes against it, so one ``bytes.__eq__`` both
       resolves the token and proves the match.  A guide's LIVE entry has
       no closer: its end tag takes the slow path, which is where the
       scanner goes back to consulting rows;
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
    live = (child_row is None or child_row is COPY) and parent_row is not None
    return (
        None if live else name_key + b">",
        len(name_key) + 1,
        EndTag(tag),
        tag,
        StartTag(tag),
        child_row,
        parent_row,
        text_dead,
    )


def _decode_name(name: bytes, position: int) -> str:
    """A tag or attribute name, decoded; an :class:`XMLSyntaxError` at
    ``position`` when it is not UTF-8.  Every route checks every name, a
    dead subtree's too, so a name fails alike however it is scanned."""
    try:
        return name.decode("utf-8")
    except UnicodeDecodeError:
        raise XMLSyntaxError("tag name is not UTF-8", position) from None


def _recanonical(raw: bytes) -> bytes:
    """Character data as the serializer writes it: unescaped, re-escaped."""
    return escape_text(unescape_text(raw.decode("utf-8"))).encode("utf-8")


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
        ``copy_failed()``, called whenever such a subtree arrives LIVE.
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
        # while a dead subtree is being validated, the bare ``b"</name>"``
        # closer of each dead one (``_dead_depth`` of them).
        self._open_tags: list = []
        self._dead_depth = 0
        self._seen_root = False
        self._done = False
        # Batch machinery: tokens are scanned a batch at a time into
        # ``_out`` and served by index.  ``_batch_bytes`` caps how far one
        # batch may advance (the file subclass sets it to the chunk size so
        # compaction keeps up with scanning).
        self._out: list[Token] = []
        self._out_pos = 0
        self._batch_bytes = BATCH_BYTES
        self._error: XMLSyntaxError | None = None
        # Interning tables keyed by the *undecoded* tag slice: one token
        # object — and one UTF-8 decode — per distinct tag spelling.
        # ``_start_tags`` is the tokenizer's own row (nothing to skip);
        # ``_end_tags`` caches the slow end-tag path (whitespace spellings).
        self._start_tags: dict[bytes, tuple] = {}
        self._end_tags: dict[bytes, EndTag] = {}
        # ``b"</name>"`` per bare tag name met inside copied subtrees.
        self._copy_closers: dict[bytes, bytes] = {}
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
        # Iteration bypasses per-token method dispatch entirely: the
        # generator marks each batch served and delegates to the list
        # iterator, so the steady-state cost of one token is a generator
        # resume plus a list-iterator step.  Mixing ``next_token()`` calls
        # *into* an in-progress iteration is not supported (the engine
        # drives one or the other, never both).
        out = self._out
        pos = self._out_pos
        while pos < len(out):
            # Leftovers from earlier ``next_token()`` pulls, served first.
            self._out_pos = pos + 1
            yield out[pos]
            pos = self._out_pos
        while True:
            if not self._fill():
                if self._error is not None:
                    raise self._error
                self._finish_checks()
                return
            self._out_pos = len(self._out)
            yield from self._out

    def __next__(self) -> Token:
        # Token-at-a-time protocol for direct (non-``__iter__``) callers.
        out = self._out
        pos = self._out_pos
        if pos < len(out):
            self._out_pos = pos + 1
            return out[pos]
        token = self.next_token()
        if token is None:
            raise StopIteration
        return token

    def next_token(self) -> Token | None:
        """Return the next token, or ``None`` when the stream is exhausted."""
        out = self._out
        pos = self._out_pos
        if pos < len(out):
            self._out_pos = pos + 1
            return out[pos]
        while True:
            if not self._fill():
                if self._error is not None:
                    raise self._error
                self._finish_checks()
                return None
            if self._out:
                self._out_pos = 1
                return self._out[0]

    # ------------------------------------------------------------------
    # scanning machinery
    # ------------------------------------------------------------------

    def _fill(self) -> bool:
        """Scan the next batch of tokens into ``_out``.

        Returns False when the stream is exhausted (or a deferred syntax
        error is pending); True when the batch may hold tokens — possibly
        zero, when the byte budget was spent on skipped constructs.
        """
        if self._error is not None:
            return False
        self._before_batch()
        out = self._out
        out.clear()
        self._out_pos = 0
        append = out.append
        data = self._data
        find = data.find
        pos = self._pos
        scan_start = pos
        limit = pos + self._batch_bytes
        offset = self._offset
        strip_ws = self._strip_whitespace
        open_tags = self._open_tags
        pop = open_tags.pop
        push = open_tags.append
        live_row = self._start_tags
        row = child_row = self._row
        # Rows are consulted only while ``row`` is a guide's: without a
        # guide, and inside a LIVE subtree, it is the tokenizer's own table,
        # no entry says DEAD or text-dead and one flag skips the bookkeeping.
        guided = row is not live_row
        end_tags = self._end_tags
        lazy_new = LazyText.__new__
        lazy_cls = LazyText
        set_raw = _SET_RAW
        dead = DEAD
        copy = COPY
        try:
            if self._dead_depth:
                # The previous batch ended inside a dead subtree.
                pos = self._scan_dead(pos, limit)
                data = self._data
                find = data.find
            while pos <= limit:
                # EAFP bounds handling: indexing past the window raises
                # instead of paying a ``pos >= n`` compare per token
                # (zero-cost try on CPython 3.11+ exception tables).
                try:
                    first_byte = data[pos]
                except IndexError:
                    self._pos = pos
                    if not self._refill():
                        break
                    data = self._data
                    find = data.find
                    continue
                if first_byte != _LT:
                    # -- character data run ------------------------------
                    end = find(b"<", pos)
                    if end == -1:
                        self._pos = pos
                        end = self._find_text_end(len(data))
                        data = self._data
                        find = data.find
                    raw = data[pos:end]
                    start = pos
                    pos = end
                    if (first_byte < 33 or first_byte >= 0xC2) and (
                        raw.isspace() or _UNICODE_WS(raw) is not None
                    ):
                        if strip_ws:
                            continue
                    elif not open_tags:
                        raise XMLSyntaxError(
                            "character data outside the root element",
                            start + offset,
                        )
                    if guided and open_tags and open_tags[-1][7]:
                        append(Skipped(1, 1, 0))
                        continue
                    # Inlined LazyText construction (``__new__`` plus one
                    # slot-descriptor store, no constructor frame): this
                    # runs once per text node in the document.
                    token = lazy_new(lazy_cls)
                    set_raw(token, raw)
                    append(token)
                    continue
                try:
                    second = data[pos + 1]
                except IndexError:
                    # ``<`` is the window's last byte: in file mode the
                    # construct continues in the next chunk.
                    self._pos = pos
                    second = self._second_byte(pos)
                    data = self._data
                    find = data.find
                if second == _SLASH:
                    # -- end tag -----------------------------------------
                    # Fast path: compare the upcoming bytes against the
                    # precomputed ``name>`` closer of the innermost open
                    # element.  A hit resolves the token, proves the match
                    # and advances — no ``find``, no name parse.
                    if open_tags:
                        closer = open_tags[-1]
                        skip = closer[1]
                        if data[pos + 2 : pos + 2 + skip] == closer[0]:
                            pop()
                            pos = pos + 2 + skip
                            append(closer[2])
                            if guided:
                                row = closer[6]
                            continue
                    # Slow path: whitespace inside the tag, a mismatch, or
                    # a chunk boundary mid-tag.
                    end = find(b">", pos)
                    if end == -1:
                        end = self._tag_end(pos, "end")
                        data = self._data
                        find = data.find
                    key = data[pos + 2 : end]
                    token = end_tags.get(key)
                    if token is None:
                        stripped = key.strip()
                        if not stripped:
                            raise XMLSyntaxError("empty end tag", pos + offset)
                        token = end_tags[key] = EndTag(
                            intern(_decode_name(stripped, pos + offset))
                        )
                    name = token.tag
                    if not open_tags:
                        raise XMLSyntaxError(
                            f"closing tag </{name}> with no open element",
                            pos + offset,
                        )
                    closer = open_tags[-1]
                    if closer[3] != name:
                        raise XMLSyntaxError(
                            f"mismatched closing tag </{name}>, "
                            f"expected </{closer[3]}>",
                            pos + offset,
                        )
                    pop()
                    row = closer[6]
                    if row is None:
                        row = live_row
                    guided = row is not live_row
                    pos = end + 1
                    append(token)
                    continue
                if second == _BANG or second == _QMARK:
                    self._pos = pos
                    end, content = self._skip_markup(pos)
                    data = self._data
                    find = data.find
                    if content is None:
                        pos = end
                        continue
                    if not open_tags:
                        raise XMLSyntaxError(
                            "character data outside the root element",
                            pos + offset,
                        )
                    pos = end
                    if strip_ws and _ws_only(content):
                        continue
                    if open_tags[-1][7]:
                        append(Skipped(1, 1, 0))
                    else:
                        append(LazyCData(content))
                    continue
                # -- start tag -------------------------------------------
                end = find(b">", pos)
                if end == -1:
                    end = self._tag_end(pos, "start")
                    data = self._data
                    find = data.find
                if data[end - 1] == _SLASH:
                    self_closing = True
                    body = data[pos + 1 : end - 1]
                else:
                    self_closing = False
                    body = data[pos + 1 : end]
                # Interned fast path: every row key is whitespace-free
                # (guarded at the insertion sites), so a hit proves the
                # body is a bare, already-seen tag name and the whitespace
                # scan and name parse can be skipped entirely.
                entry = row.get(body)
                if entry is None:
                    if _WS_SEARCH(body) is not None:
                        name_key, attributes = self._parse_tag_body(body, pos)
                    elif body:
                        name_key = body
                        attributes = ()
                    else:
                        raise XMLSyntaxError("empty start tag", pos + offset)
                    entry = row.get(name_key)
                    if entry is None:
                        _decode_name(name_key, pos + offset)
                        entry = self._miss(row, name_key)
                else:
                    attributes = ()
                if not open_tags:
                    if self._seen_root:
                        raise XMLSyntaxError(
                            "document has more than one root element",
                            pos + offset,
                        )
                    self._seen_root = True
                if guided:
                    if entry is dead:
                        # Validate the subtree without building it,
                        # re-scanned from its ``<``.
                        pos = self._scan_dead(pos, limit)
                        data = self._data
                        find = data.find
                        continue
                    child_row = entry[5]
                    if child_row is None:
                        # LIVE: no row is consulted until the element closes.
                        child_row = live_row
                        guided = self_closing
                    elif child_row is copy:
                        # Deliver the subtree as one Span, scanned from its
                        # ``<``; when it cannot be copied, LIVE from there.
                        copied = self._scan_copy(pos)
                        data = self._data
                        find = data.find
                        if copied >= 0:
                            pos = copied
                            continue
                        child_row = live_row
                        guided = self_closing
                pos = end + 1
                append(entry[4])
                if attributes:
                    self._emit_attributes(attributes, child_row)
                if self_closing:
                    append(entry[2])
                else:
                    push(entry)
                    row = child_row
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
        if out:
            return True
        # No tokens: either the stream ended, or the budget went into
        # skipped constructs / stripped whitespace and scanning continues.
        # (``pos > scan_start``: every loop iteration that saw input either
        # appended a token or advanced the scan position.)
        return pos > scan_start and (pos < len(self._data) or not self._at_eof())

    def _scan_dead(self, pos: int, limit: int) -> int:
        """Validate one dead subtree without building it.

        Entered at the ``<`` of a start tag the row calls :data:`DEAD` (or,
        when a batch ended inside the subtree, wherever it stopped) and
        left behind its closing tag, or where the batch budget ran out.
        Every check of the delivering loop is kept — closer stack and
        end-tag match, attribute syntax, unterminated constructs,
        whitespace-only classification, refills — but no token is
        allocated, no text sliced and no tag interned: what the unguided
        stream would have delivered leaves as one :class:`Skipped`, ahead
        of the error when a check fails.
        """
        data = self._data
        find = data.find
        offset = self._offset
        strip_ws = self._strip_whitespace
        open_tags = self._open_tags
        depth = self._dead_depth
        roots = 0 if depth else 1
        tokens = dropped = 0
        try:
            while pos <= limit and (depth or not tokens):
                try:
                    first_byte = data[pos]
                except IndexError:
                    self._pos = pos
                    if not self._refill():
                        break
                    data = self._data
                    find = data.find
                    continue
                if first_byte != _LT:
                    end = find(b"<", pos)
                    if end == -1:
                        self._pos = pos
                        end = self._find_text_end(len(data))
                        data = self._data
                        find = data.find
                    if not (
                        strip_ws
                        and (first_byte < 33 or first_byte >= 0xC2)
                        and _ws_only(data[pos:end])
                    ):
                        tokens += 1
                        dropped += 1
                    pos = end
                    continue
                try:
                    second = data[pos + 1]
                except IndexError:
                    self._pos = pos
                    second = self._second_byte(pos)
                    data = self._data
                    find = data.find
                if second == _SLASH:
                    closer = open_tags[-1]  # ``b"</name>"``
                    skip = len(closer)
                    if data[pos : pos + skip] == closer:
                        pos = pos + skip
                    else:
                        end = find(b">", pos)
                        if end == -1:
                            end = self._tag_end(pos, "end")
                            data = self._data
                            find = data.find
                        key = data[pos + 2 : end].strip()
                        if not key:
                            raise XMLSyntaxError("empty end tag", pos + offset)
                        if key != closer[2:-1]:
                            raise XMLSyntaxError(
                                "mismatched closing tag "
                                f"</{_decode_name(key, pos + offset)}>"
                                f", expected {closer.decode('utf-8')}",
                                pos + offset,
                            )
                        pos = end + 1
                    open_tags.pop()
                    depth -= 1
                    tokens += 1
                    continue
                if second == _BANG or second == _QMARK:
                    self._pos = pos
                    pos, content = self._skip_markup(pos)
                    data = self._data
                    find = data.find
                    if content is not None and not (
                        strip_ws and _ws_only(content)
                    ):
                        tokens += 1
                        dropped += 1
                    continue
                end = find(b">", pos)
                if end == -1:
                    end = self._tag_end(pos, "start")
                    data = self._data
                    find = data.find
                if data[end - 1] == _SLASH:
                    self_closing = True
                    body = data[pos + 1 : end - 1]
                else:
                    self_closing = False
                    body = data[pos + 1 : end]
                if _WS_OR_HIGH_SEARCH(body) is None:
                    if not body:
                        raise XMLSyntaxError("empty start tag", pos + offset)
                elif _WS_SEARCH(body) is None:
                    _decode_name(body, pos + offset)
                else:
                    body, attributes = self._parse_tag_body(body, pos)
                    for _name, value in attributes:
                        if value:
                            tokens += 3
                            dropped += 2
                        else:
                            tokens += 2
                            dropped += 1
                tokens += 1
                dropped += 1
                pos = end + 1
                if self_closing:
                    tokens += 1
                    continue
                closer = b"</" + body + b">"
                # Leaf fast path: ``<name>text</name>`` inside the window
                # closes in the same step — no push, no pop.
                end = find(b"<", pos)
                if end != -1 and data[end : end + len(closer)] == closer:
                    if end > pos and not (
                        strip_ws
                        and (data[pos] < 33 or data[pos] >= 0xC2)
                        and _ws_only(data[pos:end])
                    ):
                        tokens += 1
                        dropped += 1
                    tokens += 1
                    pos = end + len(closer)
                else:
                    open_tags.append(closer)
                    depth += 1
        finally:
            self._dead_depth = depth
            if tokens:
                self._out.append(Skipped(tokens, dropped, roots))
        return pos

    def _scan_copy(self, pos: int) -> int:
        """Deliver the subtree at ``pos`` as one :class:`Span`, or bail.

        Entered at the ``<`` of a start tag whose entry is :data:`COPY`.
        The subtree is validated like a dead one, and what the serializer
        would write for its tokens is assembled as it goes: a run of input
        that is already in that canonical form stays one slice, and only
        what is not — ``<a></a>`` (written ``<a/>``), attributes (leading
        subelements, values unescaped and re-escaped), text holding ``&``
        or ``>``, CDATA, whitespace inside tags — is rewritten; comments,
        processing instructions and whitespace-only text are dropped.

        Returns the position behind the subtree, with the :class:`Span`
        appended to the batch, or -1 when the subtree cannot be copied: a
        tag or attribute named like the subtree's root (a possible nested
        match the consumer must see), a syntax error, invalid UTF-8, or no
        close within one batch budget.  Nothing is consumed then; the
        caller delivers the element LIVE from ``pos``, so every error keeps
        its message, offset and place in the stream.  Each byte is thus
        scanned at most twice, and a span never outgrows one batch.
        """
        data = self._data
        find = data.find
        limit = pos + self._batch_bytes
        strip_ws = self._strip_whitespace
        known = self._copy_closers
        parts: list[bytes] = []  # canonical output, in order
        put = parts.append
        run = pos  # start of the verbatim run not yet in ``parts``
        closers: list[bytes] = []  # ``b"</name>"`` of the open elements
        root = None  # the subtree root's name: a nested match to avoid
        tokens = 0
        # Length of the canonical ``<name>`` just written while nothing has
        # followed it yet: an end tag now collapses the pair into ``<name/>``.
        pending = 0
        try:
            while pos <= limit:
                try:
                    first_byte = data[pos]
                except IndexError:
                    if not self._refill():
                        break
                    data = self._data
                    find = data.find
                    continue
                if first_byte != _LT:
                    end = find(b"<", pos)
                    if end == -1:
                        end = self._find_text_end(len(data))
                        data = self._data
                        find = data.find
                    if (
                        strip_ws
                        and (first_byte < 33 or first_byte >= 0xC2)
                        and _ws_only(data[pos:end])
                    ):
                        if run < pos:
                            put(data[run:pos])
                        run = pos = end
                        continue
                    tokens += 1
                    pending = 0
                    if _NEEDS_ESCAPE(data, pos, end) is not None:
                        if run < pos:
                            put(data[run:pos])
                        put(_recanonical(data[pos:end]))
                        run = end
                    pos = end
                    continue
                try:
                    second = data[pos + 1]
                except IndexError:
                    self._pos = pos
                    second = self._second_byte(pos)
                    data = self._data
                    find = data.find
                if second == _SLASH:
                    closer = closers[-1]
                    skip = len(closer)
                    if data[pos : pos + skip] == closer:
                        end = pos + skip
                        rewrite = False
                    else:
                        end = find(b">", pos)
                        if end == -1:
                            end = self._tag_end(pos, "end")
                            data = self._data
                            find = data.find
                        if data[pos + 2 : end].strip() != closer[2:-1]:
                            break  # mismatched or empty: LIVE reports it
                        end += 1
                        rewrite = True
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
                        put(b"<" + closer[2:-1] + b"/>")
                        run = end
                        pending = 0
                    elif rewrite:
                        if run < pos:
                            put(data[run:pos])
                        put(closer)
                        run = end
                    pos = end
                elif second == _BANG or second == _QMARK:
                    end, content = self._skip_markup(pos)
                    data = self._data
                    find = data.find
                    if run < pos:
                        put(data[run:pos])
                    run = end
                    if content is not None and not (
                        strip_ws and _ws_only(content)
                    ):
                        tokens += 1
                        pending = 0
                        put(escape_text(content.decode("utf-8")).encode("utf-8"))
                    pos = end
                    continue
                else:
                    end = find(b">", pos)
                    if end == -1:
                        end = self._tag_end(pos, "start")
                        data = self._data
                        find = data.find
                    if data[end - 1] == _SLASH:
                        self_closing = True
                        body = data[pos + 1 : end - 1]
                    else:
                        self_closing = False
                        body = data[pos + 1 : end]
                    tokens += 1
                    pending = 0
                    # A bare name, written as is: ``known`` holds the closer
                    # of each one seen (a hit proves the body bare).
                    closer = known.get(body)
                    if closer is None and body and _WS_SEARCH(body) is None:
                        closer = known[body] = b"</" + body + b">"
                    if closer is not None:
                        if root is None:
                            root = body
                        elif body == root:
                            break  # a nested match: the consumer must see it
                        start = pos
                        pos = end + 1
                        if self_closing:
                            tokens += 1
                        else:
                            # Leaf fast path: ``<name>text</name>`` in one
                            # step, no push, no pop.
                            skip = len(closer)
                            end = find(b"<", pos)
                            if end == -1 or data[end : end + skip] != closer:
                                closers.append(closer)
                                pending = skip - 1
                            else:
                                tokens += 1
                                if end > pos and not (
                                    strip_ws
                                    and (data[pos] < 33 or data[pos] >= 0xC2)
                                    and _ws_only(data[pos:end])
                                ):
                                    tokens += 1
                                    if _NEEDS_ESCAPE(data, pos, end) is not None:
                                        if run < pos:
                                            put(data[run:pos])
                                        put(_recanonical(data[pos:end]))
                                        run = end
                                else:  # no content: written ``<name/>``
                                    if run < start:
                                        put(data[run:start])
                                    put(b"<" + body + b"/>")
                                    run = end + skip
                                pos = end + skip
                    else:
                        name, attributes = self._parse_tag_body(body, pos)
                        if root is None:
                            root = name
                        elif name == root:
                            break
                        rewritten = self._canonical_start(name, attributes, root)
                        if rewritten is None:
                            break
                        tag, attribute_tokens = rewritten
                        tokens += attribute_tokens
                        if run < pos:
                            put(data[run:pos])
                        run = end + 1
                        if self_closing:
                            tokens += 1
                            if attribute_tokens:
                                put(tag + b"</" + name + b">")
                            else:
                                put(b"<" + name + b"/>")
                        else:
                            put(tag)
                            closers.append(b"</" + name + b">")
                            if not attribute_tokens:
                                pending = len(name) + 2
                        pos = end + 1
                if not closers:
                    # The root closed: a span, unless it outgrew the batch.
                    if pos > limit:
                        break
                    if run < pos:
                        put(data[run:pos])
                    self._out.append(Span(b"".join(parts).decode("utf-8"), tokens))
                    return pos
        except (XMLSyntaxError, UnicodeDecodeError):
            pass
        # Budget spent, input ended, or a bail above: nothing consumed.
        self._guide.copy_failed()
        return -1

    def _canonical_start(
        self, name: bytes, attributes: list, root: bytes
    ) -> "tuple[bytes, int] | None":
        """A rewritten start tag as the serializer writes it — attributes
        as leading subelements — and the tokens those add; ``None`` when it
        cannot be copied (an attribute named like the root would be a
        nested match; an empty name, or one with no tag form, has no
        canonical form)."""
        chunks = [b"<", name, b">"]
        tokens = 0
        for attr_name, value in attributes:
            if attr_name == root or not attr_name or _NO_TAG_FORM(attr_name):
                return None
            if value:
                tokens += 3
                if _VALUE_NEEDS_ESCAPE(value) is not None:
                    value = _recanonical(value)
                chunks += (b"<", attr_name, b">", value, b"</", attr_name, b">")
            else:
                tokens += 2
                chunks += (b"<", attr_name, b"/>")
        return b"".join(chunks), tokens

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
                # Pathological attr names (empty, or containing whitespace)
                # stay uncached and delivered: the start-tag fast path
                # relies on row keys being bare names.
                if attr_name and _WS_SEARCH(attr_name) is None:
                    entry = self._miss(row, attr_name)
                else:
                    entry = scan_entry(attr_name)
            if entry is DEAD:
                append(Skipped(3, 2, 1) if attr_value else Skipped(2, 1, 1))
                continue
            if entry[5] is COPY:
                # A match spelled as an attribute has no subtree to copy.
                self._guide.copy_failed()
            append(entry[4])
            if attr_value:
                append(Skipped(1, 1, 0) if entry[7] else LazyText(attr_value))
            append(entry[2])

    def _find_text_end(self, searched: int) -> int:
        """The next ``<`` past the first ``searched`` bytes of the window,
        refilling as needed; the end of input when there is none."""
        while self._refill():
            # Resume the search where the old data ended: rescanning from
            # the run's start would make one long text run quadratic in the
            # number of refills.
            end = self._data.find(b"<", searched)
            if end != -1:
                return end
            searched = len(self._data)
        return len(self._data)

    def _tag_end(self, pos: int, kind: str) -> int:
        """The ``>`` of the tag at ``pos`` once a later chunk holds it."""
        self._pos = pos
        end = self._find(b">", pos)
        if end == -1:
            raise XMLSyntaxError(f"unterminated {kind} tag", pos + self._offset)
        return end

    def _second_byte(self, pos: int) -> int:
        """The byte after the ``<`` at ``pos`` once the next chunk holds
        it; -1 when the input ends there."""
        while pos + 1 >= len(self._data) and self._refill():
            pass
        data = self._data
        return data[pos + 1] if pos + 1 < len(data) else -1

    def _skip_markup(self, pos: int) -> "tuple[int, bytes | None]":
        """Skip the ``<!…``/``<?…`` construct at ``pos``.

        Returns where it ends and, for a CDATA section, its content
        (comments, processing instructions and DOCTYPE yield ``None``).
        """
        offset = self._offset
        # Make the construct kind decidable even when a chunk boundary
        # splits the prefix (longest is ``<![CDATA[``).
        while len(self._data) - pos < 9 and self._refill():
            pass
        data = self._data
        if data[pos : pos + 4] == b"<!--":
            end = self._find(b"-->", pos)
            if end == -1:
                raise XMLSyntaxError(
                    "unterminated construct, expected '-->'", pos + offset
                )
            return end + 3, None
        if data[pos : pos + 9] == b"<![CDATA[":
            end = self._find(b"]]>", pos)
            if end == -1:
                raise XMLSyntaxError("unterminated CDATA section", pos + offset)
            return end + 3, self._data[pos + 9 : end]
        if data[pos + 1] == _QMARK:
            end = self._find(b"?>", pos)
            if end == -1:
                raise XMLSyntaxError(
                    "unterminated construct, expected '?>'", pos + offset
                )
            return end + 2, None
        return self._skip_doctype(pos), None

    def _at_eof(self) -> bool:
        return not self._refill()

    def _find(self, needle: bytes, start: int) -> int:
        """``bytes.find`` that refills until the needle appears or input ends."""
        end = self._data.find(needle, start)
        while end == -1:
            old_length = len(self._data)
            if not self._refill():
                return -1
            # The needle may straddle the old chunk boundary.
            rescan_from = max(start, old_length - len(needle) + 1)
            end = self._data.find(needle, rescan_from)
        return end

    def _skip_doctype(self, pos: int) -> int:
        # DOCTYPE may contain an internal subset in square brackets.
        depth = 0
        i = pos
        while True:
            while i >= len(self._data):
                if not self._refill():
                    raise XMLSyntaxError(
                        "unterminated <!DOCTYPE ...> clause", pos + self._offset
                    )
            ch = self._data[i]
            if ch == 0x5B:  # ``[``
                depth += 1
            elif ch == 0x5D:  # ``]``
                depth -= 1
            elif ch == 0x3E and depth <= 0:  # ``>``
                return i + 1
            i += 1

    def _parse_tag_body(
        self, body: bytes, pos: int
    ) -> tuple[bytes, list[tuple[bytes, bytes]]]:
        body = body.strip()
        if not body:
            raise XMLSyntaxError("empty start tag", pos + self._offset)
        i = 0
        length = len(body)
        while i < length and body[i] not in b" \t\r\n":
            i += 1
        name = body[:i]
        attributes: list[tuple[bytes, bytes]] = []
        while i < length:
            while i < length and body[i] in b" \t\r\n":
                i += 1
            if i >= length:
                break
            eq = body.find(b"=", i)
            if eq == -1:
                raise XMLSyntaxError(
                    "malformed attribute in "
                    f"<{name.decode('utf-8', 'replace')}>",
                    pos + self._offset,
                )
            attr_name = body[i:eq].strip()
            j = eq + 1
            while j < length and body[j] in b" \t\r\n":
                j += 1
            if j >= length or body[j] not in b"\"'":
                raise XMLSyntaxError(
                    "unquoted attribute value in "
                    f"<{name.decode('utf-8', 'replace')}>",
                    pos + self._offset,
                )
            quote = body[j]
            close = body.find(quote, j + 1)
            if close == -1:
                raise XMLSyntaxError(
                    "unterminated attribute value in "
                    f"<{name.decode('utf-8', 'replace')}>",
                    pos + self._offset,
                )
            attributes.append((attr_name, body[j + 1 : close]))
            i = close + 1
        if not body.isascii():
            # Names become tags; values stay bytes until read.
            position = pos + self._offset
            _decode_name(name, position)
            for attr_name, _value in attributes:
                _decode_name(attr_name, position)
        return name, attributes

    def _finish_checks(self) -> None:
        if self._done:
            return
        self._done = True
        # ``_pos`` is window-relative in chunked file mode; add the
        # compacted-away prefix so positions stay document-absolute.
        position = self._pos + self._offset
        if self._open_tags:
            top = self._open_tags[-1]
            # A delivered element's entry, or a dead one's bare closer.
            name = top[2:-1].decode("utf-8") if isinstance(top, bytes) else top[3]
            error = XMLSyntaxError(
                f"input exhausted with unclosed element <{name}>", position
            )
            self._attach_location(error)
            raise error
        if not self._seen_root:
            error = XMLSyntaxError("document has no root element", position)
            self._attach_location(error)
            raise error

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
