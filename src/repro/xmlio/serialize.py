"""Serialization of token streams — buffered and incremental.

Query results in GCX are produced as token streams; this module renders
them as document text.  Empty elements are rendered as bachelor tags
(``<a/>``), matching the notation used throughout the paper (e.g.
``<title/>`` in Figure 2).

The module is organized around three layers:

* :class:`IncrementalSerializer` — the token-to-text state machine.  It is
  *incremental*: each token fed in returns the text fragment it completes,
  so a streaming consumer sees output bytes as soon as the one-token
  bachelor-tag lookahead allows.
* :class:`TokenSink` — the protocol a caller drains a run's output tokens
  into.  Two implementations ship: :class:`StringSink` (accumulate
  everything; the classic buffered result) and :class:`WriterSink`
  (serialize incrementally to any writable, e.g. ``sys.stdout`` — this is
  what gives ``gcx run`` bounded-memory output).
* module functions — :func:`serialize_tokens` (joined string) and
  :func:`serialize_stream` (generator of text fragments).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.xmlio.lexer import tokenize
from repro.xmlio.tokens import EndTag, Span, StartTag, Text, Token, escape_text

__all__ = [
    "serialize_tokens",
    "serialize_stream",
    "IncrementalSerializer",
    "TokenSink",
    "StringSink",
    "WriterSink",
]


def serialize_tokens(tokens: Iterable[Token], *, indent: str | None = None) -> str:
    """Render a token stream as text.

    With ``indent`` set (e.g. ``"  "``), output is pretty-printed with one
    element per line; text content suppresses pretty-printing inside its
    parent to avoid changing the document's string values.
    """
    return "".join(serialize_stream(tokens, indent=indent))


def serialize_stream(
    tokens: Iterable[Token], *, indent: str | None = None
) -> Iterator[str]:
    """Render a token stream as an iterator of text fragments.

    The lazy counterpart of :func:`serialize_tokens`: fragments are yielded
    as soon as the bachelor-tag lookahead resolves, so joining a prefix of
    the iterator gives a well-formed prefix of the final text.  This is the
    serialization path of ``GCXEngine.run_streaming`` and the streaming CLI.
    """
    serializer = IncrementalSerializer(indent=indent)
    for token in tokens:
        fragment = serializer.feed(token)
        if fragment:
            yield fragment
    tail = serializer.flush()
    if tail:
        yield tail


class IncrementalSerializer:
    """Token-to-text state machine with bachelor-tag lookahead.

    A one-token lookahead collapses ``<a></a>`` into ``<a/>``; consequently
    :meth:`feed` may return the empty string for a ``StartTag`` (the text is
    withheld until the next token decides between ``<a>`` and ``<a/>``).
    Call :meth:`flush` once the stream ends to release a trailing pending
    start tag.
    """

    def __init__(self, *, indent: str | None = None) -> None:
        self._pending_start: str | None = None
        self._indent = indent
        self._depth = 0
        self._started = False

    def feed(self, token: Token) -> str:
        """Consume one token, returning the text fragment it completes."""
        if isinstance(token, StartTag):
            fragment = self._release_pending()
            self._pending_start = token.tag
            return fragment
        if isinstance(token, EndTag):
            if self._pending_start == token.tag:
                self._pending_start = None
                return self._format(f"<{token.tag}/>")
            fragment = self._release_pending()
            self._depth = max(0, self._depth - 1)
            return fragment + self._format(f"</{token.tag}>")
        if isinstance(token, Text):
            fragment = self._release_pending()
            escaped = escape_text(token.content)
            if escaped:
                self._started = True
            return fragment + escaped
        if isinstance(token, Span):
            # A subtree the scanner already wrote in this serializer's
            # canonical form; pretty-printing replays its tokens instead
            # (whitespace kept: a span only holds what the output has).
            if self._indent is not None:
                replayed = tokenize(token.text, strip_whitespace=False)
                return "".join(map(self.feed, replayed))
            self._started = True
            return self._release_pending() + token.text
        raise TypeError(f"cannot serialize {token!r}")

    def flush(self) -> str:
        """Release a pending start tag at end of stream (``<a>`` stays open)."""
        return self._release_pending()

    def _release_pending(self) -> str:
        if self._pending_start is None:
            return ""
        fragment = self._format(f"<{self._pending_start}>")
        self._depth += 1
        self._pending_start = None
        return fragment

    def _format(self, fragment: str) -> str:
        if self._indent is not None:
            prefix = "\n" + self._indent * self._depth if self._started else ""
            self._started = True
            return prefix + fragment
        self._started = True
        return fragment


class TokenSink:
    """The protocol a run's output tokens are drained into.

    Implementations receive one :class:`~repro.xmlio.tokens.Token` per
    :meth:`write` call, in document order; :meth:`close` is called (by
    owners that manage the sink's lifecycle, e.g. ``GCXEngine.run``) when
    the result stream is complete, so buffering implementations can flush.
    Subclasses must implement :meth:`write`; :meth:`close` defaults to a
    no-op.
    """

    def write(self, token: Token) -> None:
        raise NotImplementedError

    def write_all(self, tokens: Iterable[Token]) -> None:
        for token in tokens:
            self.write(token)

    def close(self) -> None:
        """The result stream is complete; flush any buffered state."""


class StringSink(TokenSink):
    """A sink that accumulates the fully serialized text in memory.

    The classic buffered result: ``getvalue()`` after the run returns the
    whole output.  Prefer :class:`WriterSink` (or ``run_streaming``) when
    the result may be large — this sink's memory is proportional to the
    output size by construction.
    """

    def __init__(self, *, indent: str | None = None) -> None:
        self._serializer = IncrementalSerializer(indent=indent)
        self._parts: list[str] = []
        self._token_count = 0

    @property
    def token_count(self) -> int:
        """Number of tokens written so far (used by tests and traces)."""
        return self._token_count

    def write(self, token: Token) -> None:
        self._token_count += 1
        fragment = self._serializer.feed(token)
        if fragment:
            self._parts.append(fragment)

    def getvalue(self) -> str:
        """The text serialized so far (flushing any pending start tag)."""
        tail = self._serializer.flush()
        if tail:
            self._parts.append(tail)
        return "".join(self._parts)


class WriterSink(TokenSink):
    """A sink that serializes incrementally to a writable object.

    ``writable`` is anything with a ``write(str)`` method — an open text
    file, ``sys.stdout``, a socket wrapper.  Fragments are written as soon
    as the lookahead resolves, so the memory held by the sink is O(1)
    regardless of result size: this is the output half of the paper's
    constant-memory claim, complementing the buffer bound on the input
    half.  The CLI's ``gcx run`` streams through this sink.
    """

    def __init__(self, writable, *, indent: str | None = None) -> None:
        self._writable = writable
        self._serializer = IncrementalSerializer(indent=indent)
        self._bytes_written = 0

    @property
    def chars_written(self) -> int:
        """Number of characters written to the underlying writable."""
        return self._bytes_written

    def write(self, token: Token) -> None:
        fragment = self._serializer.feed(token)
        if fragment:
            self._writable.write(fragment)
            self._bytes_written += len(fragment)

    def close(self) -> None:
        tail = self._serializer.flush()
        if tail:
            self._writable.write(tail)
            self._bytes_written += len(tail)
