"""The pre-optimization tokenizer, kept as a differential oracle.

This is the character-stepping tokenizer that :mod:`repro.xmlio.lexer`
replaced with a chunk-scanning implementation.  It lives under ``tests/``
and serves one purpose: the differential tests assert that the shipped
tokenizer emits a byte-identical token stream over the XMark corpus,
adversarial inputs and hypothesis-generated documents
(``tests/xmlio/test_differential_lexer.py``).

The class and function names carry a ``Reference`` prefix so the two
implementations cannot be confused at call sites.
"""

from __future__ import annotations

from typing import Iterator

from repro.xmlio.lexer import XMLSyntaxError
from repro.xmlio.tokens import EndTag, StartTag, Text, Token, unescape_text

__all__ = ["ReferenceTokenizer", "reference_tokenize"]

_WHITESPACE = " \t\r\n"


class ReferenceTokenizer:
    """Incrementally tokenize an XML document held in a string.

    The tokenizer checks well-formedness of tag nesting as it goes and
    raises :class:`XMLSyntaxError` on mismatched or dangling tags.

    Parameters
    ----------
    text:
        The document text.
    strip_whitespace:
        When true (the default), text tokens consisting purely of whitespace
        between elements are dropped.  XMark documents carry no meaningful
        inter-element whitespace, and the paper's data model has no notion of
        ignorable whitespace either.
    convert_attributes:
        When true (the default), attributes are emitted as leading
        subelements in document order: ``<a x="1">`` becomes
        ``<a><x>1</x>...``.  This mirrors the paper's benchmark adaptation.
    """

    def __init__(
        self,
        text: str,
        *,
        strip_whitespace: bool = True,
        convert_attributes: bool = True,
    ) -> None:
        self._text = text
        self._pos = 0
        self._offset = 0  # characters discarded by compaction (file mode)
        self._strip_whitespace = strip_whitespace
        self._convert_attributes = convert_attributes
        self._open_tags: list[str] = []
        self._pending: list[Token] = []
        self._seen_root = False
        self._done = False

    def _refill(self) -> bool:
        """Ask for more input.  The in-memory tokenizer has none; the
        file-backed subclass appends the next chunk and returns True."""
        return False

    def __iter__(self) -> Iterator[Token]:
        return self

    def __next__(self) -> Token:
        token = self.next_token()
        if token is None:
            raise StopIteration
        return token

    def next_token(self) -> Token | None:
        """Return the next token, or ``None`` when the stream is exhausted."""
        if self._pending:
            return self._pending.pop(0)
        while True:
            token = self._scan()
            if token is None:
                self._finish_checks()
                return None
            if (
                self._strip_whitespace
                and isinstance(token, Text)
                and not token.content.strip()
            ):
                continue
            return token

    # ------------------------------------------------------------------
    # scanning machinery
    # ------------------------------------------------------------------

    def _scan(self) -> Token | None:
        while self._pos >= len(self._text):
            if not self._refill():
                return None
        text, pos = self._text, self._pos
        if text[pos] != "<":
            end = text.find("<", pos)
            while end == -1 and self._refill():
                text = self._text
                end = text.find("<", pos)
            if end == -1:
                end = len(text)
            raw = text[pos:end]
            self._pos = end
            if not self._open_tags and raw.strip():
                raise XMLSyntaxError(
                    "character data outside the root element", pos + self._offset
                )
            return Text(unescape_text(raw))
        # A markup construct starts here.  Ensure the construct kind is
        # decidable even when a chunk boundary splits the prefix.
        while len(self._text) - pos < 9 and self._refill():
            pass
        text = self._text
        if text.startswith("<!--", pos):
            return self._skip_until("-->", pos)
        if text.startswith("<![CDATA[", pos):
            return self._scan_cdata(pos)
        if text.startswith("<?", pos):
            return self._skip_until("?>", pos)
        if text.startswith("<!", pos):
            return self._skip_doctype(pos)
        if text.startswith("</", pos):
            return self._scan_end_tag(pos)
        return self._scan_start_tag(pos)

    def _find(self, needle: str, start: int) -> int:
        """``str.find`` that refills until the needle appears or input ends."""
        end = self._text.find(needle, start)
        while end == -1:
            old_length = len(self._text)
            if not self._refill():
                return -1
            # The needle may straddle the old chunk boundary.
            rescan_from = max(start, old_length - len(needle) + 1)
            end = self._text.find(needle, rescan_from)
        return end

    def _skip_until(self, terminator: str, pos: int) -> Token | None:
        end = self._find(terminator, pos)
        if end == -1:
            raise XMLSyntaxError(
                f"unterminated construct, expected {terminator!r}", pos + self._offset
            )
        self._pos = end + len(terminator)
        return self._scan()

    def _scan_cdata(self, pos: int) -> Token:
        end = self._find("]]>", pos)
        if end == -1:
            raise XMLSyntaxError("unterminated CDATA section", pos + self._offset)
        content = self._text[pos + len("<![CDATA[") : end]
        self._pos = end + len("]]>")
        if not self._open_tags:
            raise XMLSyntaxError(
                "character data outside the root element", pos + self._offset
            )
        return Text(content)

    def _skip_doctype(self, pos: int) -> Token | None:
        # DOCTYPE may contain an internal subset in square brackets.
        depth = 0
        i = pos
        while True:
            while i >= len(self._text):
                if not self._refill():
                    raise XMLSyntaxError(
                        "unterminated <!DOCTYPE ...> clause", pos + self._offset
                    )
            ch = self._text[i]
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == ">" and depth <= 0:
                self._pos = i + 1
                return self._scan()
            i += 1

    def _scan_end_tag(self, pos: int) -> Token:
        end = self._find(">", pos)
        if end == -1:
            raise XMLSyntaxError("unterminated end tag", pos + self._offset)
        name = self._text[pos + 2 : end].strip()
        if not name:
            raise XMLSyntaxError("empty end tag", pos + self._offset)
        self._pos = end + 1
        if not self._open_tags:
            raise XMLSyntaxError(
                f"closing tag </{name}> with no open element", pos + self._offset
            )
        expected = self._open_tags.pop()
        if expected != name:
            raise XMLSyntaxError(
                f"mismatched closing tag </{name}>, expected </{expected}>",
                pos + self._offset,
            )
        return EndTag(name)

    def _scan_start_tag(self, pos: int) -> Token:
        end = self._find(">", pos)
        if end == -1:
            raise XMLSyntaxError("unterminated start tag", pos + self._offset)
        self._pos = end + 1
        body = self._text[pos + 1 : end]
        self_closing = body.endswith("/")
        if self_closing:
            body = body[:-1]
        name, attributes = self._parse_tag_body(body, pos)
        if self._seen_root and not self._open_tags:
            raise XMLSyntaxError(
                "document has more than one root element", pos + self._offset
            )
        self._seen_root = True
        tokens: list[Token] = [StartTag(name)]
        if self._convert_attributes:
            for attr_name, attr_value in attributes:
                tokens.append(StartTag(attr_name))
                if attr_value:
                    tokens.append(Text(attr_value))
                tokens.append(EndTag(attr_name))
        if self_closing:
            tokens.append(EndTag(name))
        else:
            self._open_tags.append(name)
        self._pending = tokens[1:]
        return tokens[0]

    def _parse_tag_body(self, body: str, pos: int) -> tuple[str, list[tuple[str, str]]]:
        body = body.strip()
        if not body:
            raise XMLSyntaxError("empty start tag", pos + self._offset)
        i = 0
        while i < len(body) and body[i] not in _WHITESPACE:
            i += 1
        name = body[:i]
        attributes: list[tuple[str, str]] = []
        while i < len(body):
            while i < len(body) and body[i] in _WHITESPACE:
                i += 1
            if i >= len(body):
                break
            eq = body.find("=", i)
            attr_name = body[i:eq].strip()
            # An attribute becomes a subelement, so its name must read back
            # as a start tag's: not empty, no whitespace, not ``/x``,
            # ``!x``, ``?x`` (an end tag, markup) or ``x/`` (self-closing).
            if (
                eq == -1
                or not attr_name
                or any(ch in _WHITESPACE for ch in attr_name)
                or attr_name[0] in "/!?"
                or attr_name.endswith("/")
            ):
                raise XMLSyntaxError(f"malformed attribute in <{name}>", pos)
            j = eq + 1
            while j < len(body) and body[j] in _WHITESPACE:
                j += 1
            if j >= len(body) or body[j] not in "\"'":
                raise XMLSyntaxError(f"unquoted attribute value in <{name}>", pos)
            quote = body[j]
            close = body.find(quote, j + 1)
            if close == -1:
                raise XMLSyntaxError(f"unterminated attribute value in <{name}>", pos)
            attributes.append((attr_name, unescape_text(body[j + 1 : close])))
            i = close + 1
        return name, attributes

    def _finish_checks(self) -> None:
        if self._done:
            return
        self._done = True
        if self._open_tags:
            raise XMLSyntaxError(
                f"input exhausted with unclosed element <{self._open_tags[-1]}>",
                self._pos,
            )
        if not self._seen_root:
            raise XMLSyntaxError("document has no root element", self._pos)


def reference_tokenize(
    text: str,
    *,
    strip_whitespace: bool = True,
    convert_attributes: bool = True,
) -> Iterator[Token]:
    """Tokenize ``text`` with the pre-optimization reference implementation."""
    return iter(
        ReferenceTokenizer(
            text,
            strip_whitespace=strip_whitespace,
            convert_attributes=convert_attributes,
        )
    )
