"""File-backed streaming tokenizer: mmap scanning with a chunked fallback.

:class:`XMLTokenizer` scans one contiguous byte buffer; for file input there
are two ways to provide one:

* **mmap** — :func:`tokenize_file` maps a *path* read-only and hands the map
  straight to the in-memory scanner: ``bytes.find`` jumps run over the page
  cache with zero copying, and resident memory is whatever the OS keeps
  paged in, not the file size.  Token byte spans are sliced out of the map
  as plain ``bytes``, so emitted tokens never pin the mapping.
* **chunked reads** — :class:`FileTokenizer` wraps any open file object
  (binary preferred; text mode is accepted and encoded chunk-by-chunk,
  which is safe because a ``str`` chunk boundary can never split a code
  point).  It reads fixed-size chunks on demand (the ``_refill`` hook) and
  periodically *compacts* the consumed prefix away, so the resident window
  stays proportional to the chunk size — this is the path for sockets,
  pipes, and anything else that cannot be mapped.

The interaction with the batch scanner (see :mod:`repro.xmlio.lexer`) is
what keeps the chunked window bounded: a batch may advance at most
``chunk_size`` bytes (``_batch_bytes``), and the consumed prefix is
compacted in the ``_before_batch`` hook, between batches, when no scan
positions point into the window.  Compaction also maintains the newline
counts that make ``XMLSyntaxError.line``/``.column`` computable after the
prefix is gone, while ``position`` stays a document-absolute byte offset.

Both routes inherit the guided scan: a scan ``guide`` is handed through to
the scanner, whose dead-subtree validation honours the same batch budget,
so the chunked window stays bounded inside arbitrarily large dead regions.

``tokenize_file`` accepts a path or any open (binary or text) file object.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import IO, Iterator

from repro.xmlio.lexer import XMLSyntaxError, XMLTokenizer
from repro.xmlio.tokens import Token

__all__ = ["FileTokenizer", "tokenize_file"]

DEFAULT_CHUNK_SIZE = 64 * 1024


class FileTokenizer(XMLTokenizer):
    """Tokenize from a file object, keeping only a sliding window in memory."""

    def __init__(
        self,
        stream: IO,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        strip_whitespace: bool = True,
        guide: "object | None" = None,
    ) -> None:
        super().__init__(b"", strip_whitespace=strip_whitespace, guide=guide)
        self._stream = stream
        self._chunk_size = max(chunk_size, 16)
        # Cap batch scanning at one chunk so compaction keeps pace and the
        # resident window stays O(chunk) regardless of document length.
        self._batch_bytes = self._chunk_size
        self._eof = False

    def _refill(self) -> bool:
        if self._eof:
            return False
        chunk = self._stream.read(self._chunk_size)
        if not chunk:
            self._eof = True
            return False
        if isinstance(chunk, str):
            # Text-mode stream: encode per chunk.  A ``str`` boundary can
            # never split a code point, so the concatenation is identical
            # to encoding the whole document at once.
            chunk = chunk.encode("utf-8")
        self._data += chunk
        return True

    def _before_batch(self) -> None:
        # Compact between batches only: mid-batch scans hold local
        # positions into the window, which compaction would invalidate.
        pos = self._pos
        if pos > self._chunk_size:
            discarded = self._data[:pos]
            # Keep lazy line/column computable after the prefix is gone.
            self._nl_before += discarded.count(b"\n")
            last = discarded.rfind(b"\n")
            if last != -1:
                self._last_nl_abs = self._offset + last
            self._offset += pos
            self._data = self._data[pos:]
            self._pos = 0

    @property
    def window_size(self) -> int:
        """Bytes currently resident (for tests and diagnostics)."""
        return len(self._data)


def tokenize_file(
    source: str | Path | IO,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    strip_whitespace: bool = True,
    guide: "object | None" = None,
) -> Iterator[Token]:
    """Tokenize an XML file (path, or open binary/text file) incrementally.

    Paths are mmap-scanned (``chunk_size`` is then irrelevant: the OS pages
    the file in and out as the scan advances); file objects go through the
    chunked :class:`FileTokenizer`.  When given a path the underlying file
    is opened and closed by the iterator.  ``guide`` is the scan guide of
    :class:`~repro.xmlio.lexer.XMLTokenizer`.
    """
    options = {"strip_whitespace": strip_whitespace, "guide": guide}
    if isinstance(source, (str, Path)):

        def generate() -> Iterator[Token]:
            with open(source, "rb") as handle:
                try:
                    mapped = mmap.mmap(
                        handle.fileno(), 0, access=mmap.ACCESS_READ
                    )
                except (ValueError, OSError):
                    # Empty or unmappable (e.g. a FIFO): chunked fallback.
                    yield from FileTokenizer(
                        handle, chunk_size=chunk_size, **options
                    )
                    return
                with mapped:
                    try:
                        yield from XMLTokenizer(mapped, **options)
                    except XMLSyntaxError as error:
                        # Unwinding closes the map the error's window
                        # points into; materialize line/column first.
                        error.ensure_location()
                        raise

        return generate()
    return iter(FileTokenizer(source, chunk_size=chunk_size, **options))
