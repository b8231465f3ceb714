"""Conformance: chunked uploads equal inline evaluation byte-for-byte.

The server UTF-8-encodes each ``chunk`` payload once at receipt and joins
the byte parts at ``end`` — it never concatenates in the str domain.  A
JSON string boundary can never split a UTF-8 sequence, so any client-side
chunking of the document (including splits adjacent to multi-byte
characters) must produce exactly the fragments and statistics of a
one-shot inline ``eval`` of the same document.  (The one thing a boundary
can split is an *escaped* surrogate pair; ``tests/serve/test_faults.py``
covers that refusal.)
"""

from __future__ import annotations

import pytest

from tests.serve.harness import ServerFixture

QUERY = "<out>{ for $x in /a/b return <hit>{ $x/c }</hit> }</out>"

# Multi-byte text (2-, 3-, and 4-byte sequences) in both element content
# and attribute values, so chunk splits land next to them.
DOCUMENT = (
    "<a>"
    + "".join(f"<b id='é{i}'><c>日本語 😀 value-{i}</c></b>" for i in range(12))
    + "</a>"
)


def split_every(text: str, size: int) -> list[str]:
    return [text[start : start + size] for start in range(0, len(text), size)]


@pytest.fixture(scope="module")
def fixture():
    with ServerFixture(eval_workers=2) as fixture:
        yield fixture


@pytest.fixture(scope="module")
def inline_pass(fixture):
    """The reference transcript: one inline eval of DOCUMENT."""
    with fixture.client() as client:
        assert client.register("q", QUERY)["type"] == "registered"
        fragments, done = client.eval_collect("q", DOCUMENT)
    assert done["type"] == "done", done
    return fragments, done


class TestChunkedEqualsInline:
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 7, 64])
    def test_every_split_granularity(self, fixture, inline_pass, chunk_size):
        """``chunk_size`` in *characters*: size 1 places a frame boundary
        between every pair of code points, the densest split a JSON
        transport can express."""
        inline_fragments, inline_done = inline_pass
        with fixture.client() as client:
            client.register("q", QUERY)
            client.upload("q", split_every(DOCUMENT, chunk_size))
            fragments, done = client.collect_pass()
        assert done["type"] == "done", done
        assert fragments == inline_fragments
        # Every deterministic statistic matches too (elapsed_ms varies):
        # the pass read the same bytes through the same buffers.
        for field in ("fragments", "hwm_nodes", "hwm_bytes", "tokens_read"):
            assert done[field] == inline_done[field], field

    def test_single_chunk_equals_inline(self, fixture, inline_pass):
        inline_fragments, _ = inline_pass
        with fixture.client() as client:
            client.register("q", QUERY)
            client.upload("q", [DOCUMENT])
            fragments, done = client.collect_pass()
        assert done["type"] == "done", done
        assert fragments == inline_fragments

    def test_empty_chunks_are_harmless(self, fixture, inline_pass):
        inline_fragments, _ = inline_pass
        parts = split_every(DOCUMENT, 16)
        padded = [""] + [p for part in parts for p in (part, "")]
        with fixture.client() as client:
            client.register("q", QUERY)
            client.upload("q", padded)
            fragments, done = client.collect_pass()
        assert done["type"] == "done", done
        assert fragments == inline_fragments

    def test_document_size_limit_counts_encoded_bytes(self):
        """The chunked limit is measured on UTF-8 bytes, exactly like the
        inline limit — '😀' * 100 is 100 characters but 400 bytes."""
        payload = "😀" * 100
        with ServerFixture(max_document_bytes=300) as fixture:
            with fixture.client() as client:
                client.register("q", QUERY)
                client.send_frame({"op": "begin", "id": "q"})
                client.send_frame({"op": "chunk", "data": payload})
                reply = client.recv_frame()
            assert reply["type"] == "error"
            assert reply["code"] == "too-large"
            fixture.assert_clean()
