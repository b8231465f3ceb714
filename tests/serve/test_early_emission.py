"""The serving face of earliness: first bytes leave before end-of-document.

Every ``result`` frame carries an ``at`` field — the input tokens the
run had consumed when the fragment was emitted (the emission-order
oracle; see :meth:`tests.serve.harness.ScriptClient.collect_pass`).  For
a standing query with a streamable output site, the first frame's offset
must be strictly below the pass's final ``tokens_read``: output left the
server while the document was still arriving.
"""

from __future__ import annotations

from tests.serve.harness import ServerFixture

#: A streamable query (open watermark on the bare ``$x`` output site).
QUERY = "<out>{ for $x in /r/a return $x }</out>"


def wide_document(items: int = 200) -> str:
    return "<r>" + "<a><b>t</b></a>" * items + "</r>"


class TestEarlyEmission:
    def test_first_frame_arrives_before_end_of_document(self):
        with ServerFixture() as fixture:
            with fixture.client() as client:
                assert client.register("q", QUERY)["type"] == "registered"
                fragments, done = client.eval_collect("q", wide_document())
                assert done["type"] == "done", done
                assert fragments
                offsets = client.frame_offsets
                assert len(offsets) == len(fragments)
                assert all(isinstance(at, int) for at in offsets)
                # The oracle: the first byte left strictly before EOF.
                assert offsets[0] < done["tokens_read"]
                # Offsets ride the input clock, so they never decrease.
                assert offsets == sorted(offsets)
                client.quit()
            fixture.assert_clean()

    def test_matched_content_arrives_before_end_of_document(self):
        """Stronger than first-byte: a frame containing actual matched
        subtree content (not just the constructor's open tag) left before
        the document finished."""
        with ServerFixture() as fixture:
            with fixture.client() as client:
                client.register("q", QUERY)
                fragments, done = client.eval_collect("q", wide_document())
                assert done["type"] == "done", done
                content_offsets = [
                    at
                    for fragment, at in zip(fragments, client.frame_offsets)
                    if "<b>" in fragment
                ]
                assert content_offsets
                assert content_offsets[0] < done["tokens_read"]
                client.quit()
            fixture.assert_clean()

    def test_chunked_upload_emits_between_chunks(self):
        """The same oracle over the begin/chunk*/end path: fragments for
        early items are emitted while later chunks are still uploading."""
        document = wide_document()
        step = 64
        chunks = [
            document[start : start + step]
            for start in range(0, len(document), step)
        ]
        with ServerFixture() as fixture:
            with fixture.client() as client:
                client.register("q", QUERY)
                client.upload("q", chunks)
                fragments, done = client.collect_pass()
                assert done["type"] == "done", done
                assert fragments
                assert client.frame_offsets[0] < done["tokens_read"]
                client.quit()
            fixture.assert_clean()
