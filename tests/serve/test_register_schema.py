"""Per-standing-query schemas over the wire: the register frame's DTD.

A ``register`` frame may carry a ``schema`` field (DTD text); the server
compiles that standing query with the schema-constraint pass.  The cache
key includes a schema fingerprint — the same query with and without a
schema is two distinct pools — and a bad DTD is a non-fatal
``query-error``, exactly like a query that does not compile.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.serve.harness import ServerFixture
from repro.xmark.queries import XMARK_QUERIES
from repro.xmark.schema import xmark_schema

GOLDENS = Path(__file__).parent.parent / "engine" / "goldens"


@pytest.fixture(scope="module")
def document() -> str:
    return (GOLDENS / "document.xml").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def fixture():
    with ServerFixture(eval_workers=2, request_timeout=60.0) as fixture:
        yield fixture


class TestRegisterWithSchema:
    def test_output_is_byte_identical_to_schema_off(self, fixture, document):
        query = XMARK_QUERIES["Q15"].adapted
        with fixture.client(timeout=60.0) as client:
            assert client.register("plain", query)["type"] == "registered"
            assert (
                client.register("typed", query, schema=xmark_schema().to_dtd())["type"]
                == "registered"
            )
            plain_frags, plain_done = client.eval_collect("plain", document)
            typed_frags, typed_done = client.eval_collect("typed", document)
            assert plain_done["type"] == "done"
            assert typed_done["type"] == "done"
            assert "".join(typed_frags) == "".join(plain_frags)
            expected = (GOLDENS / "Q15.expected").read_text(encoding="utf-8")
            assert "".join(typed_frags) == expected
            # The certified pool reports a zero high watermark.
            assert typed_done["hwm_bytes"] == 0
            assert plain_done["hwm_bytes"] > 0
        fixture.assert_clean()

    def test_schema_gets_its_own_pool(self, fixture):
        query = XMARK_QUERIES["Q1"].adapted
        with fixture.client() as client:
            before = fixture.server.standing_queries
            first = client.register("a", query)
            second = client.register("b", query, schema=xmark_schema().to_dtd())
            third = client.register("c", query, schema=xmark_schema().to_dtd())
            assert fixture.server.standing_queries >= before + 1
            # Same query + same schema hits the cache; differing schema
            # presence does not.
            assert third["cached"] is True
            assert not (first["cached"] and second["cached"])

    def test_bad_dtd_is_a_nonfatal_query_error(self, fixture):
        with fixture.client() as client:
            reply = client.register(
                "bad", XMARK_QUERIES["Q1"].adapted, schema="<!ELEMENT oops"
            )
            assert reply["type"] == "error"
            assert reply["code"] == "query-error"
            assert reply["fatal"] is False
            # The connection survives: a good register still works.
            good = client.register("ok", XMARK_QUERIES["Q1"].adapted)
            assert good["type"] == "registered"

    def test_nonstring_schema_is_a_bad_field(self, fixture):
        with fixture.client() as client:
            client.send_frame(
                {
                    "op": "register",
                    "id": "x",
                    "query": XMARK_QUERIES["Q1"].adapted,
                    "schema": 7,
                }
            )
            reply = client.recv_frame()
            assert reply["type"] == "error"
            assert reply["code"] == "bad-field"
            assert reply["fatal"] is False
