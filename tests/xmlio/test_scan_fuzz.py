"""Mutation fuzz: every scan mode against the frozen reference lexer.

Each case damages a well-formed document — a small XMark document or one
of the adversarial corpus — with one to three random byte edits
(replacements, inserts or deletes drawn from the markup alphabet below),
then reads it every way the scanner can:

* unguided, which must give the reference lexer's tokens and error;
* under DEAD-dropping projection guides (single queries and a product),
  which must give the unguided stream filtered by the guide's rows;
* under COPY-making chain guides, whose spans must expand to the unguided
  tokens;

each whole and through :class:`~repro.xmlio.filelexer.FileTokenizer` at
16-, 17- and 64-byte chunks.  A shared pass whose product guide copies
where one member copies and every other is dead reads XMark mutants too,
each member held to its solo run.  A malformed mutant must fail the same way on
every route: the same message, offset, line and column, after the same
tokens.  Cases are seeded, so a failure names its mutant.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.analysis import compile_query
from repro.analysis.schema import Schema
from repro.engine.direct import ChainGuide
from repro.stream.matcher import StreamMatcher
from repro.stream.shared import ProductGuide
from repro.xmark import generate_xmark
from repro.xmark.queries import Q6, XMARK_QUERIES
from repro.xmark.schema import xmark_schema
from repro.xmlio.filelexer import FileTokenizer
from repro.xmlio.lexer import tokenize

from tests.engine.test_buffered_copy import assert_shared_like_solo
from tests.xmlio._reference_lexer import reference_tokenize
from tests.xmlio.test_copy_scan import DTD as COPY_DTD
from tests.xmlio.test_copy_scan import QUERIES as COPY_QUERIES
from tests.xmlio.test_copy_scan import check
from tests.xmlio.test_differential_lexer import ADVERSARIAL_DOCUMENTS
from tests.xmlio.test_guided_lexer import (
    SMALL_QUERIES,
    STANDING_MIX,
    assert_same_error,
    drain,
    merged,
    reference,
)

ALPHABET = b"<>/&'\"= !?-[]ab\n"
CHUNK_SIZES = (16, 17, 64)
XMARK_DOCUMENT = generate_xmark(0.0002, seed=5).encode()


def mutate(document: bytes, rng: random.Random) -> bytes:
    data = bytearray(document)
    for _ in range(rng.randint(1, 3)):
        index = rng.randrange(len(data) + 1)
        edit = rng.choice("rid")
        if edit == "i" or index == len(data):
            data.insert(index, rng.choice(ALPHABET))
        elif edit == "r":
            data[index] = rng.choice(ALPHABET)
        else:
            del data[index]
    return bytes(data)


def routes(document: bytes, guide):
    """The whole-document scan and the chunked ones, under ``guide``."""
    yield tokenize(document, guide=guide)
    for chunk_size in CHUNK_SIZES:
        yield FileTokenizer(io.BytesIO(document), chunk_size=chunk_size, guide=guide)


def assert_every_route_agrees(document: bytes, dead_guides, copy_guides) -> None:
    """``dead_guides`` and ``copy_guides`` must be fresh: a row a guide
    has already filled would hide what the scanner does on a cold one."""
    expected, expected_error = drain(reference_tokenize(document.decode("utf-8")))
    plain, plain_error = drain(tokenize(document))
    assert plain == expected
    assert str(plain_error) == str(expected_error)
    for tokens in routes(document, None):
        unguided, error = drain(tokens)
        assert unguided == plain
        assert_same_error(error, plain_error)
    for guide in dead_guides:
        scans = [drain(tokens) for tokens in routes(document, guide)]
        filtered = reference(plain, guide)
        for guided, error in scans:
            assert merged(guided) == filtered
            assert_same_error(error, plain_error)
    for guide in copy_guides:
        check(document, guide)
        for chunk_size in CHUNK_SIZES:
            check(
                document,
                guide,
                lambda g: FileTokenizer(
                    io.BytesIO(document), chunk_size=chunk_size, guide=g
                ),
            )


def guide_factory(queries, mix, copy_queries, schema):
    """Compile once; build fresh guides (cold rows) for every mutant."""
    trees = [compile_query(query).projection_tree for query in queries]
    mixed = [compile_query(query).projection_tree for query in mix]
    plans = [
        compile_query(query, schema=schema).constraints.zero_buffer
        for query in copy_queries
    ]

    def fresh() -> tuple[list, list]:
        dead = [StreamMatcher(tree) for tree in trees]
        dead.append(ProductGuide([StreamMatcher(tree) for tree in mixed]))
        return dead, [ChainGuide(plan) for plan in plans]

    return fresh


@pytest.fixture(scope="module")
def xmark_guides():
    return guide_factory(
        [XMARK_QUERIES[name].adapted for name in ("Q1", "Q6", "Q8", "Q20")],
        [XMARK_QUERIES[name].adapted for name in STANDING_MIX],
        [Q6.adapted],
        xmark_schema(),
    )


@pytest.fixture(scope="module")
def small_guides():
    return guide_factory(
        list(SMALL_QUERIES.values()),
        [SMALL_QUERIES[name] for name in ("child", "exists", "person")],
        [COPY_QUERIES[name] for name in ("descendant", "child")],
        Schema.from_dtd_text(COPY_DTD),
    )


@pytest.mark.parametrize("seed", range(100))
def test_xmark_mutants(seed, xmark_guides):
    rng = random.Random(seed)
    dead, copy = xmark_guides()
    document = mutate(XMARK_DOCUMENT, rng)
    assert_every_route_agrees(document, rng.sample(dead, 2), copy)


@pytest.mark.parametrize("seed", range(500))
def test_adversarial_mutants(seed, small_guides):
    rng = random.Random(seed)
    dead, copy = small_guides()
    source = rng.choice(ADVERSARIAL_DOCUMENTS).encode()
    assert_every_route_agrees(mutate(source, rng), dead, copy)


@pytest.mark.parametrize("seed", range(30))
def test_shared_pass_mutants(seed):
    """Q6's items are copy sites: the product guide copies those every
    member beside it is dead at, and keeps LIVE those one of them reads
    below (Q13, the australia items)."""
    rng = random.Random(seed)
    names = sorted({"Q6", *rng.sample(STANDING_MIX, 3)})
    members = {name: XMARK_QUERIES[name].adapted for name in names}
    assert_shared_like_solo(members, mutate(XMARK_DOCUMENT, rng))
