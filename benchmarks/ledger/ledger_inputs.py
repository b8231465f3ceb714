"""Workload definitions and their seeded inputs.

Everything a workload evaluates is pinned here or generated here from the
seed: the query texts and the XMark DTD are copies kept beside this file,
documents are calibrated to a byte target in this module, and the expected
output of every (query, document) pair comes from ``NaiveDomEngine`` — the
DOM oracle, never the streaming engine under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro import NaiveDomEngine, generate_xmark

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in .gitignore).
WORK = ROOT / ".ledger_work"
DTD_PATH = HERE / "xmark.dtd"

MIX = ("Q1", "Q6", "Q8", "Q9", "Q13", "Q15", "Q17", "Q20")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "session" | "multi" | "serve"
    queries: tuple[str, ...]
    schema: bool = False
    small_doc: bool = False  # the mix runs on the 0.3 MB document


#: Why each one was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("selective_scan", "session", ("Q1",)),
        Workload("bulk_output", "session", ("Q6",)),
        Workload("schema_direct", "session", ("Q6",), schema=True),
        Workload("standing_mix", "multi", MIX, small_doc=True),
        Workload("serve_small_docs", "serve", ("Q1",)),
    )
}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; ``SMOKE`` is for the self-tests."""

    doc_bytes: int
    small_doc_bytes: int
    fragments: int
    setup_launches: int
    warmup_ops: int
    min_ops: int
    min_rounds: int
    serve_warmup_evals: int
    micro_repeats: int  # pings, and runs over the empty document
    reference_samples: int  # around a serve window


FULL = Sizes(
    doc_bytes=800_000,
    small_doc_bytes=300_000,
    fragments=64,
    setup_launches=5,
    warmup_ops=3,
    min_ops=10,
    min_rounds=9,
    serve_warmup_evals=100,
    micro_repeats=200,
    reference_samples=15,
)
SMOKE = Sizes(
    doc_bytes=40_000,
    small_doc_bytes=20_000,
    fragments=8,
    setup_launches=1,
    warmup_ops=1,
    min_ops=3,
    min_rounds=2,
    serve_warmup_evals=5,
    micro_repeats=10,
    reference_samples=2,
)


@dataclass
class Inputs:
    workload: Workload
    sizes: Sizes
    seed: int
    queries: dict[str, str]
    documents: list[str]
    #: One file per document for the in-process kinds (fed as ``Path``, the
    #: mmap route ``gcx run`` takes); empty for serve, which sends text.
    paths: list[Path]
    #: Per document, the oracle's output for each query in order.
    expected: list[tuple[str, ...]]

    @property
    def input_bytes(self) -> list[int]:
        return [len(document.encode("utf-8")) for document in self.documents]


def query_text(name: str) -> str:
    return (HERE / "queries" / f"{name}.xq").read_text(encoding="utf-8")


def xmark_document(target_bytes: int, seed: int) -> str:
    """A seeded XMark document within 0.2% of ``target_bytes`` if it can be.

    ``generate_xmark`` takes a scale factor, and the size a scale yields
    moves by a percent or so with the seed; op time follows size, so the
    scale is corrected until the size sits on the target and workloads
    stay comparable across seeds.
    """
    scale = target_bytes / 40e6
    best = ""
    for _attempt in range(8):
        document = generate_xmark(scale, seed=seed)
        if abs(len(document) - target_bytes) < abs(len(best) - target_bytes):
            best = document
        if abs(len(best) - target_bytes) <= 0.002 * target_bytes:
            break
        scale *= target_bytes / len(document)
    return best


_WORDS = (
    "auction bidder gavel ledger parcel estate dealer ticket broker "
    "credit vendor basket margin tender docket"
).split()


def serve_fragments(count: int, seed: int) -> list[str]:
    """``count`` small ``<site>`` documents of 0.2-3 KB, each with one
    ``person0`` at a seeded position so Q1 always has a result to find."""
    rng = random.Random(seed)
    fragments = []
    for _ in range(count):
        persons = rng.randint(1, 18)
        hit = rng.randrange(persons)
        parts = ["<site><people>"]
        for index in range(persons):
            ident = 0 if index == hit else index + 1
            name = " ".join(rng.choice(_WORDS) for _ in range(2)).title()
            mail = f"mailto:{rng.choice(_WORDS)}{rng.randint(1, 999)}@example.org"
            parts.append(
                f"<person><id>person{ident}</id><name>{name}</name>"
                f"<emailaddress>{mail}</emailaddress>"
            )
            if rng.random() < 0.5:
                parts.append(f"<phone>+{rng.randint(10**9, 10**10)}</phone>")
            parts.append("</person>")
        parts.append("</people></site>")
        fragments.append("".join(parts))
    return fragments


def oracle_output(query: str, document: str) -> str:
    return NaiveDomEngine().run(query, document).output


def build_inputs(workload: Workload, sizes: Sizes, seed: int, workdir: Path) -> Inputs:
    queries = {name: query_text(name) for name in workload.queries}
    paths: list[Path] = []
    if workload.kind == "serve":
        documents = serve_fragments(sizes.fragments, seed)
    else:
        target = sizes.small_doc_bytes if workload.small_doc else sizes.doc_bytes
        documents = [xmark_document(target, seed)]
        path = workdir / f"{workload.name}-{seed}.xml"
        path.write_text(documents[0], encoding="utf-8")
        paths.append(path)
    expected = [
        tuple(oracle_output(text, document) for text in queries.values())
        for document in documents
    ]
    return Inputs(workload, sizes, seed, queries, documents, paths, expected)
