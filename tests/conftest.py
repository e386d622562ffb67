"""Shared fixtures: hand-built lexicons, toy scorers, and random worlds."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from rankcert import (
    Document,
    EmbeddingTable,
    Lexicon,
    LinearEmbedScorer,
    Query,
    ScoreModel,
    tokenize,
)


def make_doc(doc_id: str, text: str) -> Document:
    return Document(doc_id, tokenize(text))


def make_query(qid: str, text: str) -> Query:
    return Query(qid, tokenize(text))


class TokenTableModel(ScoreModel):
    """Scores documents by exact token-tuple lookup; the query is ignored."""

    def __init__(self, table: dict[tuple[str, ...], float], default: float = 0.0):
        self.table = dict(table)
        self.default = default

    def score(self, query: Query, doc: Document) -> float:
        return self.table.get(doc.tokens, self.default)


def hand_lexicon(
    synonyms: dict[str, set[str]], perturb: dict[str, tuple[str, ...]], j: int
) -> Lexicon:
    """Lexicon from explicit synonym / perturbation sets, no embedding pass."""
    return Lexicon(
        synonyms={w: frozenset(s) for w, s in synonyms.items()}, perturb=dict(perturb), j=j
    )


def size_mismatch_lexicon() -> Lexicon:
    """An invalid lexicon: ``S = {a, b, c, d}`` for each of a-d plus the
    singleton u, with ``|T_a| = |T_c| = 2`` but ``|T_b| = |T_d| = 3``. Its
    certificate for a tail document ``(a,)`` is unsound (see test_lexicon)."""
    clique = {"a", "b", "c", "d"}
    return hand_lexicon(
        {**{w: clique for w in clique}, "u": {"u"}},
        {"a": ("a", "c"), "b": ("b", "c", "d"), "c": ("c", "a"), "d": ("d", "c", "a"),
         "u": ("u",)},
        j=2,
    )


def row_document(lexicon: Lexicon, doc: Document, row: np.ndarray) -> Document:
    """The document that one row of ``PerturbationSampler.picks`` for
    ``doc`` names, its words read one by one from the perturbation sets of
    ``doc``'s tokens laid end to end: the reference for ``draws``."""
    members = [w for t in doc.tokens for w in lexicon.perturb_set(t)]
    return doc.with_tokens(members[i] for i in row)


def write_pipeline(root: Path) -> Path:
    """Write a self-contained toy dataset into ``root``: one tight 4-word
    cluster (so slack is zero at J=4) plus singleton words, three queries,
    and a short list that certify must skip at K=2."""
    rng = np.random.default_rng(5)

    lines = []
    base = np.array([1.0, 0.0, 0.0, 0.0])
    for i in range(4):
        vec = base + rng.normal(scale=0.002, size=4)
        lines.append("g%d %s" % (i, " ".join(f"{v:.6f}" for v in vec)))
    for name, vec in [
        ("h", [0.0, 1.0, 0.0, 0.0]),
        ("u", [0.0, 0.0, 1.0, 0.0]),
        ("j0", [0.0, 0.0, 0.0, 1.0]),
        ("j1", [0.0, 0.7071, 0.0, -0.7071]),
    ]:
        lines.append(f"{name} " + " ".join(f"{v:.6f}" for v in vec))
    (root / "embeddings.txt").write_text("\n".join(lines) + "\n")

    corpus = [
        {"id": "d1", "text": "h h"},
        {"id": "d2", "text": "g0 g1"},
        {"id": "d3", "text": "u j0"},
        {"id": "d4", "text": "j0 j1"},
        {"id": "d5", "text": "g2 u"},
        {"id": "d6", "text": "h u"},
    ]
    (root / "corpus.jsonl").write_text("\n".join(json.dumps(d) for d in corpus) + "\n")

    (root / "queries.tsv").write_text("q1\th h\nq2\tg0 u\nqshort\th\n")

    run_lines = []
    for qid, docs in [
        ("q1", ["d1", "d6", "d2", "d4", "d3"]),
        ("q2", ["d5", "d2", "d3", "d4", "d1"]),
        ("qshort", ["d1"]),
    ]:
        for i, doc in enumerate(docs):
            run_lines.append(f"{qid} Q0 {doc} {i + 1} {1.0 - i / 10:.3f} init")
    (root / "run.txt").write_text("\n".join(run_lines) + "\n")

    (root / "qrels.txt").write_text("q1 0 d1 1\nq2 0 d5 1\nqshort 0 d1 1\n")
    (root / "triples.tsv").write_text("q1\td1\td4\nq1\td6\td3\nq2\td5\td4\nq2\td2\td3\n")
    return root


def singleton_lexicon(words: list[str]) -> Lexicon:
    """Every word is its own isolated singleton: no perturbation at all."""
    return hand_lexicon(
        {w: {w} for w in words}, {w: (w,) for w in words}, j=2
    )


@pytest.fixture
def clique_lexicon() -> Lexicon:
    """Four mutually synonymous words {a, b, x, y} where the perturbation
    sets split into {a, x} and {b, y}, so o = 0 inside the clique, plus an
    isolated word u. Built from embeddings with tau=0.8, J=2."""
    emb = EmbeddingTable.from_pairs(
        [
            ("a", [1.0, 0.0]),
            ("x", [0.9999, 0.0141]),
            ("b", [0.9, 0.43589]),
            ("y", [0.8959, 0.44429]),
            ("u", [-1.0, 0.0]),
        ]
    )
    return Lexicon.build(emb, tau=0.8, j=2)


# ---------------------------------------------------------------------------
# Random desk-scale worlds for property and acceptance tests
# ---------------------------------------------------------------------------


@dataclass
class World:
    emb: EmbeddingTable
    lexicon: Lexicon
    vocab: list[str]
    j: int
    regime: str


def random_world(
    rng: np.random.Generator,
    max_vocab: int = 30,
    j: int | None = None,
    tau: float = 0.85,
    regime: str | None = None,
) -> World:
    """Random embedding clusters -> lexicon.

    Regimes control how perturbation sets overlap inside synonym clusters:
    ``tight`` makes cluster sizes equal to J (perturbation sets coincide,
    overlap 1), ``mixed`` adds clusters one bigger than J (partial overlap),
    ``loose`` adds wider and noisier clusters (overlaps down to 0).
    """
    if j is None:
        j = int(rng.integers(2, 4))
    if regime is None:
        regime = str(rng.choice(["tight", "mixed", "loose"], p=[0.45, 0.35, 0.2]))
    size_pool = {
        "tight": [1, j, j],
        "mixed": [1, j, j + 1],
        "loose": [1, 2, 3, 4],
    }[regime]

    target = int(rng.integers(12, max_vocab + 1))
    dim = 4
    pairs: list[tuple[str, np.ndarray]] = []
    idx = 0
    while len(pairs) < target:
        size = int(rng.choice(size_pool))
        size = min(size, target - len(pairs))
        if size == 0:
            break
        base = rng.normal(size=dim)
        base /= np.linalg.norm(base)
        for _ in range(size):
            sigma = 0.002
            if regime == "loose" and rng.random() < 0.3:
                sigma = 0.25
            vec = base + rng.normal(scale=sigma, size=dim)
            pairs.append((f"w{idx:02d}", vec))
            idx += 1
    emb = EmbeddingTable.from_pairs(pairs)
    lexicon = Lexicon.build(emb, tau=tau, j=j)
    return World(emb=emb, lexicon=lexicon, vocab=[t for t, _ in pairs], j=j, regime=regime)


def random_doc(
    rng: np.random.Generator,
    world: World,
    doc_id: str,
    min_len: int = 3,
    max_len: int = 6,
    max_space: int = 2500,
) -> Document:
    """Random document whose substitution and perturbation spaces stay small
    enough for exhaustive oracles."""
    for _ in range(100):
        m = int(rng.integers(min_len, max_len + 1))
        tokens = tuple(str(t) for t in rng.choice(world.vocab, size=m))
        attack_space = math.prod(len(world.lexicon.attack_set(w)) for w in tokens)
        perturb_space = world.lexicon.space_size(tokens)
        if attack_space <= max_space and perturb_space <= max_space:
            return Document(doc_id, tokens)
    raise RuntimeError("could not draw a document with bounded spaces")


def random_linear_model(rng: np.random.Generator, emb: EmbeddingTable) -> LinearEmbedScorer:
    return LinearEmbedScorer(
        weights=rng.normal(0.0, 3.0, size=3), bias=float(rng.normal(0.0, 1.0)), embeddings=emb
    )


def random_token_model(
    rng: np.random.Generator, world: World, docs: list[Document]
) -> TokenTableModel:
    """Random score table covering every substitution-reachable perturbation
    of the given documents, so exact smoothing sees varied values."""
    table: dict[tuple[str, ...], float] = {}
    lex = world.lexicon
    for doc in docs:
        pools = []
        for w in doc.tokens:
            reachable = set()
            for w2 in lex.attack_set(w):
                reachable.update(lex.perturb_set(w2))
            pools.append(sorted(reachable))
        count = math.prod(len(p) for p in pools)
        if count > 50_000:
            raise RuntimeError("reachable space too large for a token table")
        import itertools

        for tokens in itertools.product(*pools):
            if tokens not in table:
                table[tokens] = float(rng.random())
    return TokenTableModel(table, default=0.0)
