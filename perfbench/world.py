"""Seeded synthetic inputs for the rankcert benchmark.

One call to :func:`write_world` writes every file the rankcert CLI reads:
an embedding table, a JSONL corpus, TSV queries, a six-column run and a
scorer model file. Nothing is downloaded and the same seed writes the same
bytes.

The vocabulary has three kinds of word, which fix the lexicon the CLI
builds from the embeddings (``J = 4``, ``tau = 0.8``):

* tight clusters of exactly ``J`` near-duplicate vectors: every member's
  perturbation set is the whole cluster, so the overlap ``o_w`` is 1 and an
  attack on them moves no smoothing mass;
* loose clusters of ``J + 1`` vectors: ``J`` near-duplicates plus one
  outlier that is still a synonym of all of them. The outlier's ``T_w``
  drops one near-duplicate and every near-duplicate's ``T_w`` drops the
  outlier, so overlaps are ``(J - 1) / J`` and the certificate slack ``od``
  of a document holding several loose words is large;
* singletons, far from everything, which are not perturbable.

Queries cycle through three kinds so that the certified-query rate sits
strictly between 0% and 100% on every seed: ``clean`` (clear relevance gap
at rank K, tail documents free of loose words: certified), ``slack`` (same
gap, loose words in the tail: the slack rules certification out) and
``close`` (no gap at rank K: the estimation radius rules it out).

Work per run must not depend on the seed, or seeds would spread the
benchmark's figures. All candidates of one query therefore share a length,
the queries' lengths are evenly spaced over the workload's range whatever
the seed, and word-kind proportions are fixed fractions. (Which documents
are re-estimated or attacked depends on their smoothed rank, so with mixed
lengths inside a query the work would follow the seed.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

J = 4
TAU = 0.8
DIM = 48
# Per-component noise of cluster members around their centre. Tight-cluster
# members sit at cosine ~0.9 of each other and loose-cluster near-duplicates
# at ~0.98, with the outlier at ~0.89: all well above TAU, while independent
# random directions in DIM dimensions essentially never reach TAU.
MEMBER_SIGMA = 0.045
CORE_SIGMA = 0.02
OUTLIER_SIGMA = 0.07
QUERY_KINDS = ("clean", "slack", "close")
QUERY_TERMS = 2
SLACK_LOOSE_SHARE = 0.15
"""Share of loose-cluster words in the tail documents of a ``slack`` query."""


@dataclass(frozen=True)
class WorldSpec:
    """Sizes of one synthetic world."""

    n_tight: int
    """Clusters of exactly J words (overlap 1)."""
    n_loose: int
    """Clusters of J + 1 words (partial overlap)."""
    n_single: int
    """Non-perturbable singleton words."""
    n_queries: int
    candidates: int
    k: int
    doc_len: tuple[int, int]
    """Inclusive range of document lengths, in tokens."""
    extra_docs: int = 0
    """Non-candidate corpus documents; they feed BM25 statistics only."""
    model: str = "linear"
    cosine_weight: float = 2.0
    """Weight of the embedding-cosine feature of the linear scorer."""
    attack_surface: bool = False
    """Query terms are loose-cluster outliers and every document carries
    their near-duplicates. Only the outlier's own ``T_w`` holds it, so
    substituting it for a near-duplicate raises the smoothed score."""


@dataclass(frozen=True)
class WorldFiles:
    embeddings: Path
    corpus: Path
    queries: Path
    run: Path
    model: Path


def _centre(rng: np.random.Generator) -> np.ndarray:
    centre = rng.normal(size=DIM)
    return centre / np.linalg.norm(centre)


def _tight_vectors(rng: np.random.Generator) -> np.ndarray:
    return _centre(rng) + rng.normal(scale=MEMBER_SIGMA, size=(J, DIM))


def _loose_vectors(rng: np.random.Generator) -> np.ndarray:
    """The outlier first, then the J near-duplicates."""
    centre = _centre(rng)
    outlier = centre + rng.normal(scale=OUTLIER_SIGMA, size=(1, DIM))
    return np.vstack([outlier, centre + rng.normal(scale=CORE_SIGMA, size=(J, DIM))])


def _vocabulary(spec: WorldSpec, rng: np.random.Generator):
    tight = [[f"t{c:04d}{m}" for m in "abcd"[:J]] for c in range(spec.n_tight)]
    loose = [[f"l{c:04d}{m}" for m in "abcde"[: J + 1]] for c in range(spec.n_loose)]
    single = [f"s{i:05d}" for i in range(spec.n_single)]
    rows: list[tuple[str, np.ndarray]] = []
    for words in tight:
        rows.extend(zip(words, _tight_vectors(rng)))
    for words in loose:
        rows.extend(zip(words, _loose_vectors(rng)))
    for word in single:
        vec = rng.normal(size=DIM)
        rows.append((word, vec / np.linalg.norm(vec)))
    return tight, loose, single, rows


def _lengths(spec: WorldSpec, count: int) -> list[int]:
    """``count`` lengths evenly spaced over the spec's range."""
    return [int(x) for x in np.rint(np.linspace(*spec.doc_len, count))]


class _DocMaker:
    def __init__(self, rng, tight, loose, single):
        self.rng = rng
        self.tight = [w for c in tight for w in c]
        self.loose = [w for c in loose for w in c]
        self.single = single

    def document(self, m: int, loose_share: float, terms=(), density: float = 0.0,
                 mates=()) -> list[str]:
        """``m`` tokens: ``density * m`` query-term occurrences, the mates of
        the query terms, and filler of which ``loose_share`` comes from loose
        clusters and half the rest from tight ones."""
        rng = self.rng
        hits = int(round(density * m))
        rest = m - hits - len(mates)
        n_loose = int(round(loose_share * rest))
        n_tight = int(round(0.5 * (rest - n_loose)))
        words = (
            [terms[i % len(terms)] for i in range(hits)]
            + list(mates)
            + [str(w) for w in rng.choice(self.loose, size=n_loose)]
            + [str(w) for w in rng.choice(self.tight, size=n_tight)]
            + [str(w) for w in rng.choice(self.single, size=rest - n_loose - n_tight)]
        )
        return [str(w) for w in rng.permutation(words)]


def _densities(kind: str, spec: WorldSpec) -> list[float]:
    """Query-term density per candidate, best first; fixed, so that only
    word choice and geometry follow the seed."""
    k, n = spec.k, spec.candidates
    if kind == "close":
        return list(np.linspace(0.08, 0.04, n))
    return list(np.linspace(0.30, 0.22, k)) + list(np.linspace(0.04, 0.0, n - k))


def write_world(spec: WorldSpec, seed: int, out_dir: Path) -> WorldFiles:
    """Generate the world for ``seed`` and write its input files."""
    rng = np.random.default_rng([seed, 0x7261_6E6B])
    out_dir.mkdir(parents=True, exist_ok=True)
    tight, loose, single, rows = _vocabulary(spec, rng)
    maker = _DocMaker(rng, tight, loose, single)

    emb_path = out_dir / "embeddings.txt"
    with open(emb_path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {DIM}\n")
        for word, vec in rows:
            fh.write(word + " " + " ".join(f"{v:.5f}" for v in vec) + "\n")

    lengths = _lengths(spec, spec.n_queries)
    term_clusters = rng.permutation(len(loose) if spec.attack_surface else len(tight))
    docs: list[tuple[str, str]] = []
    query_lines: list[str] = []
    run_lines: list[str] = []
    for qi in range(spec.n_queries):
        qid = f"q{qi:03d}"
        kind = QUERY_KINDS[qi % len(QUERY_KINDS)]
        clusters = term_clusters[qi * QUERY_TERMS : (qi + 1) * QUERY_TERMS]
        pool = loose if spec.attack_surface else tight
        terms = [pool[c][0] for c in clusters]
        mates = [w for c in clusters for w in pool[c][1:]] if spec.attack_surface else []
        query_lines.append(f"{qid}\t{' '.join(terms)}")
        for rank, density in enumerate(_densities(kind, spec)):
            m = lengths[qi]
            in_tail = rank >= spec.k
            if kind == "close":
                loose_share = 0.0
            elif in_tail:
                loose_share = SLACK_LOOSE_SHARE if kind == "slack" else 0.0
            else:
                loose_share = 0.1
            tokens = maker.document(m, loose_share, terms, density, mates)
            doc_id = f"{qid}d{rank:02d}"
            docs.append((doc_id, " ".join(tokens)))
            run_lines.append(f"{qid} Q0 {doc_id} {rank + 1} {1.0 - rank / 100:.4f} bench")

    for i, m in enumerate(_lengths(spec, spec.extra_docs)):
        docs.append((f"x{i:05d}", " ".join(maker.document(m, 0.1))))

    corpus_path = out_dir / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for doc_id, text in docs:
            fh.write(json.dumps({"id": doc_id, "text": text}) + "\n")
    queries_path = out_dir / "queries.tsv"
    queries_path.write_text("\n".join(query_lines) + "\n", encoding="utf-8")
    run_path = out_dir / "run.txt"
    run_path.write_text("\n".join(run_lines) + "\n", encoding="utf-8")

    # Fixed scorer parameters: training is out of the benchmark's scope.
    if spec.model == "linear":
        model = {"type": "linear", "features": ["embedding_cosine", "query_coverage", "match_density"],
                 "weights": [spec.cosine_weight, 1.5, 9.0], "bias": -2.5}
    else:
        model = {"type": "bm25", "k1": 0.9, "b": 0.4}
    model_path = out_dir / "model.json"
    model_path.write_text(json.dumps(model, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return WorldFiles(emb_path, corpus_path, queries_path, run_path, model_path)
