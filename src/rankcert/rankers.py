"""Relevance scorers mapping (query, document) pairs into [0, 1]."""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, CorpusStats, Document, Query, RankedList, json_field, make_ranked
from .lexicon import EmbeddingTable


class ScoreModel(ABC):
    """Deterministic relevance scorer with outputs in [0, 1].

    Implementations must be safe for concurrent ``score`` calls once
    constructed. The batch methods return what ``score`` would, value for
    value; their defaults loop over it, and a model may override them with a
    faster form that keeps that equality.
    """

    @abstractmethod
    def score(self, query: Query, doc: Document) -> float:
        raise NotImplementedError

    def substitution_key(self, word: str) -> Hashable:
        """Words with equal keys are interchangeable for this model: putting
        one in place of the other, anywhere in a document, leaves its true
        score unchanged. The default, the word itself, merges no two words.
        A wrapper that re-exposes a model forwards it."""
        return word

    def score_many(self, query: Query, docs: Sequence[Document]) -> list[float]:
        """``score`` of each document, in order."""
        return [self.score(query, d) for d in docs]

    def score_batch(
        self, query: Query, doc: Document, members: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Base scores of the ``len(rows)`` documents named by the rows of
        an ``(n, M)`` index matrix into ``members``, an object array of
        words: row ``i`` is ``doc`` with the tokens ``members[rows[i]]``."""
        words = members.tolist()
        return np.fromiter(
            (self.score(query, doc.with_tokens(map(words.__getitem__, row)))
             for row in rows.tolist()),
            dtype=float, count=len(rows),
        )


def rank(model: ScoreModel, query: Query, candidates: Sequence[Document]) -> RankedList:
    """Score all candidates and sort: score descending, doc id ascending."""
    if not candidates:
        raise ValueError("cannot rank an empty candidate list")
    return make_ranked(query.id, [(d.id, model.score(query, d)) for d in candidates])


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-min(z, 500.0)))
    ez = math.exp(max(z, -500.0))
    return ez / (1.0 + ez)


def sigmoid_array(z: np.ndarray) -> np.ndarray:
    """``sigmoid`` of every element of a float vector, bit for bit, NaN
    included: ``math.exp`` of each clamped exponent, then numpy's correctly
    rounded ``1 / (1 + e)`` and ``e / (1 + e)``. ``np.exp`` would move last
    bits."""
    upper = z >= 0
    clamped = np.where(upper, -np.minimum(z, 500.0), np.maximum(z, -500.0))
    e = np.fromiter(map(math.exp, clamped.tolist()), dtype=float, count=len(clamped))
    return np.where(upper, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class Bm25Model(ScoreModel):
    """BM25 with a monotone squash ``s -> s / (s + c)`` into [0, 1).

    The idf is the non-negative variant ``ln(1 + (N - df + 0.5)/(df + 0.5))``
    so raw scores stay >= 0 and the squash stays in range. Repeated query
    terms are counted once. The squash constant ``c`` is the mean raw score
    over a calibration pool (see :meth:`calibrated`); scoring before
    calibration raises. The sorted distinct terms of a query, with their
    idf, are computed once per query token tuple.
    """

    k1: float
    b: float
    doc_freq: Mapping[str, int]
    n_docs: int
    avg_len: float
    squash_c: float | None = None
    _queries: dict[tuple[str, ...], tuple[tuple[str, float], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k1) and self.k1 > 0):
            raise ValueError(f"k1 must be a finite positive number, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b}")
        if self.n_docs < 1:
            raise ValueError(f"n_docs must be >= 1, got {self.n_docs}")
        if not (math.isfinite(self.avg_len) and self.avg_len > 0):
            raise ValueError(f"avg_len must be a finite positive number, got {self.avg_len}")

    @classmethod
    def from_corpus(
        cls, corpus: Mapping[str, Document], k1: float = 0.9, b: float = 0.4
    ) -> "Bm25Model":
        """BM25 with the statistics of ``corpus``: for a :class:`Corpus`
        those of every document its file holds, counted as it was loaded;
        for any other mapping those of the documents it maps."""
        stats = corpus.stats if isinstance(corpus, Corpus) else CorpusStats.count(
            doc.tokens for doc in corpus.values())
        if not stats.n_docs:
            raise ValueError("cannot build BM25 statistics from an empty corpus")
        return cls(
            k1=k1,
            b=b,
            doc_freq=stats.doc_freq,
            n_docs=stats.n_docs,
            avg_len=stats.total_len / stats.n_docs,
        )

    def idf(self, term: str) -> float:
        df = self.doc_freq.get(term, 0)
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def raw_score(self, query: Query, doc: Document) -> float:
        terms = self._queries.get(query.tokens)
        if terms is None:
            terms = self._queries[query.tokens] = tuple(
                (term, self.idf(term)) for term in sorted(set(query.tokens)))
        norm = self.k1 * (1.0 - self.b + self.b * doc.length / self.avg_len)
        total = 0.0
        for term, idf in terms:
            f = doc.tokens.count(term)
            if f == 0:
                continue
            total += idf * f * (self.k1 + 1.0) / (f + norm)
        return total

    def score(self, query: Query, doc: Document) -> float:
        if self.squash_c is None:
            raise RuntimeError(
                "BM25 squash constant not calibrated; call calibrated() with a candidate pool"
            )
        raw = self.raw_score(query, doc)
        return raw / (raw + self.squash_c)

    def calibrated(self, pairs: Iterable[tuple[Query, Document]]) -> "Bm25Model":
        """Copy of this model with ``c`` set to the mean raw score of
        ``pairs`` (falls back to 1.0 when the mean is not positive)."""
        raws = [self.raw_score(q, d) for q, d in pairs]
        if not raws:
            raise ValueError("calibration pool is empty")
        total = 0.0  # left to right: the built-in sum is compensated on 3.12+
        for raw in raws:
            total += raw
        c = total / len(raws)
        return replace(self, squash_c=c if c > 0 else 1.0)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a real vector, without its dispatch."""
    return math.sqrt(float(np.dot(v, v)))


FEATURE_NAMES = ("embedding_cosine", "query_coverage", "match_density")


@dataclass(frozen=True)
class LinearEmbedScorer(ScoreModel):
    """Sigmoid of a linear function of embedding and term-overlap features.

    Features: cosine of mean-pooled query/document embeddings, fraction of
    distinct query terms present in the document, and fraction of document
    tokens that are query terms. The query side (pooled vector, its norm and
    the term set) is computed once per query token tuple.
    """

    weights: np.ndarray
    bias: float
    embeddings: EmbeddingTable
    _queries: dict[tuple[str, ...], tuple[np.ndarray, float, frozenset[str]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(FEATURE_NAMES),):
            raise ValueError(f"weights must have shape ({len(FEATURE_NAMES)},), got {w.shape}")
        if not (np.all(np.isfinite(w)) and math.isfinite(self.bias)):
            raise ValueError("parameters must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @classmethod
    def initial(cls, embeddings: EmbeddingTable) -> "LinearEmbedScorer":
        return cls(weights=np.zeros(len(FEATURE_NAMES)), bias=0.0, embeddings=embeddings)

    def _pool(self, tokens: Sequence[str]) -> np.ndarray:
        """Mean of the in-vocabulary tokens' vectors; zeros if there are none."""
        index = self.embeddings.index
        rows = [index[t] for t in tokens if t in index]
        if not rows:
            return np.zeros(self.embeddings.dim)
        return np.add.reduce(self.embeddings.matrix.take(rows, axis=0), axis=0) / len(rows)

    def _query_side(self, query: Query) -> tuple[np.ndarray, float, frozenset[str]]:
        side = self._queries.get(query.tokens)
        if side is None:
            qv = self._pool(query.tokens)
            qv.setflags(write=False)
            side = self._queries[query.tokens] = (qv, _norm(qv), frozenset(query.tokens))
        return side

    def features(self, query: Query, doc: Document) -> np.ndarray:
        qv, qn, q_terms = self._query_side(query)
        dv = self._pool(doc.tokens)
        dn = _norm(dv)
        cos = float(np.dot(qv, dv) / (qn * dn)) if qn > 0 and dn > 0 else 0.0
        coverage = len(q_terms.intersection(doc.tokens)) / len(q_terms)
        density = sum(map(q_terms.__contains__, doc.tokens)) / doc.length
        return np.array([cos, coverage, density])

    def decision(self, query: Query, doc: Document) -> float:
        return float(np.dot(self.weights, self.features(query, doc))) + self.bias

    def score(self, query: Query, doc: Document) -> float:
        return sigmoid(self.decision(query, doc))

    def score_batch(
        self, query: Query, doc: Document, members: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """``score`` of every row, bit for bit. The call's ``members`` are
        mapped once to their rows of ``embeddings.vectors`` (the +0.0 row
        for a word without a vector) and once to query-term codes (-1 for
        any other word), and both are gathered by ``rows``. Each row's
        pooled vector is a running sum of its words' embedding rows, one
        position at a time (a word without an embedding adds the +0.0 row
        and is not counted), so memory stays at ``(n, dim)``; the
        term-overlap fractions come from comparing codes with each query
        term's. The norms, query dots and decisions are stacked
        vector-vector matmuls, which numpy runs slice by slice through the
        kernel that ``np.dot`` of two vectors uses, and ``sigmoid_array``
        keeps ``sigmoid``'s bits; a matrix-vector product (``F @ w``),
        ``einsum`` or ``np.exp`` would move last bits.

        With one-dimensional embeddings ``_pool`` reduces along a
        contiguous axis, where numpy sums pairwise rather than in order, so
        there the rows go through ``score`` one by one."""
        if self.embeddings.dim == 1:
            return super().score_batch(query, doc, members, rows)
        qv, qn, q_terms = self._query_side(query)
        vectors = self.embeddings.vectors
        words = members.tolist()
        emb_rows = np.fromiter(map(self.embeddings.index.get, words, repeat(len(self.embeddings))),
                               dtype=np.int32, count=len(words))[rows]
        pooled = vectors[emb_rows[:, 0]]
        for column in emb_rows.T[1:]:
            pooled += vectors[column]
        pooled /= np.maximum((emb_rows < len(self.embeddings)).sum(axis=1), 1)[:, None]
        code_of = {t: k for k, t in enumerate(q_terms)}
        codes = np.fromiter(map(code_of.get, words, repeat(-1)),
                            dtype=np.int32, count=len(words))[rows]
        coverage = sum(((codes == k).any(axis=1) for k in range(len(q_terms))),
                       np.zeros(len(rows))) / len(q_terms)
        density = (codes >= 0).sum(axis=1) / rows.shape[1]
        stacked = pooled[:, None, :]
        dn = np.sqrt(np.matmul(stacked, pooled[:, :, None])).ravel()
        cos = np.divide(np.matmul(stacked, qv[:, None]).ravel(), qn * dn,
                        out=np.zeros(len(rows)), where=(qn > 0) & (dn > 0))
        features = np.stack([cos, coverage, density], axis=1)
        z = np.matmul(features[:, None, :], self.weights[:, None]).ravel() + self.bias
        return sigmoid_array(z)

    def with_params(self, weights: np.ndarray, bias: float) -> "LinearEmbedScorer":
        return LinearEmbedScorer(
            weights=np.array(weights, dtype=float), bias=float(bias), embeddings=self.embeddings
        )

    def to_json_dict(self) -> dict:
        return {
            "type": "linear",
            "features": list(FEATURE_NAMES),
            "weights": [float(w) for w in self.weights],
            "bias": float(self.bias),
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping, embeddings: EmbeddingTable) -> "LinearEmbedScorer":
        if payload.get("type") != "linear":
            raise ValueError(f"not a linear scorer payload: {payload.get('type')!r}")
        if list(payload.get("features", FEATURE_NAMES)) != list(FEATURE_NAMES):
            raise ValueError("scorer payload uses an unknown feature set")
        weights = payload["weights"]
        if type(weights) is not list or any(type(w) not in (int, float) for w in weights):
            raise ValueError(f"field 'weights' must be a list of JSON numbers, got {weights!r}")
        return cls(
            weights=np.array(weights, dtype=float),
            bias=json_field(payload, "bias", float),
            embeddings=embeddings,
        )

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
