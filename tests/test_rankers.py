"""BM25 and linear embedding scorers."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcert import (
    Bm25Model,
    Document,
    EmbeddingTable,
    LinearEmbedScorer,
    PerturbationSampler,
    Query,
    rank,
)
from rankcert.rankers import sigmoid

from conftest import make_doc, make_query, random_linear_model, random_world


@pytest.fixture
def toy_corpus():
    return {
        "d1": make_doc("d1", "cheap flights to paris"),
        "d2": make_doc("d2", "cheap hotels in paris tonight"),
        "d3": make_doc("d3", "train travel across europe"),
    }


def _oracle_bm25(corpus, query_terms, doc, k1, b):
    """Independent raw BM25: non-negative idf, distinct query terms."""
    n = len(corpus)
    avg_len = sum(d.length for d in corpus.values()) / n
    total = 0.0
    for term in sorted(set(query_terms)):
        df = sum(1 for d in corpus.values() if term in d.tokens)
        tf = sum(1 for t in doc.tokens if t == term)
        if tf == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        total += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * doc.length / avg_len))
    return total


class TestBm25:
    def test_hand_computed_scores_match(self, toy_corpus):
        q = make_query("q1", "cheap flights")
        model = Bm25Model.from_corpus(toy_corpus, k1=0.9, b=0.4)

        raws = {d: _oracle_bm25(toy_corpus, q.tokens, doc, 0.9, 0.4) for d, doc in toy_corpus.items()}
        c = sum(raws.values()) / len(raws)
        calibrated = model.calibrated([(q, doc) for doc in toy_corpus.values()])
        assert calibrated.squash_c == pytest.approx(c, abs=1e-12)
        for doc_id, doc in toy_corpus.items():
            expected = raws[doc_id] / (raws[doc_id] + c)
            assert calibrated.score(q, doc) == pytest.approx(expected, abs=1e-9)
        # Sanity: the oracle itself produced the intended ordering.
        assert raws["d1"] > raws["d2"] > raws["d3"] == 0.0

    def test_no_term_overlap_scores_squash_of_zero(self, toy_corpus):
        q = make_query("q1", "quantum mechanics")
        model = Bm25Model.from_corpus(toy_corpus, k1=0.9, b=0.4).calibrated(
            [(make_query("qc", "cheap flights"), d) for d in toy_corpus.values()]
        )
        assert model.score(q, toy_corpus["d3"]) == 0.0

    def test_verbatim_query_beats_disjoint_document(self, toy_corpus):
        q = make_query("q1", "cheap flights to paris")
        verbatim = toy_corpus["d1"]
        disjoint = toy_corpus["d3"]
        model = Bm25Model.from_corpus(toy_corpus, k1=0.9, b=0.4).calibrated(
            [(q, d) for d in toy_corpus.values()]
        )
        assert model.score(q, verbatim) > model.score(q, disjoint)

    def test_squash_is_monotone(self, toy_corpus):
        model = Bm25Model.from_corpus(toy_corpus).calibrated(
            [(make_query("q", "cheap paris"), d) for d in toy_corpus.values()]
        )
        c = model.squash_c
        raws = sorted(np.random.default_rng(0).uniform(0, 20, size=50))
        squashed = [r / (r + c) for r in raws]
        assert all(a < b for a, b in zip(squashed, squashed[1:]))
        assert all(0.0 <= s < 1.0 for s in squashed)

    def test_uncalibrated_score_raises(self, toy_corpus):
        model = Bm25Model.from_corpus(toy_corpus)
        with pytest.raises(RuntimeError, match="calibrat"):
            model.score(make_query("q", "cheap"), toy_corpus["d1"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            Bm25Model.from_corpus({})

    def test_parameter_validation(self, toy_corpus):
        with pytest.raises(ValueError):
            Bm25Model.from_corpus(toy_corpus, k1=0.0)
        with pytest.raises(ValueError):
            Bm25Model.from_corpus(toy_corpus, b=1.5)


class TestRank:
    def test_single_candidate_is_rank_one(self, toy_corpus):
        q = make_query("q1", "cheap flights")
        model = Bm25Model.from_corpus(toy_corpus).calibrated([(q, d) for d in toy_corpus.values()])
        ranked = rank(model, q, [toy_corpus["d1"]])
        assert ranked.rank_of("d1") == 1

    def test_equal_scores_tie_break_by_doc_id(self):
        world = random_world(np.random.default_rng(5))
        model = random_linear_model(np.random.default_rng(6), world.emb)
        q = make_query("q1", "anything here")
        d_b = make_doc("b", "zzz zzz")
        d_a = make_doc("a", "zzz zzz")
        ranked = rank(model, q, [d_b, d_a])
        assert ranked.doc_ids == ("a", "b")

    def test_order_matches_independent_sort(self):
        rng = np.random.default_rng(42)
        world = random_world(rng)
        model = random_linear_model(rng, world.emb)
        q = make_query("q1", " ".join(world.vocab[:2]))
        docs = [
            make_doc(f"d{i}", " ".join(str(t) for t in rng.choice(world.vocab, size=4)))
            for i in range(10)
        ]
        ranked = rank(model, q, docs)
        oracle = sorted(((d.id, model.score(q, d)) for d in docs), key=lambda p: (-p[1], p[0]))
        assert [(e.doc_id, e.score) for e in ranked.entries] == oracle

    def test_empty_candidates_rejected(self):
        world = random_world(np.random.default_rng(5))
        model = random_linear_model(np.random.default_rng(6), world.emb)
        with pytest.raises(ValueError):
            rank(model, make_query("q", "x"), [])


class TestLinearEmbedScorer:
    def test_scores_stay_in_open_unit_interval(self):
        rng = np.random.default_rng(9)
        world = random_world(rng)
        model = random_linear_model(rng, world.emb)
        q = make_query("q", " ".join(world.vocab[:3]))
        for i in range(20):
            doc = make_doc(f"d{i}", " ".join(str(t) for t in rng.choice(world.vocab, size=5)))
            s = model.score(q, doc)
            assert 0.0 < s < 1.0

    def test_oov_tokens_are_tolerated(self):
        emb = EmbeddingTable.from_pairs([("known", [1.0, 0.0])])
        model = LinearEmbedScorer.initial(emb)
        s = model.score(make_query("q", "unknown words"), make_doc("d", "also unknown"))
        assert s == 0.5  # zero weights, zero bias

    def test_non_finite_parameters_rejected(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0])])
        with pytest.raises(ValueError):
            LinearEmbedScorer(weights=np.array([np.inf, 0.0, 0.0]), bias=0.0, embeddings=emb)

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        world = random_world(rng)
        model = random_linear_model(rng, world.emb)
        path = tmp_path / "model.json"
        model.save(path)
        with open(path) as fh:
            loaded = LinearEmbedScorer.from_json_dict(json.load(fh), world.emb)
        assert np.allclose(loaded.weights, model.weights)
        assert loaded.bias == model.bias


# -- bit-identity against the original per-call formulas ----------------------


def _reference_linear_score(model: LinearEmbedScorer, query: Query, doc: Document) -> float:
    """The linear scorer as first written: list-of-vectors mean pooling and
    both sides recomputed on every call."""
    emb = model.embeddings

    def pool(tokens):
        vecs = [emb[t] for t in tokens if t in emb]
        if not vecs:
            return np.zeros(emb.dim)
        return np.mean(vecs, axis=0)

    qv = pool(query.tokens)
    dv = pool(doc.tokens)
    qn = float(np.linalg.norm(qv))
    dn = float(np.linalg.norm(dv))
    cos = float(np.dot(qv, dv) / (qn * dn)) if qn > 0 and dn > 0 else 0.0
    q_terms = set(query.tokens)
    coverage = len(q_terms.intersection(doc.tokens)) / len(q_terms)
    density = sum(1 for t in doc.tokens if t in q_terms) / doc.length
    features = np.array([cos, coverage, density])
    return sigmoid(float(np.dot(model.weights, features)) + model.bias)


def _reference_bm25_score(model: Bm25Model, query: Query, doc: Document) -> float:
    """BM25 as first written: a Counter of the whole document."""
    from collections import Counter

    tf = Counter(doc.tokens)
    norm = model.k1 * (1.0 - model.b + model.b * doc.length / model.avg_len)
    total = 0.0
    for term in sorted(set(query.tokens)):
        f = tf.get(term, 0)
        if f == 0:
            continue
        df = model.doc_freq.get(term, 0)
        idf = math.log(1.0 + (model.n_docs - df + 0.5) / (df + 0.5))
        total += idf * f * (model.k1 + 1.0) / (f + norm)
    return total / (total + model.squash_c)


def _identity_cases(seed: int):
    """Queries and perturbed documents over a random world: repeated and
    out-of-vocabulary query terms, documents with OOV tokens and one made of
    OOV tokens only."""
    rng = np.random.default_rng(seed)
    world = random_world(rng, max_vocab=40)
    vocab = list(world.vocab)
    queries = [
        Query("q1", (vocab[0], vocab[1], vocab[0], "oov-q")),
        Query("q2", tuple(str(t) for t in rng.choice(vocab, size=3))),
    ]
    sampler = PerturbationSampler(world.lexicon)
    docs = [Document("oov", ("oov-a", "oov-b", "oov-a"))]
    for i in range(12):
        tokens = [str(t) for t in rng.choice(vocab, size=int(rng.integers(3, 40)))]
        if i % 3 == 0:
            tokens.insert(int(rng.integers(0, len(tokens))), "oov-d")
        doc = Document(f"d{i}", tuple(tokens))
        docs.append(doc)
        docs.extend(sampler.sample(doc, rng) for _ in range(3))
    docs.append(Document("q1-verbatim", queries[0].tokens))
    return rng, world, queries, docs


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_linear_scores_are_bit_identical_to_reference(seed):
    rng, world, queries, docs = _identity_cases(seed)
    model = random_linear_model(rng, world.emb)
    retrained = model.with_params(rng.normal(0.0, 3.0, size=3), float(rng.normal()))
    # Interleave the two queries and both scorers over every document.
    for doc in docs:
        for scorer in (model, retrained):
            for query in queries:
                assert scorer.score(query, doc) == _reference_linear_score(scorer, query, doc)
    oov_doc = docs[0]
    assert model.features(queries[0], oov_doc)[0] == 0.0


def test_linear_scores_are_bit_identical_on_wide_embeddings():
    rng = np.random.default_rng(44)
    emb = EmbeddingTable.from_pairs(
        (f"t{i}", rng.normal(size=32)) for i in range(300)
    )
    vocab = [f"t{i}" for i in range(300)]
    model = random_linear_model(rng, emb)
    queries = [Query(f"q{i}", tuple(rng.choice(vocab, size=4).tolist())) for i in range(3)]
    for i in range(40):
        doc = Document(f"d{i}", tuple(rng.choice(vocab, size=int(rng.integers(50, 101))).tolist()))
        for query in queries:
            assert model.score(query, doc) == _reference_linear_score(model, query, doc)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bm25_scores_are_bit_identical_to_reference(seed):
    _, _, queries, docs = _identity_cases(seed)
    corpus = {d.id: d for d in docs[::4]}
    model = Bm25Model.from_corpus(corpus).calibrated(
        [(q, d) for q in queries for d in corpus.values()]
    )
    for doc in docs:
        for query in queries:
            assert model.score(query, doc) == _reference_bm25_score(model, query, doc)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_rank_positions_are_score_sorted(seed):
    rng = np.random.default_rng(seed)
    world = random_world(rng)
    model = random_linear_model(rng, world.emb)
    q = make_query("q", " ".join(str(t) for t in rng.choice(world.vocab, size=2)))
    docs = [
        make_doc(f"d{i}", " ".join(str(t) for t in rng.choice(world.vocab, size=3)))
        for i in range(6)
    ]
    ranked = rank(model, q, docs)
    scores = [e.score for e in ranked.entries]
    assert all(a >= b for a, b in zip(scores, scores[1:]))
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_shared_scorer_caches_give_the_same_scores_under_thread_contention():
    # The lazily built embedding rows and the query-side cache are filled
    # by whichever thread needs them first; every thread must still see the
    # single-threaded scores.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng, world, queries, docs = _identity_cases(5)
    shared = random_linear_model(rng, world.emb)
    expected = [_reference_linear_score(shared, q, d) for d in docs for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: [shared.score(q, d) for d in docs for q in queries])
                       for _ in range(16)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == expected for r in results)
