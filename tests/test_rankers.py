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
from rankcert.rankers import sigmoid, sigmoid_array

from conftest import draw, make_doc, make_query, random_linear_model, random_world


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

    def test_calibration_adds_left_to_right(self, toy_corpus):
        # A compensated sum (Python 3.12's built-in) would give
        # (1e16 + 2) / 3; the squash constant must not depend on the version.
        class Raw(Bm25Model):
            def raw_score(self, query, doc):
                return self.raws.pop(0)

        model = Raw.from_corpus(toy_corpus, k1=0.9, b=0.4)
        object.__setattr__(model, "raws", [1e16, 1.0, 1.0])
        q = make_query("q1", "cheap")
        calibrated = model.calibrated([(q, doc) for doc in toy_corpus.values()])
        assert calibrated.squash_c == ((1e16 + 1.0) + 1.0) / 3
        assert calibrated.squash_c != (1e16 + 2.0) / 3

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
        for k1 in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="k1 must be a finite positive number"):
                Bm25Model.from_corpus(toy_corpus, k1=k1)
        with pytest.raises(ValueError):
            Bm25Model.from_corpus(toy_corpus, b=1.5)

    @pytest.mark.parametrize("n_docs, avg_len, message", [
        (0, 1.0, "n_docs must be >= 1"),
        (-2, 1.0, "n_docs must be >= 1"),
        (3, 0.0, "avg_len must be a finite positive number"),
        (3, -1.0, "avg_len must be a finite positive number"),
        (3, math.nan, "avg_len must be a finite positive number"),
        (3, math.inf, "avg_len must be a finite positive number"),
    ])
    def test_statistics_are_checked_at_construction(self, n_docs, avg_len, message):
        with pytest.raises(ValueError, match=message):
            Bm25Model(k1=0.9, b=0.4, doc_freq={}, n_docs=n_docs, avg_len=avg_len)


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
        docs.extend(draw(sampler, doc, row) for row in sampler.picks(doc, rng, 3))
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


@pytest.mark.parametrize("dim", [1, 2, 3, 32, 48])
def test_linear_score_batch_equals_per_row_score_on_long_rows(dim):
    # Long rows over any member table, not only one a sampler builds, with
    # out-of-vocabulary members between known ones, in batches of 1, 1000
    # and 8 rows. At dim 1 numpy sums a document's rows pairwise once there
    # are 8 or more of them. The second model's decisions reach both
    # branches of ``sigmoid`` and its clamp at +-500.
    rng = np.random.default_rng(45)
    vocab = [f"t{i}" for i in range(300)]
    emb = EmbeddingTable.from_pairs((t, rng.normal(size=dim)) for t in vocab)
    models = [
        random_linear_model(rng, emb),
        LinearEmbedScorer(weights=np.array([900.0, 1500.0, -2000.0]), bias=-700.0, embeddings=emb),
    ]
    members = np.array([*vocab[:150], "oov-a", "oov-b"], dtype=object)
    queries = [Query(f"q{i}", tuple(rng.choice(members, size=4).tolist())) for i in range(3)]
    decisions = []
    for i, n in enumerate([1, 1000, *[8] * 18]):
        doc = Document(f"d{i}", tuple(rng.choice(vocab, size=int(rng.integers(50, 101))).tolist()))
        picks = rng.integers(0, len(members), size=(n, doc.length))
        for model in models:
            for query in queries:
                docs = [doc.with_tokens(members[row].tolist()) for row in picks]
                rows = [model.score(query, d) for d in docs]
                assert model.score_batch(query, doc, members, picks).tolist() == rows
                if model is models[1]:
                    decisions.extend(model.decision(query, d) for d in docs)
    assert min(decisions) < -500.0 and max(decisions) > 500.0
    assert any(-500.0 < z < 0.0 for z in decisions) and any(0.0 <= z < 500.0 for z in decisions)


def test_sigmoid_array_equals_sigmoid():
    # Both branches, signed zeros, the clamp at +-500 and just past it,
    # arguments where exp overflows (709.8) or underflows (-745) unclamped,
    # infinities and NaN, plus random decisions of every scale.
    past = [np.nextafter(500.0, np.inf), np.nextafter(-500.0, -np.inf)]
    special = [0.0, -0.0, 500.0, -500.0, *past, 1e300, -1e300, 709.0, 709.8, 710.0, -745.0,
               -745.2, -708.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 36.7, -36.7]
    rng = np.random.default_rng(3)
    z = np.array([*special, *rng.normal(0.0, 1.0, 500), *rng.normal(0.0, 300.0, 500),
                  *(rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200))])
    batch = sigmoid_array(z)
    reference = np.array([sigmoid(v) for v in z.tolist()])
    assert np.array_equal(batch, reference, equal_nan=True)
    finite = ~np.isnan(z)
    assert batch[finite].tolist() == reference[finite].tolist()
    assert np.array_equal(batch[finite].view(np.uint64), reference[finite].view(np.uint64))
    assert np.isnan(batch[special.index(np.nan)])


@pytest.mark.parametrize("dim", [2, 3, 32, 48])
def test_stacked_matmul_slices_equal_np_dot(dim):
    # ``LinearEmbedScorer.score_batch`` keeps ``score``'s bits only because
    # numpy runs each (1, k) @ (k, 1) slice of a stacked matmul through the
    # kernel of ``np.dot`` on two vectors. Its norms and query dots have
    # k = dim and its decisions k = 3.
    rng = np.random.default_rng(dim)
    q = rng.normal(size=dim)
    for n in (1, 2, 7, 32, 1000):
        rows = rng.normal(size=(n, dim)) / rng.integers(1, 100)
        assert np.matmul(rows[:, None, :], rows[:, :, None]).ravel().tolist() == [
            np.dot(v, v) for v in rows]
        assert np.matmul(rows[:, None, :], q[:, None]).ravel().tolist() == [
            np.dot(q, v) for v in rows]


def test_linear_score_batch_keeps_the_pairwise_sum_of_one_dimensional_embeddings():
    # numpy sums these eight one-dimensional rows pairwise to 0.0, while a
    # running sum gives 2.0: the cosine would read 1 instead of 0.
    emb = EmbeddingTable.from_pairs(
        [("a", np.array([1e16])), ("b", np.array([-1e16])), ("c", np.array([1.0]))])
    model = LinearEmbedScorer(weights=np.array([2.0, 0.5, 0.5]), bias=-1.0, embeddings=emb)
    doc = Document("d", ("a", "a", "a", "b", "b", "b", "c", "c"))
    members = np.array([*doc.tokens, "oov"], dtype=object)
    picks = np.array([[0, 1, 2, 3, 4, 5, 6, 7], [0, 8, 2, 3, 4, 5, 6, 7]])
    query = Query("q", ("c",))
    assert model.features(query, doc)[0] == 0.0
    rows = [model.score(query, doc.with_tokens(members[row].tolist())) for row in picks]
    assert model.score_batch(query, doc, members, picks).tolist() == rows


def _batches(seed: int, n: int = 16):
    """(document, its member table, pick matrix) for every document of
    ``_identity_cases``: out-of-vocabulary members, and one document with no
    in-vocabulary token at all."""
    rng, world, queries, docs = _identity_cases(seed)
    sampler = PerturbationSampler(world.lexicon)
    batches = [(doc, sampler.table(doc.tokens)[0], sampler.picks(doc, rng, n)) for doc in docs]
    return rng, world, queries, sampler, batches


def _bm25_of(queries, batches):
    corpus = {doc.id: doc for doc, _, _ in batches[::4]}
    return Bm25Model.from_corpus(corpus).calibrated(
        [(q, d) for q in queries for d in corpus.values()])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_linear_score_batch_equals_per_row_score(seed):
    rng, world, queries, sampler, batches = _batches(seed)
    model = random_linear_model(rng, world.emb)
    # q1 repeats a term and holds an unknown one; q3 has no known term, so
    # its pooled vector is zero (qn = 0).
    queries = [*queries, Query("q3", ("oov-x", "oov-y", "oov-x"))]
    assert batches[0][0].id == "oov" and not any(t in world.emb.index for t in batches[0][0].tokens)
    for doc, members, picks in batches:
        for query in queries:
            batch = model.score_batch(query, doc, members, picks)
            expected = [model.score(query, draw(sampler, doc, row)) for row in picks]
            assert batch.tolist() == expected


@pytest.mark.parametrize("seed", [0, 1])
def test_bm25_default_score_batch_equals_per_row_score(seed):
    _, _, queries, sampler, batches = _batches(seed)
    model = _bm25_of(queries, batches)
    for doc, members, picks in batches:
        for query in queries:
            batch = model.score_batch(query, doc, members, picks)
            assert batch.tolist() == [model.score(query, draw(sampler, doc, row)) for row in picks]


@pytest.mark.parametrize("seed", [0, 1])
def test_score_batch_reads_rows_from_their_members_alone(seed):
    # The members, padded with words no row names (query terms and an
    # embedded word among them) and shuffled, with the picks remapped to
    # match, name the same documents: a row's score may depend on nothing
    # but the words it indexes, not on where they sit in the array.
    rng, world, queries, _, batches = _batches(seed)
    models = [random_linear_model(rng, world.emb), _bm25_of(queries, batches)]
    padding = [*queries[0].tokens, world.vocab[-1], "oov-pad"]
    for doc, members, picks in batches:
        padded = np.array([*members, *padding], dtype=object)
        order = rng.permutation(len(padded))
        moved = np.empty_like(order)
        moved[order] = np.arange(len(order))
        assert padded[order][moved[picks]].tolist() == members[picks].tolist()
        for model in models:
            for query in queries:
                assert (model.score_batch(query, doc, padded[order], moved[picks]).tolist()
                        == model.score_batch(query, doc, members, picks).tolist())


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


def test_bm25_scores_keep_models_and_queries_apart():
    # Two calibrated models over different corpora, each caching its own
    # query terms and idf, scored in turn with interleaved queries.
    _, _, queries, docs = _identity_cases(6)
    models = []
    for corpus_docs in (docs[::3], docs[1::2]):
        corpus = {d.id: d for d in corpus_docs}
        models.append(Bm25Model.from_corpus(corpus).calibrated(
            [(q, d) for q in queries for d in corpus.values()]))
    assert models[0].doc_freq != models[1].doc_freq
    for doc in docs:
        for model in models:
            for query in queries:
                assert model.score(query, doc) == _reference_bm25_score(model, query, doc)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_bm25_doc_freq_matches_a_per_term_count(seed):
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(int(rng.integers(1, 12)))]
    corpus = {}
    for i in range(int(rng.integers(1, 15))):
        length = 1 if i % 4 == 0 else int(rng.integers(1, 20))
        corpus[f"d{i}"] = Document(f"d{i}", tuple(str(t) for t in rng.choice(vocab, size=length)))
    expected = {}
    for doc in corpus.values():
        for term in set(doc.tokens):
            expected[term] = expected.get(term, 0) + 1
    model = Bm25Model.from_corpus(corpus)
    assert model.doc_freq == expected
    assert model.n_docs == len(corpus)
    assert model.avg_len == sum(d.length for d in corpus.values()) / len(corpus)


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
