"""Pairwise hinge training with noise augmentation."""

import re

import numpy as np
import pytest

from rankcert import (
    Document,
    EmbeddingTable,
    LinearEmbedScorer,
    PerturbationSampler,
    Query,
    TrainConfig,
    TrainingTriple,
    load_triples,
    train,
)
from rankcert.rankers import sigmoid
from rankcert.training import hinge_loss

from conftest import hand_lexicon, singleton_lexicon


@pytest.fixture
def separable_setup():
    """Positives contain the query words, negatives never do; the feature
    space is linearly separable by construction."""
    rng = np.random.default_rng(42)
    dim = 6
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    pairs = [(f"q{i}", basis[i]) for i in range(3)]
    pairs += [(f"n{i}", basis[3 + i]) for i in range(3)]
    emb = EmbeddingTable.from_pairs(pairs)
    lexicon = singleton_lexicon([t for t, _ in pairs])

    queries = {}
    corpus = {}
    triples = []
    for i in range(3):
        qid = f"query{i}"
        queries[qid] = Query(qid, (f"q{i}",))
        pos = Document(f"pos{i}", (f"q{i}", f"n{i}"))
        neg = Document(f"neg{i}", (f"n{(i + 1) % 3}", f"n{(i + 2) % 3}"))
        corpus[pos.id] = pos
        corpus[neg.id] = neg
        triples.append(TrainingTriple(qid, pos.id, neg.id))
    model = LinearEmbedScorer.initial(emb)
    return model, triples, corpus, queries, lexicon


class TestTrain:
    def test_loss_is_positive_and_decreases_on_separable_data(self, separable_setup):
        model, triples, corpus, queries, lexicon = separable_setup
        cfg = TrainConfig(epochs=50, learning_rate=0.5, seed=0, noise_enabled=False)
        result = train(model, triples, corpus, queries, lexicon, cfg)
        # Scores live in (0, 1), so the hinge can never reach zero.
        assert all(loss > 0 for loss in result.losses)
        assert result.losses[-1] < result.losses[0]

    def test_pairwise_accuracy_on_separable_data(self, separable_setup):
        model, triples, corpus, queries, lexicon = separable_setup
        cfg = TrainConfig(epochs=50, learning_rate=0.5, seed=0, noise_enabled=False)
        trained = train(model, triples, corpus, queries, lexicon, cfg).model
        correct = sum(
            1
            for t in triples
            if trained.score(queries[t.query_id], corpus[t.pos_id])
            > trained.score(queries[t.query_id], corpus[t.neg_id])
        )
        assert correct / len(triples) >= 0.95

    def test_zero_learning_rate_leaves_parameters_unchanged(self, separable_setup):
        model, triples, corpus, queries, lexicon = separable_setup
        cfg = TrainConfig(epochs=3, learning_rate=0.0, seed=0, noise_enabled=False)
        trained = train(model, triples, corpus, queries, lexicon, cfg).model
        assert np.array_equal(trained.weights, model.weights)
        assert trained.bias == model.bias

    def test_deterministic_given_seed(self, separable_setup):
        model, triples, corpus, queries, lexicon = separable_setup
        cfg = TrainConfig(epochs=10, learning_rate=0.5, seed=7)
        a = train(model, triples, corpus, queries, lexicon, cfg)
        b = train(model, triples, corpus, queries, lexicon, cfg)
        assert np.array_equal(a.model.weights, b.model.weights)
        assert a.losses == b.losses
        c = train(model, triples, corpus, queries, lexicon,
                  TrainConfig(epochs=10, learning_rate=0.5, seed=8))
        assert not np.array_equal(a.model.weights, c.model.weights)

    def test_input_model_is_not_mutated(self, separable_setup):
        model, triples, corpus, queries, lexicon = separable_setup
        before = model.weights.copy()
        train(model, triples, corpus, queries, lexicon,
              TrainConfig(epochs=5, learning_rate=0.5, seed=0))
        assert np.array_equal(model.weights, before)

    def test_warm_start_uses_given_parameters(self, separable_setup):
        model, triples, corpus, queries, lexicon = separable_setup
        seeded = model.with_params(np.array([5.0, 5.0, 5.0]), 2.0)
        cfg = TrainConfig(epochs=1, learning_rate=0.0, seed=0)
        warm = train(seeded, triples, corpus, queries, lexicon, cfg).model
        assert np.array_equal(warm.weights, seeded.weights)
        assert warm.bias == seeded.bias

    def test_non_finite_loss_aborts_with_diagnostic(self, separable_setup, monkeypatch):
        model, triples, corpus, queries, lexicon = separable_setup
        monkeypatch.setattr(
            LinearEmbedScorer, "features",
            lambda self, q, d: np.array([np.nan, 0.0, 0.0]),
        )
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train(model, triples, corpus, queries, lexicon,
                  TrainConfig(epochs=1, learning_rate=0.5, seed=0, noise_enabled=False))

    def test_unresolvable_triples_rejected(self, separable_setup):
        model, triples, corpus, queries, lexicon = separable_setup
        bad = triples + [TrainingTriple("query0", "pos0", "missing")]
        with pytest.raises(KeyError, match="missing"):
            train(model, bad, corpus, queries, lexicon,
                  TrainConfig(epochs=1, learning_rate=0.5, seed=0))
        with pytest.raises(ValueError):
            train(model, [], corpus, queries, lexicon,
                  TrainConfig(epochs=1, learning_rate=0.5, seed=0))


class TestGradient:
    def test_analytic_subgradient_matches_finite_differences(self, separable_setup):
        # Scores stay inside (0, 1), so the hinge never sits at its kink and
        # the loss is differentiable everywhere we evaluate it.
        model, triples, corpus, queries, lexicon = separable_setup
        rng = np.random.default_rng(3)
        triple = triples[0]
        q = queries[triple.query_id]
        pos = corpus[triple.pos_id]
        neg = corpus[triple.neg_id]
        phi_pos = model.features(q, pos)
        phi_neg = model.features(q, neg)

        def loss(theta: np.ndarray) -> float:
            w, b = theta[:3], theta[3]
            return hinge_loss(sigmoid(float(w @ phi_pos) + b), sigmoid(float(w @ phi_neg) + b))

        for _ in range(10):
            theta = rng.normal(scale=1.5, size=4)
            w, b = theta[:3], theta[3]
            s_pos = sigmoid(float(w @ phi_pos) + b)
            s_neg = sigmoid(float(w @ phi_neg) + b)
            analytic = np.empty(4)
            analytic[:3] = -s_pos * (1 - s_pos) * phi_pos + s_neg * (1 - s_neg) * phi_neg
            analytic[3] = -s_pos * (1 - s_pos) + s_neg * (1 - s_neg)
            numeric = np.empty(4)
            h = 1e-6
            for i in range(4):
                up = theta.copy()
                down = theta.copy()
                up[i] += h
                down[i] -= h
                numeric[i] = (loss(up) - loss(down)) / (2 * h)
            assert np.allclose(analytic, numeric, atol=1e-5)


class TestNoise:
    @pytest.fixture
    def noisy_lexicon(self):
        return hand_lexicon(
            {"a": {"a", "b"}, "b": {"a", "b"}, "n0": {"n0"}},
            {"a": ("a", "b"), "b": ("b", "a"), "n0": ("n0",)},
            j=2,
        )

    def test_noised_copies_stay_in_perturbation_sets(self, noisy_lexicon):
        doc = Document("d", ("a", "n0", "b"))
        sampler = PerturbationSampler(noisy_lexicon)
        seen = set()
        for out in sampler.draws(doc, np.random.default_rng(0), 50):
            seen.add(out.tokens)
            for w, r in zip(doc.tokens, out.tokens):
                assert r in noisy_lexicon.perturb_set(w)
        assert len(seen) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainingTriple("q", "same", "same")


def test_load_triples_parses_tsv(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("q1\tdpos\tdneg\nq2\ta\tb\n")
    triples = load_triples(path)
    assert triples == [TrainingTriple("q1", "dpos", "dneg"), TrainingTriple("q2", "a", "b")]
    bad = tmp_path / "bad.tsv"
    bad.write_text("q1 only-two\n")
    with pytest.raises(ValueError, match=":1"):
        load_triples(bad)


def test_load_triples_names_the_line_of_a_repeated_document(tmp_path):
    path = tmp_path / "triples.tsv"
    path.write_text("q1\td1\td2\nq1\td1\td1\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: .*repeats document 'd1'"):
        load_triples(path)
