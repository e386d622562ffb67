"""Perturbation sampling, exact smoothing, and Monte Carlo estimation."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from rankcert import (
    Document,
    PerturbationSampler,
    SmoothedModel,
    certify_topk,
    hoeffding_radius,
    make_ranked,
    smooth_rank,
    smoothed_score_exact,
    smoothed_score_mc,
)
from rankcert.smoothing import (
    ENUMERATION_CAP,
    SmoothedScore,
    derive_streams,
    enumerate_perturbations,
)

from conftest import (
    TokenTableModel,
    hand_lexicon,
    make_doc,
    make_query,
    random_doc,
    random_token_model,
    random_world,
    singleton_lexicon,
)
from oracles import perturbation_prob


@pytest.fixture
def two_by_three_lexicon():
    """Positions drawing from sets of size 2 and 3: p -> {p, p2}, q -> {q, q2, q3}."""
    return hand_lexicon(
        {
            "p": {"p", "p2"}, "p2": {"p", "p2"},
            "q": {"q", "q2", "q3"}, "q2": {"q", "q2", "q3"}, "q3": {"q", "q2", "q3"},
        },
        {
            "p": ("p", "p2"), "p2": ("p2", "p"),
            "q": ("q", "q2", "q3"), "q2": ("q2", "q", "q3"), "q3": ("q3", "q", "q2"),
        },
        j=3,
    )


class TestSamplePerturbed:
    def test_singleton_sets_return_the_document(self):
        lex = singleton_lexicon(["only", "words"])
        doc = make_doc("d", "only words")
        sampler = PerturbationSampler(lex)
        for row in sampler.picks(doc, np.random.default_rng(0), 10):
            assert sampler.sample(doc, row).tokens == doc.tokens

    def test_joint_outcomes_are_uniform(self, two_by_three_lexicon):
        # 2 x 3 = 6 outcomes; each should appear with frequency 1/6 within
        # 3 sigma over 60000 draws (sigma = sqrt(p(1-p)/n)).
        doc = Document("d", ("p", "q"))
        rng = np.random.default_rng(20240817)
        n = 60000
        sampler = PerturbationSampler(two_by_three_lexicon)
        counts = Counter(sampler.sample(doc, row).tokens for row in sampler.picks(doc, rng, n))
        assert len(counts) == 6
        p = 1.0 / 6.0
        bound = 3.0 * math.sqrt(p * (1 - p) / n)
        for outcome, c in counts.items():
            assert abs(c / n - p) <= bound, f"{outcome}: freq {c / n}"

    def test_fixed_seed_reproduces_output(self, two_by_three_lexicon):
        doc = Document("d", ("p", "q"))
        a, b = (
            PerturbationSampler(two_by_three_lexicon).picks(doc, np.random.default_rng(7), 5)
            for _ in range(2)
        )
        assert a.dtype == np.int32 and a.shape == (5, 2)
        assert np.array_equal(a, b)

    def test_samples_stay_in_perturbation_sets(self, two_by_three_lexicon):
        doc = Document("d", ("q", "p", "q"))
        sampler = PerturbationSampler(two_by_three_lexicon)
        for row in sampler.picks(doc, np.random.default_rng(3), 100):
            out = sampler.sample(doc, row)
            assert out.length == doc.length
            for w, r in zip(doc.tokens, out.tokens):
                assert r in two_by_three_lexicon.perturb_set(w)


def _mixed_size_lexicon():
    """One cluster per set size in {1, 2, 3, 4, 5, 7, 8}; sizes 3, 5 and 7
    make the bounded integer draw reject and redraw."""
    synonyms, perturb = {}, {}
    for size in (1, 2, 3, 4, 5, 7, 8):
        cluster = [f"s{size}_{i}" for i in range(size)]
        for i, w in enumerate(cluster):
            synonyms[w] = set(cluster)
            perturb[w] = tuple(cluster[i:] + cluster[:i])
    return hand_lexicon(synonyms, perturb, j=8)


def _one_row_draws(doc, lexicon, rng, n):
    """``n`` draws made with one ``integers`` call per row: the reference a
    pick matrix must reproduce."""
    sizes = np.array([len(lexicon.perturb_set(w)) for w in doc.tokens])
    offsets = np.cumsum(sizes) - sizes
    return np.stack([offsets + rng.integers(0, sizes) for _ in range(n)])


class TestPickMatrix:
    @pytest.mark.parametrize("n", [1, 2, 257])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_one_row_draws_in_order(self, n, seed):
        lexicon = _mixed_size_lexicon()
        gen = np.random.default_rng(seed)
        vocab = sorted(lexicon.perturb)
        docs = [
            Document("mixed", tuple(str(w) for w in gen.choice(vocab, size=int(gen.integers(1, 60))))),
            Document("singletons", ("s1_0", "oov", "s1_0")),
        ]
        sampler = PerturbationSampler(lexicon)
        for doc in docs:
            ours, oracle = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
            for _ in range(3):
                picks = sampler.picks(doc, ours, n)
                assert picks.shape == (n, doc.length)
                assert np.array_equal(picks, _one_row_draws(doc, lexicon, oracle, n))
                # Interleaved use of the generator, as training makes, stays in step.
                assert np.array_equal(ours.permutation(7), oracle.permutation(7))
            assert _draws(ours) == _draws(oracle)

    def test_rows_name_the_sampled_documents(self, two_by_three_lexicon):
        doc = Document("d", ("q", "p", "q"))
        sampler = PerturbationSampler(two_by_three_lexicon)
        picks = sampler.picks(doc, np.random.default_rng(4), 20)
        members = [w for t in doc.tokens for w in two_by_three_lexicon.perturb_set(t)]
        for row in picks:
            assert sampler.sample(doc, row).tokens == tuple(members[i] for i in row)


class TestPerturbationProb:
    def test_identity_with_singletons_is_one(self):
        lex = singleton_lexicon(["a", "b"])
        doc = make_doc("d", "a b")
        assert perturbation_prob(doc, doc, lex) == 1.0

    def test_two_by_three_gives_one_sixth(self, two_by_three_lexicon):
        doc = Document("d", ("p", "q"))
        r = Document("d", ("p2", "q3"))
        assert perturbation_prob(doc, r, two_by_three_lexicon) == pytest.approx(1 / 6)

    def test_outside_token_gives_zero(self, two_by_three_lexicon):
        doc = Document("d", ("p", "q"))
        r = Document("d", ("p", "zzz"))
        assert perturbation_prob(doc, r, two_by_three_lexicon) == 0.0

    def test_length_mismatch_is_an_error(self, two_by_three_lexicon):
        with pytest.raises(ValueError, match="length"):
            perturbation_prob(Document("d", ("p",)), Document("d", ("p", "q")), two_by_three_lexicon)


class TestSmoothedExact:
    def test_singleton_space_returns_base_score(self):
        lex = singleton_lexicon(["a", "b"])
        doc = make_doc("d", "a b")
        model = TokenTableModel({("a", "b"): 0.77})
        assert smoothed_score_exact(model, make_query("q", "x"), doc, lex) == 0.77

    def test_two_outcome_space_averages(self, two_by_three_lexicon):
        doc = Document("d", ("p",))
        model = TokenTableModel({("p",): 0.2, ("p2",): 0.6})
        value = smoothed_score_exact(model, make_query("q", "x"), doc, two_by_three_lexicon)
        assert value == pytest.approx(0.4)

    def test_twelve_outcome_space_matches_per_outcome_mean(self, two_by_three_lexicon):
        # 2 x 3 x 2 = 12 outcomes scored independently in the test.
        doc = Document("d", ("p", "q", "p2"))
        rng = np.random.default_rng(8)
        table = {}
        for tokens in itertools.product(("p", "p2"), ("q", "q2", "q3"), ("p2", "p")):
            table[tokens] = float(rng.random())
        model = TokenTableModel(table)
        oracle = sum(table.values()) / 12
        value = smoothed_score_exact(model, make_query("q", "x"), doc, two_by_three_lexicon)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_cap_exceeded_mentions_monte_carlo(self, two_by_three_lexicon):
        # Twenty positions drawing from sets of size 2: 2^20 outcomes, above
        # the cap. The size is counted, not enumerated.
        doc = Document("d", tuple(["p"] * 20))
        assert two_by_three_lexicon.space_size(doc.tokens) == 2**20 > ENUMERATION_CAP
        model = TokenTableModel({})
        q = make_query("q", "x")
        with pytest.raises(ValueError, match="Monte Carlo"):
            smoothed_score_exact(model, q, doc, two_by_three_lexicon)
        # An exact certificate estimates the rank-K document the same way.
        ranked = make_ranked("q", [("d", 0.5), ("e", 0.4)])
        docs = {"d": doc, "e": Document("e", ("q",))}
        with pytest.raises(ValueError, match="Monte Carlo"):
            certify_topk(SmoothedModel(model, two_by_three_lexicon, n=None), q, ranked, docs,
                         k=1, delta=1.0)


class TestHoeffdingRadius:
    def test_reproduces_published_error_budget(self):
        r = hoeffding_radius(1000, 0.05)
        assert r == pytest.approx(math.sqrt(math.log(2 / 0.05) / 2000), abs=0)
        assert r == pytest.approx(0.042947, abs=5e-6)
        # Two estimates enter the margin, so the total error budget is 2r,
        # which reproduces the documented 0.086 to three decimals.
        assert abs(2 * r - 0.086) < 5e-4
        assert round(2 * r, 3) == 0.086

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hoeffding_radius(0, 0.05)
        with pytest.raises(ValueError):
            hoeffding_radius(10, 0.0)


class TestSmoothedMc:
    def test_degenerate_space_returns_base_score(self):
        lex = singleton_lexicon(["a", "b"])
        doc = make_doc("d", "a b")
        model = TokenTableModel({("a", "b"): 0.31})
        for n in (1, 7, 100):
            est = smoothed_score_mc(model, make_query("q", "x"), doc, lex, n=n, alpha=0.05)
            assert est.mean == pytest.approx(0.31, abs=1e-15)
            assert est.n == n

    def test_reproducible_given_seed(self, two_by_three_lexicon):
        doc = Document("d", ("p", "q"))
        model = TokenTableModel(
            {t: float(i) / 6 for i, t in enumerate(itertools.product(("p", "p2"), ("q", "q2", "q3")))}
        )
        q = make_query("q1", "x")
        a = smoothed_score_mc(model, q, doc, two_by_three_lexicon, n=200, root_seed=5)
        b = smoothed_score_mc(model, q, doc, two_by_three_lexicon, n=200, root_seed=5)
        c = smoothed_score_mc(model, q, doc, two_by_three_lexicon, n=200, root_seed=6)
        assert a.mean == b.mean
        assert a.mean != c.mean

    def test_coverage_against_exact_oracle(self, two_by_three_lexicon):
        # |MC - exact| <= radius must hold in >= 95% of seeded trials
        # (Hoeffding at alpha = 0.05 guarantees it with margin).
        doc = Document("d", ("p", "q", "p2"))
        rng = np.random.default_rng(99)
        table = {
            tokens: float(rng.random())
            for tokens in itertools.product(("p", "p2"), ("q", "q2", "q3"), ("p2", "p"))
        }
        model = TokenTableModel(table)
        q = make_query("q1", "x")
        exact = smoothed_score_exact(model, q, doc, two_by_three_lexicon)
        n, alpha = 1000, 0.05
        radius = hoeffding_radius(n, alpha)
        hits = 0
        trials = 200
        for seed in range(trials):
            est = smoothed_score_mc(model, q, doc, two_by_three_lexicon, n=n, alpha=alpha,
                                    root_seed=seed)
            if abs(est.mean - exact) <= radius:
                hits += 1
        assert hits / trials >= 0.95

    def test_estimate_is_pinned(self, two_by_three_lexicon):
        # Computed with one ``integers`` call per draw; any change to how the
        # estimate consumes its stream moves it.
        doc = Document("d1", ("p", "q", "p2", "q3"))
        outcomes = list(enumerate_perturbations(doc, two_by_three_lexicon))
        model = TokenTableModel({t: i / (len(outcomes) - 1) for i, t in enumerate(outcomes)})
        est = smoothed_score_mc(model, make_query("q1", "x"), doc, two_by_three_lexicon,
                                n=257, root_seed=2024)
        assert est.mean == float.fromhex("0x1.e92cc49a7b75fp-2")

    @pytest.mark.parametrize("n,alpha", [(0, 0.05), (-3, 0.05), (5, 0.0), (5, 1.0)])
    def test_bad_n_or_alpha_fails_before_any_draw(self, two_by_three_lexicon, n, alpha):
        calls = []

        class Counting(TokenTableModel):
            def score(self, query, doc):
                calls.append(doc)
                return 0.5

        with pytest.raises(ValueError, match="n must be|alpha must be"):
            smoothed_score_mc(Counting({}), make_query("q1", "x"), Document("d", ("p", "q")),
                              two_by_three_lexicon, n=n, alpha=alpha)
        assert calls == []

    def test_error_shrinks_with_sample_count(self, two_by_three_lexicon):
        # Median |MC - exact| over 50 seeds must be non-increasing as n grows
        # by decades.
        doc = Document("d", ("p", "q"))
        model = TokenTableModel(
            {t: float(i) / 6 for i, t in enumerate(itertools.product(("p", "p2"), ("q", "q2", "q3")))}
        )
        q = make_query("q1", "x")
        exact = smoothed_score_exact(model, q, doc, two_by_three_lexicon)
        medians = []
        for n in (100, 1000, 10000):
            errs = [
                abs(smoothed_score_mc(model, q, doc, two_by_three_lexicon, n=n,
                                      root_seed=seed).mean - exact)
                for seed in range(50)
            ]
            medians.append(float(np.median(errs)))
        assert medians[0] >= medians[1] >= medians[2]


def _draws(gen: np.random.Generator, count: int = 8) -> list[int]:
    return [int(gen.integers(0, 1 << 30)) for _ in range(count)]


class TestStreams:
    BASE = (0, "q1", "d1", ("x", "y"))

    def test_same_inputs_give_the_same_draws(self):
        a = derive_streams(*self.BASE)
        b = derive_streams(*self.BASE)
        assert isinstance(a, np.random.Generator)
        assert _draws(a) == _draws(b)

    @pytest.mark.parametrize(
        "changed",
        [
            (0, "q1", "d2", ("x", "y")),
            (0, "q1", "d1", ("x", "z")),
            (0, "q1", "d1", ("y", "x")),
            (0, "q2", "d1", ("x", "y")),
            (1, "q1", "d1", ("x", "y")),
        ],
        ids=["doc-id", "token", "token-order", "query-id", "root-seed"],
    )
    def test_each_input_changes_the_draws(self, changed):
        assert _draws(derive_streams(*changed)) != _draws(derive_streams(*self.BASE))

    def test_mc_draws_its_samples_from_one_stream_in_order(self, two_by_three_lexicon):
        doc = Document("d1", ("p", "q"))
        outcomes = list(enumerate_perturbations(doc, two_by_three_lexicon))
        model = TokenTableModel({t: i / 5 for i, t in enumerate(outcomes)})
        q = make_query("q1", "x")
        sampler = PerturbationSampler(two_by_three_lexicon)
        rng = derive_streams(3, "q1", "d1", doc.tokens)
        expected = np.mean(
            [model.score(q, sampler.sample(doc, sampler.picks(doc, rng, 1)[0])) for _ in range(50)]
        )
        est = smoothed_score_mc(model, q, doc, two_by_three_lexicon, n=50, root_seed=3)
        assert est.mean == expected

    def test_sampler_memo_keeps_documents_apart(self, two_by_three_lexicon):
        # One sampler alternating between documents, as noise training uses
        # it, must draw each document from that document's own sets only.
        sampler = PerturbationSampler(two_by_three_lexicon)
        first = Document("a", ("p", "q", "p"))
        second = Document("b", ("q", "q"))
        rng = np.random.default_rng(11)
        seen = {first.id: set(), second.id: set()}
        for _ in range(200):
            for doc in (first, second):
                out = sampler.sample(doc, sampler.picks(doc, rng, 1)[0])
                assert out.id == doc.id and out.length == doc.length
                for w, r in zip(doc.tokens, out.tokens):
                    assert r in two_by_three_lexicon.perturb_set(w)
                seen[doc.id].add(out.tokens)
        assert len(seen[first.id]) == 2 * 3 * 2
        assert len(seen[second.id]) == 3 * 3


class TestBaseScoreRange:
    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_mc_rejects_scores_outside_unit_interval(self, two_by_three_lexicon, bad):
        doc = Document("d7", ("p", "q"))
        model = TokenTableModel({("p2", "q3"): bad}, default=0.5)
        with pytest.raises(ValueError, match=r"'q9'.*'d7'"):
            smoothed_score_mc(model, make_query("q9", "x"), doc, two_by_three_lexicon, n=200)

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_exact_rejects_scores_outside_unit_interval(self, two_by_three_lexicon, bad):
        doc = Document("d7", ("p", "q"))
        model = TokenTableModel({("p2", "q3"): bad}, default=0.5)
        q = make_query("q9", "x")
        with pytest.raises(ValueError, match=r"'q9'.*'d7'"):
            smoothed_score_exact(model, q, doc, two_by_three_lexicon)
        with pytest.raises(ValueError, match=r"'q9'.*'d7'"):
            SmoothedModel(model, two_by_three_lexicon, n=None).score(q, doc)

    def test_unit_interval_endpoints_are_accepted(self, two_by_three_lexicon):
        doc = Document("d7", ("p", "q"))
        model = TokenTableModel({("p2", "q3"): 1.0}, default=0.0)
        q = make_query("q9", "x")
        assert smoothed_score_exact(model, q, doc, two_by_three_lexicon) == 1 / 6
        assert 0.0 <= smoothed_score_mc(model, q, doc, two_by_three_lexicon, n=100).mean <= 1.0


class TestSmoothRankAndModel:
    def test_smooth_rank_exact_matches_manual(self):
        rng = np.random.default_rng(31)
        world = random_world(rng, regime="mixed")
        docs = [random_doc(rng, world, f"d{i}") for i in range(5)]
        model = random_token_model(rng, world, docs)
        q = make_query("q1", "whatever")
        ranked = smooth_rank(SmoothedModel(model, world.lexicon, n=None), q, docs)
        for entry in ranked.entries:
            doc = next(d for d in docs if d.id == entry.doc_id)
            assert entry.score == pytest.approx(
                smoothed_score_exact(model, q, doc, world.lexicon), abs=0
            )

    def test_smoothed_model_exact_is_cached_and_consistent(self):
        rng = np.random.default_rng(32)
        world = random_world(rng, regime="mixed")
        doc = random_doc(rng, world, "d0")
        model = random_token_model(rng, world, [doc])
        q = make_query("q1", "whatever")
        smoothed = SmoothedModel(model, world.lexicon, n=None)
        first = smoothed.score(q, doc)
        assert first == smoothed.score(q, doc)
        assert first == pytest.approx(smoothed_score_exact(model, q, doc, world.lexicon), abs=0)
        assert smoothed.smoothed(q, doc) == SmoothedScore.exact(first)

    def test_smoothed_model_mc_matches_function(self):
        rng = np.random.default_rng(33)
        world = random_world(rng, regime="mixed")
        doc = random_doc(rng, world, "d0")
        model = random_token_model(rng, world, [doc])
        q = make_query("q1", "whatever")
        smoothed = SmoothedModel(model, world.lexicon, n=64, alpha=0.05, root_seed=17)
        expected = smoothed_score_mc(model, q, doc, world.lexicon, n=64, alpha=0.05, root_seed=17)
        assert smoothed.score(q, doc) == expected.mean

    def test_smoothed_model_mc_memo_keeps_doc_ids_apart(self):
        # Same tokens under two ids draw from different streams, so they get
        # different estimates; the memo must not hand one id's to the other.
        rng = np.random.default_rng(33)
        world = random_world(rng, regime="mixed")
        doc = random_doc(rng, world, "d0")
        twin = Document("d1", doc.tokens)
        model = random_token_model(rng, world, [doc])
        q = make_query("q1", "whatever")
        smoothed = SmoothedModel(model, world.lexicon, n=64, alpha=0.05, root_seed=17)
        expected = [
            smoothed_score_mc(model, q, d, world.lexicon, n=64, alpha=0.05, root_seed=17).mean
            for d in (doc, twin)
        ]
        assert expected[0] != expected[1]
        assert [smoothed.score(q, d) for d in (doc, twin)] == expected


def test_enumerate_perturbations_covers_product_space(two_by_three_lexicon):
    doc = Document("d", ("p", "q"))
    outcomes = list(enumerate_perturbations(doc, two_by_three_lexicon))
    assert len(outcomes) == 6
    assert len(set(outcomes)) == 6
    for tokens in outcomes:
        assert tokens[0] in ("p", "p2")
        assert tokens[1] in ("q", "q2", "q3")
