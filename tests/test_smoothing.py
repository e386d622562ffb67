"""Perturbation sampling, exact smoothing, and Monte Carlo estimation."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from rankcert import (
    Bm25Model,
    Document,
    EmbeddingTable,
    Lexicon,
    LinearEmbedScorer,
    PerturbationSampler,
    Query,
    ScoreModel,
    SmoothedModel,
    certify_topk,
    hoeffding_radius,
    make_ranked,
    smooth_rank,
    smoothed_score_mc,
)
from rankcert.smoothing import (
    _BLOCK_ROWS,
    ENUMERATION_CAP,
    SmoothedScore,
    derive_streams,
    enumerate_perturbations,
    token_fingerprint,
)

from conftest import (
    TokenTableModel,
    draw,
    hand_lexicon,
    make_doc,
    make_query,
    random_doc,
    random_linear_model,
    random_token_model,
    random_world,
    singleton_lexicon,
)
from oracles import exact_smoothed_score, perturbation_prob


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
            assert draw(sampler, doc, row).tokens == doc.tokens

    def test_joint_outcomes_are_uniform(self, two_by_three_lexicon):
        # 2 x 3 = 6 outcomes; each should appear with frequency 1/6 within
        # 3 sigma over 60000 draws (sigma = sqrt(p(1-p)/n)).
        doc = Document("d", ("p", "q"))
        rng = np.random.default_rng(20240817)
        n = 60000
        sampler = PerturbationSampler(two_by_three_lexicon)
        counts = Counter(draw(sampler, doc, row).tokens for row in sampler.picks(doc, rng, n))
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
            out = draw(sampler, doc, row)
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
            assert draw(sampler, doc, row).tokens == tuple(members[i] for i in row)


class TestSamplerTable:
    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_tables_name_the_perturbation_sets(self, seed):
        rng = np.random.default_rng(seed)
        world = random_world(rng, regime="loose")
        sampler = PerturbationSampler(world.lexicon)
        for _ in range(5):
            tokens = tuple(str(t) for t in rng.choice([*world.vocab, "new-a", "new-c"], size=12))
            members, sizes, offsets = sampler.table(tokens)
            assert members.dtype == object and sizes.dtype == offsets.dtype == np.int32
            sets = [world.lexicon.perturb_set(t) for t in tokens]
            assert members.tolist() == [w for t in sets for w in t]
            assert sizes.tolist() == list(map(len, sets))
            assert offsets.tolist() == np.cumsum([0, *sizes[:-1]]).tolist()
            assert sampler.table(tokens) is sampler.table(tokens)

    def test_a_member_outside_the_vocabulary_is_its_own_set(self):
        # "z" is only a member of T_b, and "oov" is in no set at all.
        lexicon = hand_lexicon({"b": {"b", "z"}, "a": {"a"}}, {"b": ("b", "z"), "a": ("a",)}, j=2)
        members, sizes, offsets = PerturbationSampler(lexicon).table(("b", "z", "a", "oov"))
        assert members.tolist() == ["b", "z", "z", "a", "oov"]
        assert sizes.tolist() == [2, 1, 1, 1] and offsets.tolist() == [0, 2, 3, 4]

    def test_an_empty_lexicon_gives_every_token_its_own_set(self):
        sampler = PerturbationSampler(Lexicon(synonyms={}, perturb={}, j=1))
        members, sizes, offsets = sampler.table(("x", "y", "x"))
        assert members.tolist() == ["x", "y", "x"] and sizes.tolist() == [1, 1, 1]
        assert offsets.tolist() == [0, 1, 2]


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
        assert SmoothedModel(model, lex, n=None).score(make_query("q", "x"), doc) == 0.77

    def test_two_outcome_space_averages(self, two_by_three_lexicon):
        doc = Document("d", ("p",))
        model = TokenTableModel({("p",): 0.2, ("p2",): 0.6})
        value = SmoothedModel(model, two_by_three_lexicon, n=None).score(make_query("q", "x"), doc)
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
        value = SmoothedModel(model, two_by_three_lexicon, n=None).score(make_query("q", "x"), doc)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_cap_exceeded_mentions_monte_carlo(self, two_by_three_lexicon):
        # Twenty positions drawing from sets of size 2: 2^20 outcomes, above
        # the cap. The size is counted, not enumerated.
        doc = Document("d", tuple(["p"] * 20))
        assert two_by_three_lexicon.space_size(doc.tokens) == 2**20 > ENUMERATION_CAP
        model = TokenTableModel({})
        q = make_query("q", "x")
        with pytest.raises(ValueError, match="Monte Carlo"):
            SmoothedModel(model, two_by_three_lexicon, n=None).score(q, doc)
        # An exact certificate estimates the rank-K document the same way.
        ranked = make_ranked("q", [("d", 0.5), ("e", 0.4)])
        docs = {"d": doc, "e": Document("e", ("q",))}
        with pytest.raises(ValueError, match="Monte Carlo"):
            certify_topk(SmoothedModel(model, two_by_three_lexicon, n=None), q, ranked, docs,
                         k=1, delta=1.0)


class CountingScores(ScoreModel):
    """The wrapped model, recording the (query id, tokens) of each call."""

    def __init__(self, model):
        self.model = model
        self.calls = []

    def score(self, query, doc):
        self.calls.append((query.id, doc.tokens))
        return self.model.score(query, doc)


class QueryScores(ScoreModel):
    """A different score for every (query, token tuple): the query id's
    fingerprint mixed into the tuple's, scaled into [0, 1)."""

    def score(self, query, doc):
        return token_fingerprint((query.id, *doc.tokens)) / 2.0**64


class TestExactMemo:
    """``SmoothedModel(n=None)`` against ``exact_smoothed_score``, the
    in-order sum with no memo: every value must be equal, bit for bit, and
    each base score of a query is computed and range-checked once."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_in_order_reference_on_random_worlds(self, seed):
        rng = np.random.default_rng(500 + seed)
        world = random_world(rng)
        docs = [random_doc(rng, world, f"d{i}") for i in range(6)]
        query = Query("q1", tuple(str(t) for t in rng.choice(world.vocab, size=3)))
        models = [
            random_linear_model(rng, world.emb),
            random_token_model(rng, world, docs),
            Bm25Model.from_corpus({d.id: d for d in docs}, k1=0.9, b=0.4).calibrated(
                [(query, d) for d in docs]),
        ]
        for model in models:
            smoothed = SmoothedModel(model, world.lexicon, n=None)
            for doc in docs:
                assert smoothed.score(query, doc) == exact_smoothed_score(
                    model, query, doc, world.lexicon)

    def test_overlapping_spaces_score_each_outcome_once(self, two_by_three_lexicon):
        # p and p2 draw from one set, as do q and q2, so the two documents
        # have the same six outcomes.
        first, second = Document("d1", ("p", "q")), Document("d2", ("p2", "q2"))
        counting = CountingScores(FingerprintScores())
        smoothed = SmoothedModel(counting, two_by_three_lexicon, n=None)
        q = make_query("q1", "x")
        values = [smoothed.score(q, d) for d in (first, second)]
        assert values == [exact_smoothed_score(FingerprintScores(), q, d, two_by_three_lexicon)
                          for d in (first, second)]
        assert len(counting.calls) == len(set(counting.calls)) == 6
        assert set(smoothed._base_scores) == {"q1"}
        assert set(smoothed._base_scores["q1"]) == set(
            enumerate_perturbations(first, two_by_three_lexicon))

    def test_no_base_score_leaks_across_queries(self, two_by_three_lexicon):
        doc = Document("d1", ("p", "q", "p2"))
        queries = [make_query("q1", "x"), make_query("q2", "x")]
        counting = CountingScores(QueryScores())
        smoothed = SmoothedModel(counting, two_by_three_lexicon, n=None)
        values = [smoothed.score(q, doc) for q in queries]
        assert values == [exact_smoothed_score(QueryScores(), q, doc, two_by_three_lexicon)
                          for q in queries]
        assert values[0] != values[1]
        assert len(counting.calls) == len(set(counting.calls)) == 2 * 12

    @pytest.mark.parametrize("bad", [1.5, float("nan")])
    def test_a_rejected_score_is_never_memoized(self, two_by_three_lexicon, bad):
        first, second = Document("d1", ("p", "q")), Document("d2", ("p2", "q2"))
        model = CountingScores(TokenTableModel({("p2", "q3"): bad}, default=0.5))
        smoothed = SmoothedModel(model, two_by_three_lexicon, n=None)
        q = make_query("q1", "x")
        with pytest.raises(ValueError, match=r"'q1'.*'d1'"):
            smoothed.score(q, first)
        assert ("p2", "q3") not in smoothed._base_scores["q1"]
        with pytest.raises(ValueError, match=r"'q1'.*'d2'"):
            smoothed.score(q, second)
        assert ("p2", "q3") not in smoothed._base_scores["q1"]
        assert model.calls.count(("q1", ("p2", "q3"))) == 2
        assert smoothed._memo == {}


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
            smoothed = SmoothedModel(model, lex, n=n, alpha=0.05)
            est = smoothed_score_mc(smoothed, make_query("q", "x"), doc)
            assert est.mean == pytest.approx(0.31, abs=1e-15)
            assert est.n == n

    def test_reproducible_given_seed(self, two_by_three_lexicon):
        doc = Document("d", ("p", "q"))
        model = TokenTableModel(
            {t: float(i) / 6 for i, t in enumerate(itertools.product(("p", "p2"), ("q", "q2", "q3")))}
        )
        q = make_query("q1", "x")
        a = smoothed_score_mc(SmoothedModel(model, two_by_three_lexicon, n=200, root_seed=5), q, doc)
        b = smoothed_score_mc(SmoothedModel(model, two_by_three_lexicon, n=200, root_seed=5), q, doc)
        c = smoothed_score_mc(SmoothedModel(model, two_by_three_lexicon, n=200, root_seed=6), q, doc)
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
        exact = SmoothedModel(model, two_by_three_lexicon, n=None).score(q, doc)
        n, alpha = 1000, 0.05
        radius = hoeffding_radius(n, alpha)
        hits = 0
        trials = 200
        for seed in range(trials):
            smoothed = SmoothedModel(model, two_by_three_lexicon, n=n, alpha=alpha, root_seed=seed)
            est = smoothed_score_mc(smoothed, q, doc)
            if abs(est.mean - exact) <= radius:
                hits += 1
        assert hits / trials >= 0.95

    def test_estimate_is_pinned(self, two_by_three_lexicon):
        # Computed with one ``integers`` call per draw; any change to how the
        # estimate consumes its stream moves it.
        doc = Document("d1", ("p", "q", "p2", "q3"))
        outcomes = list(enumerate_perturbations(doc, two_by_three_lexicon))
        model = TokenTableModel({t: i / (len(outcomes) - 1) for i, t in enumerate(outcomes)})
        smoothed = SmoothedModel(model, two_by_three_lexicon, n=257, root_seed=2024)
        est = smoothed_score_mc(smoothed, make_query("q1", "x"), doc)
        assert est.mean == float.fromhex("0x1.e92cc49a7b75fp-2")

    @pytest.mark.parametrize("n,alpha", [(0, 0.05), (-3, 0.05), (5, 0.0), (5, 1.0)])
    def test_bad_n_or_alpha_fails_before_any_draw(self, two_by_three_lexicon, n, alpha):
        # The SmoothedModel checks its settings on construction, before any
        # base score, so no estimate can run with them.
        model = CountingScores(TokenTableModel({}, default=0.5))
        with pytest.raises(ValueError, match="n must be|alpha must be"):
            SmoothedModel(model, two_by_three_lexicon, n=n, alpha=alpha)
        assert model.calls == []

    def test_an_exact_model_is_not_estimated(self, two_by_three_lexicon):
        model = CountingScores(TokenTableModel({}, default=0.5))
        smoothed = SmoothedModel(model, two_by_three_lexicon, n=None)
        with pytest.raises(ValueError, match="n=None"):
            smoothed_score_mc(smoothed, make_query("q1", "x"), Document("d", ("p", "q")))
        assert model.calls == []
        assert smoothed._memo == {}

    @pytest.mark.parametrize("n,alpha", [(1, 0.5), (1000, 0.05), (257, 0.01)])
    def test_the_model_holds_the_radius_of_its_estimates(self, two_by_three_lexicon, n, alpha):
        smoothed = SmoothedModel(TokenTableModel({}, default=0.5), two_by_three_lexicon,
                                 n=n, alpha=alpha)
        assert smoothed.radius == hoeffding_radius(n, alpha)
        est = smoothed_score_mc(smoothed, make_query("q1", "x"), Document("d", ("p", "q")))
        assert (est.n, est.radius) == (n, smoothed.radius)
        exact = SmoothedModel(TokenTableModel({}, default=0.5), two_by_three_lexicon, n=None)
        assert exact.radius == 0.0

    def test_error_shrinks_with_sample_count(self, two_by_three_lexicon):
        # Median |MC - exact| over 50 seeds must be non-increasing as n grows
        # by decades.
        doc = Document("d", ("p", "q"))
        model = TokenTableModel(
            {t: float(i) / 6 for i, t in enumerate(itertools.product(("p", "p2"), ("q", "q2", "q3")))}
        )
        q = make_query("q1", "x")
        exact = SmoothedModel(model, two_by_three_lexicon, n=None).score(q, doc)
        medians = []
        for n in (100, 1000, 10000):
            errs = [
                abs(smoothed_score_mc(SmoothedModel(model, two_by_three_lexicon, n=n,
                                                    root_seed=seed), q, doc).mean - exact)
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

    # 129 draws fill two gather blocks of 64 and start a third.
    @pytest.mark.parametrize("n", [50, 64, 129])
    def test_mc_draws_its_samples_from_one_stream_in_order(self, two_by_three_lexicon, n):
        doc = Document("d1", ("p", "q"))
        outcomes = list(enumerate_perturbations(doc, two_by_three_lexicon))
        model = TokenTableModel({t: i / 5 for i, t in enumerate(outcomes)})
        q = make_query("q1", "x")
        sampler = PerturbationSampler(two_by_three_lexicon)
        rng = derive_streams(3, "q1", "d1", doc.tokens)
        expected = np.mean(
            [model.score(q, draw(sampler, doc, sampler.picks(doc, rng, 1)[0])) for _ in range(n)]
        )
        est = smoothed_score_mc(SmoothedModel(model, two_by_three_lexicon, n=n, root_seed=3),
                                q, doc)
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
                out = draw(sampler, doc, sampler.picks(doc, rng, 1)[0])
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
            smoothed_score_mc(SmoothedModel(model, two_by_three_lexicon, n=200),
                              make_query("q9", "x"), doc)
        smoothed = SmoothedModel(model, two_by_three_lexicon, n=200)
        with pytest.raises(ValueError, match=r"'q9'.*'d7'"):
            smoothed.score_many(make_query("q9", "x"), [doc])

    @pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
    def test_exact_rejects_scores_outside_unit_interval(self, two_by_three_lexicon, bad):
        doc = Document("d7", ("p", "q"))
        model = TokenTableModel({("p2", "q3"): bad}, default=0.5)
        q = make_query("q9", "x")
        smoothed = SmoothedModel(model, two_by_three_lexicon, n=None)
        with pytest.raises(ValueError, match=r"'q9'.*'d7'"):
            smoothed.score(q, doc)
        with pytest.raises(ValueError, match=r"'q9'.*'d7'"):
            smoothed.score_many(q, [doc])

    def test_unit_interval_endpoints_are_accepted(self, two_by_three_lexicon):
        doc = Document("d7", ("p", "q"))
        model = TokenTableModel({("p2", "q3"): 1.0}, default=0.0)
        q = make_query("q9", "x")
        assert SmoothedModel(model, two_by_three_lexicon, n=None).score(q, doc) == 1 / 6
        mc = SmoothedModel(model, two_by_three_lexicon, n=100)
        assert 0.0 <= smoothed_score_mc(mc, q, doc).mean <= 1.0


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
            assert entry.score == exact_smoothed_score(model, q, doc, world.lexicon)

    def test_smoothed_model_exact_is_cached_and_consistent(self):
        rng = np.random.default_rng(32)
        world = random_world(rng, regime="mixed")
        doc = random_doc(rng, world, "d0")
        model = random_token_model(rng, world, [doc])
        q = make_query("q1", "whatever")
        smoothed = SmoothedModel(model, world.lexicon, n=None)
        first = smoothed.score(q, doc)
        assert first == smoothed.score(q, doc)
        assert first == exact_smoothed_score(model, q, doc, world.lexicon)
        assert SmoothedScore.exact(first) == SmoothedScore(first, n=0, radius=0.0)

    def test_smoothed_model_mc_matches_function(self):
        rng = np.random.default_rng(33)
        world = random_world(rng, regime="mixed")
        doc = random_doc(rng, world, "d0")
        model = random_token_model(rng, world, [doc])
        q = make_query("q1", "whatever")
        smoothed = SmoothedModel(model, world.lexicon, n=64, alpha=0.05, root_seed=17)
        expected = smoothed_score_mc(smoothed, q, doc)
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
        expected = [smoothed_score_mc(smoothed, q, d).mean for d in (doc, twin)]
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


class FingerprintScores(ScoreModel):
    """A varied score for every token tuple, with no table to fill: the
    tuple's fingerprint scaled into [0, 1). Batches go through the default
    per-row ``score_batch``."""

    def score(self, query, doc):
        return token_fingerprint(doc.tokens) / 2.0**64


class MarkedScores(ScoreModel):
    """0.5 for every document, or the value ``v`` of a word ``bad:v`` in it."""

    def score(self, query, doc):
        for word in doc.tokens:
            if word.startswith("bad:"):
                return float(word[4:])
        return 0.5


class CountingBatches(ScoreModel):
    """The wrapped model, recording the row count of each ``score_batch``
    call."""

    def __init__(self, model):
        self.model = model
        self.batches = []

    def score(self, query, doc):
        return self.model.score(query, doc)

    def score_batch(self, query, doc, members, rows):
        self.batches.append(len(rows))
        return self.model.score_batch(query, doc, members, rows)


def _counting_streams(monkeypatch):
    """Patch ``derive_streams`` to record the (doc id, tokens) of each call."""
    calls = []

    def counted(root_seed, query_id, doc_id, tokens):
        calls.append((doc_id, tuple(tokens)))
        return derive_streams(root_seed, query_id, doc_id, tokens)

    monkeypatch.setattr("rankcert.smoothing.derive_streams", counted)
    return calls


class TestScoreMany:
    """``SmoothedModel.score_many``, the batched path of the greedy attack,
    against ``score`` and ``smoothed_score_mc``, the per-draw reference. It
    stacks the draws of up to ``_BLOCK_ROWS // n`` consecutive trials of one
    document id and length into one ``score_batch`` call; every value must
    still equal the reference bit for bit."""

    @staticmethod
    def _world(seed):
        rng = np.random.default_rng(seed)
        world = random_world(rng, regime="mixed")
        docs = [random_doc(rng, world, f"d{i}") for i in range(6)]
        docs.append(Document("d0-twin", docs[0].tokens))
        return world, docs, random_token_model(rng, world, docs)

    @pytest.mark.parametrize("seed", [40, 41, 42])
    def test_fills_the_memo_that_score_reads(self, seed, monkeypatch):
        world, docs, model = self._world(seed)
        q = make_query("q1", "whatever")
        smoothed = SmoothedModel(model, world.lexicon, n=48, alpha=0.1, root_seed=5)
        expected = [smoothed_score_mc(smoothed, q, d).mean for d in docs]
        assert smoothed.score(q, docs[2]) == expected[2]
        assert smoothed.score_many(q, docs) == expected

        def no_estimate(*args, **kwargs):
            raise AssertionError("score estimated again instead of reading the memo")

        monkeypatch.setattr("rankcert.smoothing.smoothed_score_mc", no_estimate)
        assert [smoothed.score(q, d) for d in docs] == expected
        assert smoothed.score_many(q, docs) == expected

    def test_exact_model_falls_back_to_score(self):
        world, docs, model = self._world(43)
        q = make_query("q1", "whatever")
        smoothed = SmoothedModel(model, world.lexicon, n=None)
        values = smoothed.score_many(q, docs)
        assert values == [exact_smoothed_score(model, q, d, world.lexicon) for d in docs]
        assert values == [smoothed.score(q, d) for d in docs]

    @pytest.mark.parametrize("n, alpha", [(0, 0.05), (10, 0.0), (10, 1.0)])
    def test_bad_settings_are_rejected_on_construction(self, n, alpha):
        world, _, model = self._world(44)
        with pytest.raises(ValueError):
            SmoothedModel(model, world.lexicon, n=n, alpha=alpha)

    ALPHA, SEED = 0.1, 5

    @staticmethod
    def _trials(world, doc):
        """Every one-word substitution of ``doc`` from the vocabulary, in
        (position, word) order, as a greedy step lists its trials."""
        return [doc.with_tokens(doc.tokens[:i] + (w,) + doc.tokens[i + 1:])
                for i in range(doc.length) for w in world.vocab if w != doc.tokens[i]]

    @staticmethod
    def _bases(rng, world):
        return {"linear": random_linear_model(rng, world.emb), "fingerprint": FingerprintScores()}

    def _expected(self, base, world, q, docs, n):
        return [smoothed_score_mc(self._smoothed(base, world, n), q, d).mean for d in docs]

    def _smoothed(self, base, world, n):
        return SmoothedModel(base, world.lexicon, n=n, alpha=self.ALPHA, root_seed=self.SEED)

    @pytest.mark.parametrize("seed", [50, 51, 52])
    @pytest.mark.parametrize("kind", ["linear", "fingerprint"])
    def test_blocks_split_a_call(self, seed, kind):
        rng = np.random.default_rng(seed)
        world = random_world(rng, regime="loose")
        doc = random_doc(rng, world, "target", min_len=5, max_len=6)
        base = self._bases(rng, world)[kind]
        n = 48
        per_block = _BLOCK_ROWS // n
        assert per_block >= 2
        trials = self._trials(world, doc)[: 3 * per_block + 2]
        q = make_query("q1", " ".join(world.vocab[:3]))
        counting = CountingBatches(base)
        values = self._smoothed(counting, world, n).score_many(q, trials)
        assert values == self._expected(base, world, q, trials, n)
        assert counting.batches == [per_block * n] * 3 + [2 * n]

    @pytest.mark.parametrize("n", [_BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_n_at_or_above_the_cap_scores_one_trial_per_call(self, n):
        rng = np.random.default_rng(53)
        world = random_world(rng, regime="loose")
        doc = random_doc(rng, world, "target", min_len=4, max_len=5)
        base = random_linear_model(rng, world.emb)
        trials = self._trials(world, doc)[:3]
        q = make_query("q1", " ".join(world.vocab[:3]))
        counting = CountingBatches(base)
        values = self._smoothed(counting, world, n).score_many(q, trials)
        assert values == self._expected(base, world, q, trials, n)
        assert counting.batches == [n] * 3

    @pytest.mark.parametrize("kind", ["linear", "fingerprint"])
    def test_memo_hits_are_not_estimated_again(self, kind, monkeypatch):
        rng = np.random.default_rng(54)
        world = random_world(rng, regime="loose")
        doc = random_doc(rng, world, "target", min_len=4, max_len=6)
        base = self._bases(rng, world)[kind]
        trials = self._trials(world, doc)[:11]
        q = make_query("q1", " ".join(world.vocab[:3]))
        smoothed = self._smoothed(base, world, 40)
        hits = [trials[i] for i in (0, 4, 5, 10)]
        for t in hits:
            smoothed.score(q, t)
        expected = self._expected(base, world, q, trials, 40)
        calls = _counting_streams(monkeypatch)
        assert smoothed.score_many(q, trials) == expected
        assert calls == [(t.id, t.tokens) for t in trials if t not in hits]

    def test_a_repeated_document_is_estimated_once(self, monkeypatch):
        rng = np.random.default_rng(55)
        world = random_world(rng, regime="loose")
        doc = random_doc(rng, world, "target", min_len=4, max_len=6)
        base = random_linear_model(rng, world.emb)
        trials = self._trials(world, doc)[:6]
        docs = trials[:4] + [trials[1], trials[0]] + trials[4:] + [trials[1]]
        q = make_query("q1", " ".join(world.vocab[:3]))
        calls = _counting_streams(monkeypatch)
        values = self._smoothed(base, world, 32).score_many(q, docs)
        monkeypatch.undo()
        assert values == self._expected(base, world, q, docs, 32)
        assert calls == [(t.id, t.tokens) for t in trials]

    @pytest.mark.parametrize("seed", [56, 57])
    @pytest.mark.parametrize("kind", ["linear", "fingerprint"])
    def test_interleaved_ids_and_lengths(self, seed, kind):
        rng = np.random.default_rng(seed)
        world = random_world(rng, regime="loose")
        docs = [random_doc(rng, world, f"d{i}", min_len=3 + i, max_len=3 + i) for i in range(3)]
        twin = Document("d0-twin", docs[0].tokens)
        base = self._bases(rng, world)[kind]
        firsts, seconds = self._trials(world, docs[0])[:7], self._trials(world, docs[1])[:5]
        mixed = [firsts[0], docs[2], seconds[0], twin, firsts[1], docs[0], seconds[1],
                 *firsts[2:], docs[1], *seconds[2:], Document("d1", docs[0].tokens)]
        q = make_query("q1", " ".join(world.vocab[:3]))
        counting = CountingBatches(base)
        values = self._smoothed(counting, world, 24).score_many(q, mixed)
        assert values == self._expected(base, world, q, mixed, 24)
        # One block per consecutive run of one (id, length): ids and lengths
        # that come back later in the list start a new run.
        assert [rows // 24 for rows in counting.batches] == [1, 1, 1, 1, 2, 1, 5, 4, 1]

    def test_an_out_of_range_score_fails_at_its_trial_in_docs_order(self):
        # Six trials of one document, stacked into one block; the third and
        # the fifth score outside [0, 1]. The error must be the third's, as
        # a one-by-one loop over ``score`` reports it.
        lexicon = singleton_lexicon([])
        trials = [Document("target", ("w", f"x{i}")) for i in range(6)]
        trials[2] = Document("target", ("w", "bad:3.0"))
        trials[4] = Document("target", ("w", "bad:-5.0"))
        q = make_query("q1", "w")
        n = 8
        assert len(trials) * n <= _BLOCK_ROWS
        counting = CountingBatches(MarkedScores())
        stacked = SmoothedModel(counting, lexicon, n=n)
        one_by_one = SmoothedModel(MarkedScores(), lexicon, n=n)
        message = r"base score 3\.0 for query 'q1', document 'target' is outside \[0, 1\]"
        with pytest.raises(ValueError, match=message):
            stacked.score_many(q, trials)
        with pytest.raises(ValueError, match=message):
            ScoreModel.score_many(one_by_one, q, trials)
        assert counting.batches == [len(trials) * n]

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 32, 255, 256, 257])
    @pytest.mark.parametrize("kind", ["linear", "fingerprint"])
    def test_block_means_equal_one_by_one_score(self, n, kind):
        # Each block's means come from one reshape(k, n).mean(axis=1); they
        # must be the values a one-by-one ``score`` memoizes, bit for bit.
        rng = np.random.default_rng(60 + n)
        world = random_world(rng, regime="loose")
        doc = random_doc(rng, world, "target", min_len=5, max_len=8)
        base = self._bases(rng, world)[kind]
        trials = self._trials(world, doc)[:40]
        q = make_query("q1", " ".join(world.vocab[:3]))
        stacked, one_by_one = self._smoothed(base, world, n), self._smoothed(base, world, n)
        stacked.score_many(q, trials)
        for t in trials:
            one_by_one.score(q, t)
        assert stacked._memo == one_by_one._memo
        assert list(stacked._memo) == list(one_by_one._memo)

    def test_a_nan_score_is_out_of_range(self):
        lexicon = singleton_lexicon([])
        trials = [Document("target", ("w", "x")), Document("target", ("w", "bad:nan"))]
        smoothed = SmoothedModel(MarkedScores(), lexicon, n=8)
        with pytest.raises(ValueError, match=r"base score nan for query 'q1', document 'target'"):
            smoothed.score_many(make_query("q1", "w"), trials)

    @pytest.mark.parametrize("seed", [61, 62])
    @pytest.mark.parametrize("kind", ["linear", "bm25"])
    def test_tokens_outside_the_lexicon(self, seed, kind):
        # Documents hold a word with an embedding but no lexicon entry and a
        # word with neither; a query term is outside the lexicon too. Each
        # is its own singleton set.
        rng = np.random.default_rng(seed)
        world = random_world(rng, regime="mixed")
        emb = EmbeddingTable.from_pairs(
            [*((t, world.emb[t]) for t in world.vocab), ("emb-only", rng.normal(size=4))])
        docs = []
        for i in range(3):
            tokens = list(random_doc(rng, world, f"d{i}", min_len=4, max_len=6).tokens)
            tokens[1:1] = ["emb-only", "nowhere"][: i + 1]
            docs.append(Document(f"d{i}", tuple(tokens)))
        q = Query("q1", (world.vocab[0], "emb-only", "q-outside", world.vocab[1]))
        if kind == "linear":
            base = random_linear_model(rng, emb)
        else:
            corpus = {d.id: d for d in docs}
            base = Bm25Model.from_corpus(corpus).calibrated([(q, d) for d in docs])
        trials = [t for d in docs for t in self._trials(world, d)[:12]]
        for n in (5, 64):
            stacked, one_by_one = self._smoothed(base, world, n), self._smoothed(base, world, n)
            values = stacked.score_many(q, trials)
            assert values == [one_by_one.score(q, t) for t in trials]
            assert values == self._expected(base, world, q, trials, n)
        assert not any(t in world.lexicon.perturb for t in ("emb-only", "nowhere"))
        sampler = PerturbationSampler(world.lexicon)
        for doc in docs:
            members = [w for t in doc.tokens for w in world.lexicon.perturb_set(t)]
            for row in sampler.picks(doc, np.random.default_rng(seed), 20):
                assert draw(sampler, doc, row).tokens == tuple(members[i] for i in row)

    def test_memory_stays_at_one_trial_for_large_n(self):
        # At n=1000 every block holds one trial, so the peak of a call over
        # 100 trials must stay near that of a call over one; stacking them
        # all would hold a (100 n, dim) pooled matrix, 38 MB.
        rng = np.random.default_rng(58)
        words = [f"w{i}" for i in range(400)]
        clusters = [tuple(words[i:i + 4]) for i in range(0, len(words), 4)]
        lexicon = Lexicon(
            synonyms={w: frozenset(c) for c in clusters for w in c},
            perturb={w: (w,) + tuple(v for v in c if v != w) for c in clusters for w in c},
            j=4,
        )
        emb = EmbeddingTable.from_pairs((w, rng.normal(size=48)) for w in words)
        base = LinearEmbedScorer(weights=np.array([2.0, 1.0, 1.0]), bias=-1.0, embeddings=emb)
        doc = Document("target", tuple(rng.choice(words, size=100).tolist()))
        trials = [doc.with_tokens(doc.tokens[:i] + (lexicon.perturb_set(w)[1],) + doc.tokens[i + 1:])
                  for i, w in enumerate(doc.tokens)]
        q = Query("q1", tuple(words[:5]))

        def peak(docs):
            smoothed = SmoothedModel(base, lexicon, n=1000, alpha=0.05, root_seed=3)
            tracemalloc.start()
            try:
                smoothed.score_many(q, docs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(trials) < 2 * peak(trials[:1])
