"""Exhaustive and greedy synonym-substitution attackers."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcert import (
    AttackOutcome,
    Document,
    ScoreModel,
    SmoothedModel,
    greedy_attack,
    make_ranked,
)
from rankcert.attack import rank_after
from rankcert.certify import substitution_budget
from rankcert.smoothing import ENUMERATION_CAP

from conftest import (
    TokenTableModel,
    hand_lexicon,
    make_query,
    random_doc,
    random_linear_model,
    random_token_model,
    random_world,
    singleton_lexicon,
)
from oracles import (
    bound_attaining_ranker,
    brute_force_attack,
    enumerate_sd,
    sd_size,
)


@pytest.fixture
def sizes_two_three_one_lexicon():
    """|S_a| = 2, |S_b| = 3, |S_c| = 1, all equal perturbation sizes."""
    return hand_lexicon(
        {
            "a": {"a", "a2"}, "a2": {"a", "a2"},
            "b": {"b", "b2", "b3"}, "b2": {"b", "b2", "b3"}, "b3": {"b", "b2", "b3"},
            "c": {"c"},
        },
        {
            "a": ("a", "a2"), "a2": ("a2", "a"),
            "b": ("b", "b2"), "b2": ("b2", "b"), "b3": ("b3", "b"),
            "c": ("c",),
        },
        j=2,
    )


class TestEnumerateSd:
    def test_singleton_synonyms_yield_only_the_original(self):
        lex = singleton_lexicon(["a", "b"])
        doc = Document("d", ("a", "b"))
        assert [d.tokens for d in enumerate_sd(doc, 1.0, lex)] == [doc.tokens]

    def test_two_by_two_product(self):
        lex = hand_lexicon(
            {"a": {"a", "a2"}, "a2": {"a", "a2"}, "b": {"b", "b2"}, "b2": {"b", "b2"}},
            {"a": ("a", "a2"), "a2": ("a2", "a"), "b": ("b", "b2"), "b2": ("b2", "b")},
            j=2,
        )
        doc = Document("d", ("a", "b"))
        cands = {d.tokens for d in enumerate_sd(doc, 1.0, lex)}
        assert cands == {("a", "b"), ("a2", "b"), ("a", "b2"), ("a2", "b2")}

    def test_one_third_delta_counts_identity_plus_singles(self, sizes_two_three_one_lexicon):
        # M = 3, sizes {2, 3, 1}, delta = 1/3 -> E = 1: the identity plus one
        # alternative at position a and two at position b = 4 documents.
        doc = Document("d", ("a", "b", "c"))
        cands = list(enumerate_sd(doc, 1 / 3, sizes_two_three_one_lexicon))
        assert len(cands) == 4
        assert sd_size(doc, 1 / 3, sizes_two_three_one_lexicon) == 4
        assert cands[0].tokens == doc.tokens

    def test_cap_exceeded_is_an_error(self, sizes_two_three_one_lexicon):
        # Twenty positions with one alternative each: 2^20 admissible
        # documents, above the cap. The size is counted, not enumerated.
        doc = Document("d", tuple(["a"] * 20))
        assert sd_size(doc, 1.0, sizes_two_three_one_lexicon) == 2**20 > ENUMERATION_CAP
        with pytest.raises(ValueError, match="cap"):
            next(enumerate_sd(doc, 1.0, sizes_two_three_one_lexicon))

    def test_size_formula_matches_enumeration(self):
        rng = np.random.default_rng(321)
        for trial in range(25):
            world = random_world(rng)
            doc = random_doc(rng, world, f"d{trial}")
            delta = float(rng.choice([0.34, 0.5, 1.0]))
            cands = list(enumerate_sd(doc, delta, world.lexicon))
            assert len(cands) == sd_size(doc, delta, world.lexicon)
            assert len({c.tokens for c in cands}) == len(cands)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_enumerated_candidates_are_admissible(seed):
    rng = np.random.default_rng(seed)
    world = random_world(rng)
    doc = random_doc(rng, world, "d", min_len=2, max_len=5)
    delta = float(rng.choice([0.4, 1.0]))
    budget = substitution_budget(delta, doc.length)
    for cand in enumerate_sd(doc, delta, world.lexicon):
        hamming = sum(1 for a, b in zip(doc.tokens, cand.tokens) if a != b)
        assert hamming <= budget
        for w, w2 in zip(doc.tokens, cand.tokens):
            assert w2 in world.lexicon.attack_set(w)


class TestRankAfter:
    def test_positions_respect_tie_rule(self):
        ranked = make_ranked("q", [("dA", 0.9), ("dB", 0.6), ("dC", 0.4)])
        assert rank_after(ranked, "dC", 0.95) == 1
        assert rank_after(ranked, "dC", 0.6) == 3  # dB wins the tie ('dB' < 'dC')
        assert rank_after(ranked, "dA", 0.1) == 3


class TestBruteForce:
    def test_singleton_space_cannot_succeed(self):
        lex = singleton_lexicon(["a", "b"])
        docs = {"d1": Document("d1", ("a",)), "d2": Document("d2", ("b",))}
        model = TokenTableModel({("a",): 0.8, ("b",): 0.4})
        q = make_query("q1", "x")
        ranked = make_ranked("q1", [("d1", 0.8), ("d2", 0.4)])
        outcome = brute_force_attack(model, q, docs["d2"], ranked, 1.0, lex)
        assert not outcome.success
        assert outcome.best_doc.tokens == ("b",)
        assert outcome.best_rank_after == outcome.original_rank == 2
        assert outcome.substitutions == ()

    def test_matches_independent_candidate_maximum(self):
        rng = np.random.default_rng(1234)
        q = make_query("q1", "x")
        for trial in range(15):
            world = random_world(rng)
            doc = random_doc(rng, world, "target", min_len=2, max_len=4)
            model = random_token_model(rng, world, [doc])
            ranked = make_ranked("q1", [("other", 0.99), ("target", model.score(q, doc))])
            outcome = brute_force_attack(model, q, doc, ranked, 1.0, world.lexicon)
            oracle = max(
                model.score(q, cand) for cand in enumerate_sd(doc, 1.0, world.lexicon)
            )
            assert outcome.best_score == oracle

    def test_achieves_tightness_bound_on_worst_case_ranker(self):
        # Against the bound-attaining ranker, the exhaustive attack on the
        # smoothed scorer reaches exactly min(p + od, 1).
        rng = np.random.default_rng(77)
        q = make_query("q1", "x")
        for trial in range(10):
            world = random_world(rng)
            doc = random_doc(rng, world, "target", min_len=2, max_len=4)
            p_r = float(rng.random())
            ranker = bound_attaining_ranker(doc, q, p_r, world.lexicon)
            smoothed = SmoothedModel(ranker, world.lexicon, n=None)
            ranked = make_ranked("q1", [("other", 1.0), ("target", smoothed.score(q, doc))])
            outcome = brute_force_attack(smoothed, q, doc, ranked, 1.0, world.lexicon)
            assert outcome.best_score == pytest.approx(
                min(ranker.achieved_p + ranker.od, 1.0), abs=1e-9
            )

    def test_substitutions_describe_best_doc(self):
        rng = np.random.default_rng(555)
        world = random_world(rng, regime="loose")
        doc = random_doc(rng, world, "target", min_len=3, max_len=4)
        model = random_token_model(rng, world, [doc])
        q = make_query("q1", "x")
        ranked = make_ranked("q1", [("other", 0.5), ("target", model.score(q, doc))])
        outcome = brute_force_attack(model, q, doc, ranked, 1.0, world.lexicon)
        rebuilt = list(doc.tokens)
        for pos, old, new in outcome.substitutions:
            assert doc.tokens[pos] == old
            rebuilt[pos] = new
        assert tuple(rebuilt) == outcome.best_doc.tokens


class TestGreedy:
    def test_no_improving_move_returns_original(self):
        lex = hand_lexicon(
            {"a": {"a", "a2"}, "a2": {"a", "a2"}},
            {"a": ("a", "a2"), "a2": ("a2", "a")},
            j=2,
        )
        model = TokenTableModel({("a",): 0.9, ("a2",): 0.1})
        q = make_query("q1", "x")
        doc = Document("d2", ("a",))
        ranked = make_ranked("q1", [("d1", 0.95), ("d2", 0.9)])
        outcome = greedy_attack(model, q, doc, ranked, budget=3, lexicon=lex)
        assert not outcome.success
        assert outcome.best_doc.tokens == ("a",)

    def test_budget_one_matches_brute_force_single_substitution(self):
        rng = np.random.default_rng(999)
        q = make_query("q1", "x")
        agreements = 0
        for trial in range(15):
            world = random_world(rng)
            doc = random_doc(rng, world, "target", min_len=3, max_len=3)
            model = random_token_model(rng, world, [doc])
            ranked = make_ranked("q1", [("other", 0.99), ("target", model.score(q, doc))])
            greedy = greedy_attack(model, q, doc, ranked, budget=1, lexicon=world.lexicon)
            brute = brute_force_attack(model, q, doc, ranked, 1 / doc.length, world.lexicon)
            assert greedy.best_score == brute.best_score
            agreements += 1
        assert agreements == 15

    def test_never_beats_brute_force(self):
        rng = np.random.default_rng(313)
        q = make_query("q1", "x")
        strict = 0
        for trial in range(15):
            world = random_world(rng)
            doc = random_doc(rng, world, "target", min_len=3, max_len=4)
            model = random_token_model(rng, world, [doc])
            ranked = make_ranked("q1", [("other", 0.99), ("target", model.score(q, doc))])
            greedy = greedy_attack(model, q, doc, ranked, budget=doc.length, lexicon=world.lexicon)
            brute = brute_force_attack(model, q, doc, ranked, 1.0, world.lexicon)
            assert greedy.best_score <= brute.best_score + 1e-15
            if greedy.best_score < brute.best_score:
                strict += 1
        # Greedy must at least sometimes be optimal on these small spaces.
        assert strict < 15

    def test_budget_limits_substitution_count(self):
        rng = np.random.default_rng(414)
        world = random_world(rng, regime="loose")
        doc = random_doc(rng, world, "target", min_len=4, max_len=5)
        model = random_token_model(rng, world, [doc])
        q = make_query("q1", "x")
        ranked = make_ranked("q1", [("other", 0.99), ("target", model.score(q, doc))])
        for budget in (1, 2):
            outcome = greedy_attack(model, q, doc, ranked, budget=budget, lexicon=world.lexicon)
            assert len(outcome.substitutions) <= budget

    def test_bad_budget_rejected(self, sizes_two_three_one_lexicon):
        model = TokenTableModel({})
        q = make_query("q1", "x")
        doc = Document("d", ("a",))
        ranked = make_ranked("q1", [("d", 0.5), ("e", 0.4)])
        with pytest.raises(ValueError, match="budget"):
            greedy_attack(model, q, doc, ranked, budget=-1, lexicon=sizes_two_three_one_lexicon)

    def test_zero_budget_returns_the_document(self, sizes_two_three_one_lexicon):
        model = TokenTableModel({("a",): 0.4, ("a2",): 0.9})
        q = make_query("q1", "x")
        doc = Document("e", ("a",))
        ranked = make_ranked("q1", [("d", 0.5), ("e", 0.4)])
        outcome = greedy_attack(model, q, doc, ranked, budget=0, lexicon=sizes_two_three_one_lexicon)
        assert outcome == AttackOutcome("q1", "e", 2, 2, doc, 0.4, False, ())


class ScoreOnly(ScoreModel):
    """Exposes only ``score`` of the model it wraps, so ``greedy_attack``
    scores its trials one at a time through the default ``score_many``."""

    def __init__(self, model: ScoreModel):
        self.model = model

    def score(self, query, doc):
        return self.model.score(query, doc)


class TestGreedyOnSmoothedModel:
    """Each step scores its trials with one ``SmoothedModel.score_many``
    call; the outcome must be the one trial-by-trial ``score`` calls give."""

    @staticmethod
    def _both(base, lexicon, q, doc, ranked, budget, n=32):
        def smoothed():
            return SmoothedModel(base, lexicon, n=n, alpha=0.05, root_seed=9)
        batched = greedy_attack(smoothed(), q, doc, ranked, budget, lexicon)
        one_by_one = greedy_attack(ScoreOnly(smoothed()), q, doc, ranked, budget, lexicon)
        return batched, one_by_one

    # At n=32 a block stacks 8 trials; at n=300, above _BLOCK_ROWS, a block
    # holds one, concatenated like any other.
    @pytest.mark.parametrize("seed, n", [
        *(pytest.param(seed, 32, id=str(seed)) for seed in range(5)),
        *(pytest.param(seed, 300, id=f"{seed}-n300") for seed in range(2)),
    ])
    def test_matches_trial_by_trial_scoring(self, seed, n):
        rng = np.random.default_rng(seed)
        world = random_world(rng, regime="loose")
        doc = random_doc(rng, world, "target", min_len=4, max_len=6)
        q = make_query("q1", " ".join(world.vocab[:3]))
        ranked = make_ranked("q1", [("other", 0.99), ("target", 0.0)])
        # The linear scorer batches each estimate's draws; the token table
        # scores them through the default per-row score_batch.
        for base in (random_linear_model(rng, world.emb), random_token_model(rng, world, [doc])):
            for budget in range(doc.length + 1):
                batched, one_by_one = self._both(base, world.lexicon, q, doc, ranked, budget, n)
                assert batched == one_by_one
                assert batched.best_score == one_by_one.best_score
                if budget == 0:
                    assert batched.best_doc == doc and batched.substitutions == ()

    def test_matches_trial_by_trial_scoring_through_a_revert_move(self):
        # Each perturbation set repeats its word, so smoothing keeps every
        # document as it is and the table alone fixes the path:
        # {0} -> {0, 1} -> {0, 1, 2} -> {1, 2}, the last step putting
        # position 0 back to its original word.
        words = {"a": "a2", "b": "b2", "c": "c2"}
        synonyms = {w: {w, s} for w, s in words.items()} | {s: {w, s} for w, s in words.items()}
        lex = hand_lexicon(synonyms, {w: (w, w) for w in synonyms}, j=2)
        model = TokenTableModel({
            ("a", "b", "c"): 0.1,
            ("a2", "b", "c"): 0.5, ("a", "b2", "c"): 0.2, ("a", "b", "c2"): 0.2,
            ("a2", "b2", "c"): 0.6, ("a2", "b", "c2"): 0.3,
            ("a2", "b2", "c2"): 0.7, ("a", "b2", "c2"): 0.8,
        })
        q = make_query("q1", "x")
        doc = Document("target", ("a", "b", "c"))
        ranked = make_ranked("q1", [("other", 0.75), ("target", 0.1)])
        batched, one_by_one = self._both(model, lex, q, doc, ranked, budget=3)
        assert batched == one_by_one
        assert batched.substitutions == ((1, "b", "b2"), (2, "c", "c2"))
        assert batched.success and batched.best_score == pytest.approx(0.8)


def test_attack_outcome_json_round_trip():
    outcome = AttackOutcome(
        query_id="q1",
        doc_id="d9",
        original_rank=7,
        best_rank_after=3,
        best_doc=Document("d9", ("x", "y")),
        best_score=0.625,
        success=True,
        substitutions=((1, "z", "y"),),
    )
    payload = json.loads(json.dumps(outcome.to_json_dict()))
    assert AttackOutcome.from_json_dict(payload) == outcome


@pytest.mark.parametrize("field,value,kind", [
    ("success", "false", "boolean"), ("success", 1, "boolean"),
    ("original_rank", 7.5, "integer"), ("best_rank_after", True, "integer"),
])
def test_attack_outcome_from_json_requires_json_types(field, value, kind):
    payload = AttackOutcome("q1", "d9", 7, 3, Document("d9", ("x",)), 0.5, True, ()).to_json_dict()
    payload[field] = value
    with pytest.raises(ValueError, match=f"field '{field}' must be a JSON {kind}"):
        AttackOutcome.from_json_dict(payload)
