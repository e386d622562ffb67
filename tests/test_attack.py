"""Exhaustive and greedy synonym-substitution attackers."""

import dataclasses
import json
import math

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
from rankcert.smoothing import ENUMERATION_CAP, enumerate_perturbations

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


class RecordingModel(ScoreModel):
    """Scores with the model it wraps and records the token tuples of every
    ``score_many`` call, one list per greedy step."""

    def __init__(self, model: ScoreModel):
        self.model = model
        self.steps: list[list[tuple[str, ...]]] = []

    def score(self, query, doc):
        return self.model.score(query, doc)

    def substitution_key(self, word):
        return self.model.substitution_key(word)

    def score_many(self, query, docs):
        self.steps.append([d.tokens for d in docs])
        return super().score_many(query, docs)


class TestGreedyBudget:
    """Once the changed positions use up the budget, a step tries only those
    positions, by a swap to another synonym or a revert to the original."""

    @pytest.fixture
    def world(self):
        synonyms = {w: {"a", "a2", "a3"} for w in ("a", "a2", "a3")}
        synonyms |= {w: {"b", "b2"} for w in ("b", "b2")} | {w: {"c", "c2"} for w in ("c", "c2")}
        perturb = {w: (w, w) for w in synonyms}
        model = TokenTableModel({
            ("a", "b", "c"): 0.1,
            ("a2", "b", "c"): 0.5, ("a3", "b", "c"): 0.2, ("a", "b2", "c"): 0.3,
            ("a", "b", "c2"): 0.3, ("a2", "b2", "c"): 0.6, ("a2", "b", "c2"): 0.4,
            ("a3", "b2", "c"): 0.7, ("a2", "b2", "c2"): 0.9,
        })
        return hand_lexicon(synonyms, perturb, j=2), model

    def test_trials_of_every_step(self, world):
        lexicon, model = world
        recording = RecordingModel(model)
        q = make_query("q1", "x")
        doc = Document("target", ("a", "b", "c"))
        ranked = make_ranked("q1", [("other", 0.65), ("target", 0.1)])
        outcome = greedy_attack(recording, q, doc, ranked, budget=2, lexicon=lexicon)
        assert recording.steps == [
            [("a2", "b", "c"), ("a3", "b", "c"), ("a", "b2", "c"), ("a", "b", "c2")],
            [("a", "b", "c"), ("a3", "b", "c"), ("a2", "b2", "c"), ("a2", "b", "c2")],
            # At the budget: position 0 reverts or swaps, position 1 reverts,
            # and position 2 is not tried, so (a2, b2, c2) at 0.9 is out of reach.
            [("a", "b2", "c"), ("a3", "b2", "c"), ("a2", "b", "c")],
            [("a", "b2", "c"), ("a2", "b2", "c"), ("a3", "b", "c")],
        ]
        assert outcome.substitutions == ((0, "a", "a3"), (1, "b", "b2"))
        assert outcome.best_score == 0.7 and outcome.success

    def test_a_budget_past_the_changes_tries_every_position(self, world):
        lexicon, model = world
        recording = RecordingModel(model)
        q = make_query("q1", "x")
        doc = Document("target", ("a", "b", "c"))
        ranked = make_ranked("q1", [("other", 0.65), ("target", 0.1)])
        outcome = greedy_attack(recording, q, doc, ranked, budget=3, lexicon=lexicon)
        assert ("a2", "b2", "c2") in recording.steps[2]
        assert outcome.substitutions == ((0, "a", "a2"), (1, "b", "b2"), (2, "c", "c2"))


class ScoreOnly(ScoreModel):
    """Exposes only ``score`` of the model it wraps, so ``greedy_attack``
    scores its trials one at a time through the default ``score_many``."""

    def __init__(self, model: ScoreModel):
        self.model = model

    def score(self, query, doc):
        return self.model.score(query, doc)

    def substitution_key(self, word):
        return self.model.substitution_key(word)


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


class TestSubstitutionKey:
    """On the smoothed ranker a word is its perturbation set, as a multiset:
    words with equal multisets merge, and nothing else does."""

    def test_one_set_listed_in_two_orders_merges(self):
        lex = hand_lexicon({"a": {"a", "b"}, "b": {"a", "b"}}, {"a": ("a", "b"), "b": ("b", "a")},
                           j=2)
        model = TokenTableModel({})
        smoothed = SmoothedModel(model, lex, n=None)
        assert smoothed.substitution_key("a") == smoothed.substitution_key("b") == ("a", "b")
        assert model.substitution_key("a") != model.substitution_key("b")

    def test_multisets_with_other_counts_do_not_merge(self):
        # Unvalidated sets that repeat a member: the same members, drawn
        # with other probabilities.
        lex = hand_lexicon({"a": {"a", "b"}, "b": {"a", "b"}},
                           {"a": ("a", "a", "b"), "b": ("a", "b", "b")}, j=3)
        smoothed = SmoothedModel(TokenTableModel({}), lex, n=None)
        assert smoothed.substitution_key("a") == ("a", "a", "b")
        assert smoothed.substitution_key("b") == ("a", "b", "b")

    def test_out_of_vocabulary_words_keep_their_own_key(self):
        smoothed = SmoothedModel(TokenTableModel({}), singleton_lexicon(["a"]), n=None)
        assert smoothed.substitution_key("zz") == ("zz",) != smoothed.substitution_key("a")


class TestGreedySkipsInterchangeableWords:
    """A step tries one word per key and none with the current word's key;
    a base target, whose every word is its own key, tries every synonym."""

    @pytest.fixture
    def world(self):
        # a-a3: one tight cluster, every member listing the same set in its
        # own order. b-b4: one synonym set holding two perturbation sets.
        tight = {"a", "a2", "a3"}
        loose = {"b", "b2", "b3", "b4"}
        synonyms = {w: tight for w in tight} | {w: loose for w in loose} | {"c": {"c"}}
        perturb = {"a": ("a", "a2", "a3"), "a2": ("a2", "a", "a3"), "a3": ("a3", "a", "a2"),
                   "b": ("b", "b2"), "b2": ("b2", "b"), "b3": ("b3", "b4"), "b4": ("b4", "b3"),
                   "c": ("c",)}
        return hand_lexicon(synonyms, perturb, j=2)

    def _first_step(self, model, lexicon):
        recording = RecordingModel(model)
        q = make_query("q1", "x")
        doc = Document("target", ("a", "b", "c"))
        ranked = make_ranked("q1", [("other", 0.9), ("target", 0.5)])
        outcome = greedy_attack(recording, q, doc, ranked, budget=2, lexicon=lexicon)
        return recording.steps, outcome

    def test_smoothed_target_tries_one_word_per_new_set(self, world):
        smoothed = SmoothedModel(TokenTableModel({}, default=0.5), world, n=None)
        steps, outcome = self._first_step(smoothed, world)
        # a2 and a3 share T_a, b2 shares T_b, and b4 is T_b3's larger word.
        assert steps == [[("a", "b3", "c")]]
        keys = [smoothed.substitution_key(t[1]) for t in steps[0]]
        assert smoothed.substitution_key("b") not in keys and len(set(keys)) == len(keys)
        assert (outcome.trials_scored, outcome.trials_pruned) == (1, 4)

    def test_base_target_tries_every_synonym(self, world):
        steps, outcome = self._first_step(TokenTableModel({}, default=0.5), world)
        assert steps == [[("a2", "b", "c"), ("a3", "b", "c"), ("a", "b2", "c"),
                          ("a", "b3", "c"), ("a", "b4", "c")]]
        assert (outcome.trials_scored, outcome.trials_pruned) == (5, 0)

    def test_counters_stay_out_of_the_record(self, world):
        _, outcome = self._first_step(TokenTableModel({}, default=0.5), world)
        assert not {"trials_scored", "trials_pruned"} & set(outcome.to_json_dict())
        assert outcome == dataclasses.replace(outcome, trials_scored=0, trials_pruned=0)


def _replay_greedy_scan(model, q, doc, budget, lexicon, steps):
    """Replay every step's full scan from the trials ``greedy_attack``
    scored: yield (skipped trial, the trial or document that stands for it),
    and check that the kept trials are the representatives, in scan order.
    The step's move is the kept trial ``model.score`` ranks first, as the
    tie rule picks it."""
    key = model.substitution_key
    current = doc
    for step, kept in enumerate(steps, 1):
        spent = sum(a != b for a, b in zip(current.tokens, doc.tokens)) >= budget
        representatives = []
        for pos, original in enumerate(doc.tokens):
            if spent and current.tokens[pos] == original:
                continue
            first_of = {key(current.tokens[pos]): current}
            for tok in lexicon.attack_set(original):
                if tok == current.tokens[pos]:
                    continue
                trial = doc.with_tokens((*current.tokens[:pos], tok, *current.tokens[pos + 1:]))
                if key(tok) in first_of:
                    yield trial, first_of[key(tok)]
                else:
                    first_of[key(tok)] = trial
                    representatives.append(trial.tokens)
        assert kept == representatives
        best = max(kept, key=lambda t: model.score(q, doc.with_tokens(t)), default=None)
        if best is None or model.score(q, doc.with_tokens(best)) <= model.score(q, current):
            assert step == len(steps), "the attack went on after a step with no move"
            return
        current = doc.with_tokens(best)
    pytest.fail("the attack stopped on a step with a move")


def _exact_mean(model, query, doc, lexicon):
    """The mean base score over the perturbation space, correctly rounded:
    it depends on the multiset of outcomes alone, not on the order in which
    ``T_w`` lists its members."""
    outcomes = list(enumerate_perturbations(doc, lexicon))
    return math.fsum(model.score(query, Document(doc.id, t)) for t in outcomes) / len(outcomes)


@given(seed=st.integers(0, 10**6), regime=st.sampled_from(["loose", "tight"]))
@settings(max_examples=40, deadline=None)
def test_every_skipped_trial_has_its_representatives_exact_score(seed, regime):
    """On the exact smoothed ranker a skipped trial has the same outcomes as
    the document or trial that stands for it, so the same exact score. The
    in-order sum of ``SmoothedModel(n=None)`` may round it otherwise in the
    last bits when the sets list their members in other orders."""
    rng = np.random.default_rng(seed)
    world = random_world(rng, regime=regime)
    doc = random_doc(rng, world, "target", min_len=3, max_len=5)
    q = make_query("q1", "x")
    base = (random_linear_model(rng, world.emb) if rng.random() < 0.5
            else random_token_model(rng, world, [doc]))
    smoothed = SmoothedModel(base, world.lexicon, n=None)
    recording = RecordingModel(smoothed)
    budget = int(rng.integers(1, doc.length + 1))
    ranked = make_ranked("q1", [("other", 1.0), ("target", 0.0)])
    outcome = greedy_attack(recording, q, doc, ranked, budget, world.lexicon)
    skipped = list(_replay_greedy_scan(smoothed, q, doc, budget, world.lexicon, recording.steps))
    for trial, representative in skipped:
        assert sorted(enumerate_perturbations(trial, world.lexicon)) == sorted(
            enumerate_perturbations(representative, world.lexicon))
        assert _exact_mean(base, q, trial, world.lexicon) == _exact_mean(
            base, q, representative, world.lexicon)
        assert smoothed.score(q, trial) == pytest.approx(
            smoothed.score(q, representative), rel=1e-12, abs=1e-15)
    assert outcome.trials_pruned == len(skipped)
    assert outcome.trials_scored == sum(map(len, recording.steps))

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
