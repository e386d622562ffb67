"""Overlap bounds, certificates, and the proof-oracle constructions."""

import math

import numpy as np
import pytest

from rankcert import (
    Document,
    SmoothedModel,
    certification_margin,
    certified_upper_bound,
    certify_topk,
    doc_overlap_bound,
    hoeffding_radius,
    smooth_rank,
)
from rankcert.certify import attackable_count, substitution_budget

from conftest import (
    TokenTableModel,
    hand_lexicon,
    make_query,
    random_doc,
    random_token_model,
    random_world,
    singleton_lexicon,
)
from oracles import (
    bound_attaining_ranker,
    brute_force_attack,
    enumerate_sd,
    excess_mass_by_enumeration,
    excess_mass_closed_form,
    optimal_adversary,
)


@pytest.fixture
def half_and_four_fifths_lexicon():
    """o_p = 1/2 (sets of size 2 sharing one member) and o_r = 4/5 (sets of
    size 5 sharing four members)."""
    return hand_lexicon(
        {
            "p": {"p", "p2"}, "p2": {"p", "p2"},
            "r": {"r", "r2"}, "r2": {"r", "r2"},
        },
        {
            "p": ("p", "s"), "p2": ("p2", "s"),
            "r": ("r", "c1", "c2", "c3", "c4"), "r2": ("r2", "c1", "c2", "c3", "c4"),
        },
        j=5,
    )


@pytest.fixture
def triple_cluster_lexicon():
    """Three mutual synonyms with pairwise half-overlapping perturbation
    sets: every o_w = 1/2."""
    return hand_lexicon(
        {"m1": {"m1", "m2", "m3"}, "m2": {"m1", "m2", "m3"}, "m3": {"m1", "m2", "m3"}},
        {"m1": ("m1", "m2"), "m2": ("m2", "m1"), "m3": ("m3", "m2")},
        j=2,
    )


class TestDocOverlapBound:
    def test_all_ones_give_zero_slack(self):
        lex = hand_lexicon(
            {"a": {"a", "b"}, "b": {"a", "b"}},
            {"a": ("a", "b"), "b": ("a", "b")},
            j=2,
        )
        doc = Document("d", ("a", "b", "a"))
        assert doc_overlap_bound(doc, lex, delta=1.0) == 0.0
        assert attackable_count(doc, lex, delta=1.0) == 3

    def test_product_of_two_smallest(self, half_and_four_fifths_lexicon):
        doc = Document("d", ("p", "r"))
        assert attackable_count(doc, half_and_four_fifths_lexicon, delta=1.0) == 2
        assert [half_and_four_fifths_lexicon.overlap_of(w) for w in doc.tokens] == [0.5, 0.8]
        od = doc_overlap_bound(doc, half_and_four_fifths_lexicon, delta=1.0)
        assert od == pytest.approx(1.0 - 0.5 * 0.8, abs=1e-15)  # 0.6

    def test_half_delta_takes_the_smallest_only(self, half_and_four_fifths_lexicon):
        doc = Document("d", ("p", "r"))
        assert attackable_count(doc, half_and_four_fifths_lexicon, delta=0.5) == 1
        od = doc_overlap_bound(doc, half_and_four_fifths_lexicon, delta=0.5)
        assert od == pytest.approx(0.5, abs=1e-15)

    def test_no_attackable_positions_give_zero(self):
        lex = singleton_lexicon(["a", "b"])
        doc = Document("d", ("a", "b"))
        assert attackable_count(doc, lex, delta=1.0) == 0
        assert doc_overlap_bound(doc, lex, delta=1.0) == 0.0

    @pytest.mark.parametrize("delta, length, words", [
        (0.7, 90, 63), (0.58, 50, 29), (0.29, 100, 29), (0.35, 180, 63)])
    def test_decimal_deltas_keep_every_word(self, delta, length, words):
        # Each float product falls just short of the integer, so a plain
        # floor would cover one word less than the report's delta says.
        assert delta * length < words
        lex = hand_lexicon({"a": {"a", "b"}, "b": {"a", "b"}},
                           {"a": ("a", "b"), "b": ("a", "b")}, j=2)
        doc = Document("d", ("a",) * length)
        assert attackable_count(doc, lex, delta) == words
        assert substitution_budget(delta, length) == words

    def test_budget_is_never_below_the_plain_floor(self):
        for length in range(1, 301):
            for step in range(1, 101):
                delta = step / 100
                budget = substitution_budget(delta, length)
                assert math.floor(delta * length) <= budget <= math.floor(delta * length) + 1
                assert budget == step * length // 100

    def test_delta_out_of_range_rejected(self, half_and_four_fifths_lexicon):
        doc = Document("d", ("p",))
        for delta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                doc_overlap_bound(doc, half_and_four_fifths_lexicon, delta)

    def test_od_non_decreasing_in_delta(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            world = random_world(rng)
            doc = random_doc(rng, world, "d")
            ods = [
                doc_overlap_bound(doc, world.lexicon, delta)
                for delta in [x / 10 for x in range(1, 11)]
            ]
            assert all(a <= b + 1e-15 for a, b in zip(ods, ods[1:]))


class TestCertifiedUpperBound:
    def test_clamps_at_one(self):
        assert certified_upper_bound(0.7, 0.6) == 1.0

    def test_adds_slack(self):
        assert certified_upper_bound(0.3, 0.2) == pytest.approx(0.5)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certified_upper_bound(1.2, 0.0)
        with pytest.raises(ValueError):
            certified_upper_bound(0.5, -0.1)

    def test_dominates_exhaustive_adversary(self):
        # On enumerable instances, no admissible substitution may push the
        # exact smoothed score above min(fbar + od, 1).
        rng = np.random.default_rng(2024)
        q = make_query("q1", "ignored")
        checked = 0
        for trial in range(25):
            world = random_world(rng)
            doc = random_doc(rng, world, f"d{trial}")
            model = random_token_model(rng, world, [doc])
            smoothed = SmoothedModel(model, world.lexicon, n=None)
            fbar = smoothed.score(q, doc)
            od = doc_overlap_bound(doc, world.lexicon, delta=1.0)
            bound = certified_upper_bound(fbar, od)
            for cand in enumerate_sd(doc, 1.0, world.lexicon):
                val = smoothed.score(q, cand)
                assert val <= bound + 1e-12
                checked += 1
        assert checked > 100


class TestCertificationMargin:
    def test_documented_error_budget_example(self):
        # Gap 0.2, zero tail slack, n=1000 / alpha=0.05 radii on both
        # estimates: margin = 0.2 - 0.086 > 0, so the list certifies.
        radius = hoeffding_radius(1000, 0.05)
        margin = certification_margin(0.7, 0.5, 0.0, 2 * radius)
        assert margin == pytest.approx(0.2 - 0.0858939, abs=1e-6)
        assert margin > 0

    def test_zero_gap_never_certifies(self):
        assert certification_margin(0.5, 0.5, 0.0, 0.0) <= 0
        assert certification_margin(0.5, 0.5, 0.3, 0.086) < 0

    def test_margin_decreases_with_tail_slack(self):
        slacks = [0.0, 0.1, 0.5, 0.9, 1.0]
        margins = [certification_margin(0.9, 0.4, od, 0.086) for od in slacks]
        assert all(a > b for a, b in zip(margins, margins[1:]))


@pytest.fixture
def certifiable_world():
    """Three candidates where the top document leads by 0.3 and every tail
    document has zero slack (perturbation sets coincide inside the cluster)."""
    lex = hand_lexicon(
        {"g1": {"g1", "g2"}, "g2": {"g1", "g2"}, "h": {"h"}, "u": {"u"}},
        {"g1": ("g1", "g2"), "g2": ("g2", "g1"), "h": ("h",), "u": ("u",)},
        j=2,
    )
    model = TokenTableModel(
        {("h",): 0.9, ("g1",): 0.35, ("g2",): 0.45, ("u",): 0.6}
    )
    docs = {
        "dA": Document("dA", ("h",)),
        "dB": Document("dB", ("g1",)),
        "dC": Document("dC", ("u",)),
    }
    return lex, model, docs


class TestCertifyTopk:
    def test_exact_certification_with_zero_slack(self, certifiable_world):
        lex, model, docs = certifiable_world
        q = make_query("q1", "x")
        smoothed = SmoothedModel(model, lex, n=None)
        ranked = smooth_rank(smoothed, q, list(docs.values()))
        assert ranked.doc_ids == ("dA", "dC", "dB")
        report = certify_topk(smoothed, q, ranked, docs, k=1, delta=1.0)
        assert report.certified
        assert report.radius == 0.0
        assert report.n == 0
        assert report.max_od == 0.0
        assert report.delta_lq == pytest.approx(0.3, abs=1e-12)
        assert dict(report.per_doc_od) == {"dC": 0.0, "dB": 0.0}

    def test_mc_certification_subtracts_both_radii(self, certifiable_world):
        lex, model, docs = certifiable_world
        q = make_query("q1", "x")
        smoothed = SmoothedModel(model, lex, n=1000, alpha=0.05, root_seed=3)
        ranked = smooth_rank(smoothed, q, list(docs.values()))
        report = certify_topk(smoothed, q, ranked, docs, k=1, delta=1.0)
        assert report.radius == pytest.approx(hoeffding_radius(1000, 0.05))
        assert report.fbar_k == ranked.entry_at(1).score
        assert report.fbar_k1 == ranked.entry_at(2).score
        expected_margin = report.fbar_k - report.fbar_k1 - report.max_od - 2 * report.radius
        assert report.delta_lq == pytest.approx(expected_margin, abs=0)
        assert report.certified  # gap 0.3 clears the 0.086 budget

    def test_identical_boundary_scores_never_certify(self):
        lex = singleton_lexicon(["h"])
        model = TokenTableModel({("h",): 0.9})
        docs = {"d1": Document("d1", ("h",)), "d2": Document("d2", ("h",))}
        q = make_query("q1", "x")
        smoothed = SmoothedModel(model, lex, n=None)
        ranked = smooth_rank(smoothed, q, list(docs.values()))
        report = certify_topk(smoothed, q, ranked, docs, k=1, delta=1.0)
        assert report.delta_lq <= 0
        assert not report.certified

    def test_k_out_of_range_and_missing_docs_error(self, certifiable_world):
        lex, model, docs = certifiable_world
        q = make_query("q1", "x")
        smoothed = SmoothedModel(model, lex, n=None)
        ranked = smooth_rank(smoothed, q, list(docs.values()))
        with pytest.raises(ValueError, match="K must"):
            certify_topk(smoothed, q, ranked, docs, k=3, delta=1.0)
        with pytest.raises(KeyError, match="dB"):
            certify_topk(smoothed, q, ranked, {k: v for k, v in docs.items() if k != "dB"},
                         k=1, delta=1.0)

    def test_refuses_a_list_ranked_with_another_root_seed(self, certifiable_world):
        # At K = 2 the boundary holds dC (a singleton, the same under any
        # seed) and dB, whose Monte Carlo estimate moves with the seed.
        lex, model, docs = certifiable_world
        q = make_query("q1", "x")
        ranked = smooth_rank(SmoothedModel(model, lex, n=200, root_seed=3), q, list(docs.values()))
        other = SmoothedModel(model, lex, n=200, root_seed=4)
        with pytest.raises(ValueError, match=r"rank 3 .*'q1'.*'dB'"):
            certify_topk(other, q, ranked, docs, k=2, delta=1.0)

    def test_refuses_a_list_ranked_over_another_lexicon(self, certifiable_world):
        # Without the g1 -> g2 substitution dB scores 0.35, not 0.4.
        lex, model, docs = certifiable_world
        q = make_query("q1", "x")
        ranked = smooth_rank(SmoothedModel(model, lex, n=None), q, list(docs.values()))
        other = SmoothedModel(model, singleton_lexicon(["h", "g1", "g2", "u"]), n=None)
        with pytest.raises(ValueError, match=r"rank 3 .*'q1'.*'dB'"):
            certify_topk(other, q, ranked, docs, k=2, delta=1.0)

    def test_exact_certificate_reads_the_ranking_estimates(self, certifiable_world):
        lex, table, docs = certifiable_world
        calls = []

        class Counting(TokenTableModel):
            def score(self, query, doc):
                calls.append(doc.tokens)
                return super().score(query, doc)

        q = make_query("q1", "x")
        smoothed = SmoothedModel(Counting(table.table), lex, n=None)
        ranked = smooth_rank(smoothed, q, list(docs.values()))
        ranking_calls = len(calls)
        assert ranking_calls > 0
        for k in (1, 2):
            certify_topk(smoothed, q, ranked, docs, k=k, delta=1.0)
        assert len(calls) == ranking_calls

    def test_uncertified_instance_is_attackable(self, clique_lexicon):
        # Tail slack (od = 1) swamps the 0.2 gap, so certification refuses;
        # the exhaustive attacker against this worst-case scorer indeed
        # promotes the tail document, so the refusal is not vacuous.
        model = TokenTableModel(
            {("u",): 0.6, ("a",): 0.5, ("x",): 0.3, ("b",): 0.95, ("y",): 0.85}
        )
        docs = {"dA": Document("dA", ("u",)), "dB": Document("dB", ("a",))}
        q = make_query("q1", "x")
        smoothed = SmoothedModel(model, clique_lexicon, n=None)
        ranked = smooth_rank(smoothed, q, list(docs.values()))
        assert ranked.doc_ids == ("dA", "dB")
        assert ranked.entry_at(1).score == pytest.approx(0.6)
        assert ranked.entry_at(2).score == pytest.approx(0.4)

        report = certify_topk(smoothed, q, ranked, docs, k=1, delta=1.0)
        assert not report.certified
        assert report.max_od == 1.0

        outcome = brute_force_attack(smoothed, q, docs["dB"], ranked, 1.0, clique_lexicon)
        assert outcome.best_rank_after == 1
        assert outcome.success
        assert outcome.best_doc.tokens == ("b",)

    def test_report_json_round_trip(self, certifiable_world):
        import json

        from rankcert import CertificateReport

        lex, model, docs = certifiable_world
        q = make_query("q1", "x")
        smoothed = SmoothedModel(model, lex, n=None)
        ranked = smooth_rank(smoothed, q, list(docs.values()))
        report = certify_topk(smoothed, q, ranked, docs, k=1, delta=1.0)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert set(payload) == {
            "query_id", "K", "delta", "n", "alpha", "fbarK", "fbarK1",
            "radius", "max_od", "delta_Lq", "certified", "per_doc_od",
        }
        assert CertificateReport.from_json_dict(payload) == report

    @pytest.mark.parametrize("field,value,kind", [
        ("certified", "false", "boolean"), ("certified", 1, "boolean"),
        ("K", 2.7, "integer"), ("K", False, "integer"), ("n", "1000", "integer"),
    ])
    def test_report_from_json_requires_json_types(self, certifiable_world, field, value, kind):
        from rankcert import CertificateReport

        lex, model, docs = certifiable_world
        q = make_query("q1", "x")
        smoothed = SmoothedModel(model, lex, n=None)
        report = certify_topk(smoothed, q, smooth_rank(smoothed, q, list(docs.values())), docs,
                              k=1, delta=1.0)
        payload = report.to_json_dict()
        payload[field] = value
        with pytest.raises(ValueError, match=f"field '{field}' must be a JSON {kind}"):
            CertificateReport.from_json_dict(payload)


class TestExcessMass:
    def test_identity_document(self, triple_cluster_lexicon):
        doc = Document("d", ("m1", "m3"))
        assert excess_mass_closed_form(doc, doc, 1.0, triple_cluster_lexicon) == 0.0
        assert excess_mass_closed_form(doc, doc, 0.0, triple_cluster_lexicon) == 1.0

    def test_single_position_hand_value(self):
        # T_a = {a, c}, T_b = {b, c}: P = 1/2, Q = 1, so the mass at lam = 1
        # is 1 - 1/2 + (1/2) * 0 = 1/2, matching direct enumeration.
        lex = hand_lexicon(
            {"a": {"a", "b"}, "b": {"a", "b"}},
            {"a": ("a", "c"), "b": ("b", "c")},
            j=2,
        )
        d = Document("d", ("a",))
        adv = Document("d", ("b",))
        assert excess_mass_closed_form(d, adv, 1.0, lex) == pytest.approx(0.5, abs=1e-15)
        assert excess_mass_by_enumeration(d, adv, 1.0, lex) == pytest.approx(0.5, abs=1e-15)

    def test_lambda_special_cases(self, triple_cluster_lexicon):
        d = Document("d", ("m1", "m2"))
        adv = Document("d", ("m2", "m2"))
        # lam = 0: total mass of the substituted measure, always 1.
        assert excess_mass_closed_form(d, adv, 0.0, triple_cluster_lexicon) == 1.0
        # lam = 1 reduces to 1 - P + P * max(0, 1 - Q).
        t_m1 = {"m1", "m2"}
        p = len(t_m1.intersection(("m2", "m1"))) / 2
        q = 2 / 2
        expected = 1.0 - p + p * max(0.0, 1.0 - q)
        assert excess_mass_closed_form(d, adv, 1.0, triple_cluster_lexicon) == pytest.approx(
            expected, abs=1e-15
        )

    def test_closed_form_equals_enumeration_on_random_instances(self):
        rng = np.random.default_rng(555)
        q_checked = 0
        for trial in range(30):
            world = random_world(rng)
            doc = random_doc(rng, world, f"d{trial}", min_len=2, max_len=4)
            # Random admissible substitution: each position may move to any
            # synonym (delta = 1).
            tokens = tuple(
                str(rng.choice(world.lexicon.attack_set(w))) for w in doc.tokens
            )
            adv = Document(doc.id, tokens)
            for lam in (0.0, 0.5, 1.0, 2.0):
                closed = excess_mass_closed_form(doc, adv, lam, world.lexicon)
                enumerated = excess_mass_by_enumeration(doc, adv, lam, world.lexicon)
                assert closed == pytest.approx(enumerated, abs=1e-12)
                q_checked += 1
        assert q_checked == 120

    def test_non_synonym_substitution_rejected(self, triple_cluster_lexicon):
        d = Document("d", ("m1",))
        adv = Document("d", ("zzz",))
        with pytest.raises(ValueError, match="synonym"):
            excess_mass_closed_form(d, adv, 1.0, triple_cluster_lexicon)

    def test_negative_lambda_rejected(self, triple_cluster_lexicon):
        d = Document("d", ("m1",))
        with pytest.raises(ValueError):
            excess_mass_closed_form(d, d, -0.5, triple_cluster_lexicon)
        with pytest.raises(ValueError):
            excess_mass_by_enumeration(d, d, -0.5, triple_cluster_lexicon)


class TestOptimalAdversary:
    def test_no_perturbable_words_returns_original(self):
        lex = singleton_lexicon(["a", "b"])
        doc = Document("d", ("a", "b"))
        assert optimal_adversary(doc, 1.0, lex).tokens == doc.tokens

    def test_small_delta_changes_nothing(self, triple_cluster_lexicon):
        doc = Document("d", ("m1", "m2", "m3"))
        assert optimal_adversary(doc, 0.1, triple_cluster_lexicon).tokens == doc.tokens

    def test_clique_picks_lexicographically_smallest_minimizer(self, clique_lexicon):
        # From a, both b and y have zero overlap; b wins the tie. u is not
        # perturbable and must stay.
        doc = Document("d", ("a", "u"))
        adv = optimal_adversary(doc, 1.0, clique_lexicon)
        assert adv.tokens == ("b", "u")

    def test_attains_enumeration_maximum(self):
        rng = np.random.default_rng(808)
        instances = 0
        for trial in range(25):
            world = random_world(rng)
            doc = random_doc(rng, world, f"d{trial}", min_len=2, max_len=4)
            for lam in (0.5, 1.0, 2.0):
                dstar = optimal_adversary(doc, 1.0, world.lexicon)
                best = max(
                    excess_mass_by_enumeration(doc, cand, lam, world.lexicon)
                    for cand in enumerate_sd(doc, 1.0, world.lexicon)
                )
                attained = excess_mass_by_enumeration(doc, dstar, lam, world.lexicon)
                assert attained == pytest.approx(best, abs=1e-12)
                instances += 1
        assert instances == 75


class TestBoundAttainingRanker:
    def test_zero_target_reaches_exactly_od(self, triple_cluster_lexicon):
        doc = Document("d", ("m1",))
        q = make_query("q1", "x")
        ranker = bound_attaining_ranker(doc, q, 0.0, triple_cluster_lexicon)
        assert ranker.achieved_p == 0.0
        assert ranker.od == pytest.approx(0.5)
        smoothed = SmoothedModel(ranker, triple_cluster_lexicon, n=None)
        assert smoothed.score(q, doc) == 0.0
        best = max(
            smoothed.score(q, cand)
            for cand in enumerate_sd(doc, 1.0, triple_cluster_lexicon)
        )
        assert best == pytest.approx(ranker.od, abs=1e-12)

    def test_full_target_saturates_at_one(self, triple_cluster_lexicon):
        doc = Document("d", ("m1", "m3"))
        q = make_query("q1", "x")
        ranker = bound_attaining_ranker(doc, q, 1.0, triple_cluster_lexicon)
        assert ranker.achieved_p == 1.0
        smoothed = SmoothedModel(ranker, triple_cluster_lexicon, n=None)
        best = max(
            smoothed.score(q, cand)
            for cand in enumerate_sd(doc, 1.0, triple_cluster_lexicon)
        )
        assert best == pytest.approx(1.0, abs=1e-12)

    def test_equalities_on_random_instances(self):
        rng = np.random.default_rng(4242)
        q = make_query("q1", "x")
        checked = 0
        for trial in range(30):
            world = random_world(rng)
            doc = random_doc(rng, world, f"d{trial}", min_len=2, max_len=4)
            delta = float(rng.choice([0.5, 1.0]))
            p_r = float(rng.random())
            ranker = bound_attaining_ranker(doc, q, p_r, world.lexicon, delta=delta)
            expected_od = doc_overlap_bound(doc, world.lexicon, delta)
            assert ranker.od == pytest.approx(expected_od, abs=1e-12)
            # Achieved p is the closest representable value to the request.
            space = world.lexicon.space_size(doc.tokens)
            assert abs(ranker.achieved_p - p_r) <= 0.5 / space + 1e-12
            smoothed = SmoothedModel(ranker, world.lexicon, n=None)
            got_p = smoothed.score(q, doc)
            assert got_p == pytest.approx(ranker.achieved_p, abs=1e-9)
            best = max(
                smoothed.score(q, cand)
                for cand in enumerate_sd(doc, delta, world.lexicon)
            )
            assert best == pytest.approx(
                min(ranker.achieved_p + ranker.od, 1.0), abs=1e-9
            )
            checked += 1
        assert checked == 30
