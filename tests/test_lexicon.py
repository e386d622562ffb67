"""Lexicon construction, overlap computation, and validation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcert import (
    EmbeddingTable,
    Lexicon,
    PerturbDict,
    SynonymDict,
    build_perturb_dict,
    build_synonym_dict,
    overlap,
    validate_lexicon,
)
from rankcert import lexicon as lexicon_mod
from rankcert.lexicon import LexiconError, cosine

from conftest import hand_lexicon, random_world


def _cos(u, v):
    num = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return num / (nu * nv)


class TestEmbeddingTable:
    def test_rejects_dimension_mismatch(self):
        with pytest.raises(LexiconError, match="dimension"):
            EmbeddingTable.from_pairs([("a", [1.0, 2.0]), ("b", [1.0])])

    def test_rejects_duplicates_and_non_finite(self):
        with pytest.raises(LexiconError, match="duplicate"):
            EmbeddingTable.from_pairs([("a", [1.0]), ("a", [2.0])])
        with pytest.raises(LexiconError, match="non-finite"):
            EmbeddingTable.from_pairs([("a", [float("nan")])])

    def test_load_with_and_without_header(self, tmp_path):
        plain = tmp_path / "plain.txt"
        plain.write_text("cat 1.0 0.5\ndog 0.25 -1\n")
        with_header = tmp_path / "header.txt"
        with_header.write_text("2 2\ncat 1.0 0.5\ndog 0.25 -1\n")
        a = EmbeddingTable.load(plain)
        b = EmbeddingTable.load(with_header)
        assert a.tokens == b.tokens == ("cat", "dog")
        assert np.allclose(a["dog"], [0.25, -1.0])

    def test_load_reports_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("cat 1.0 0.5\ndog 0.25 oops\n")
        with pytest.raises(LexiconError, match=":2"):
            EmbeddingTable.load(bad)


class TestBuildSynonymDict:
    def test_identical_vectors_are_mutual_synonyms(self):
        emb = EmbeddingTable.from_pairs(
            [("a", [1.0, 2.0]), ("b", [1.0, 2.0]), ("c", [-2.0, 1.0])]
        )
        syn = build_synonym_dict(emb, tau=0.8)
        assert syn.sets["a"] == frozenset({"a", "b"})
        assert syn.sets["b"] == frozenset({"a", "b"})
        assert syn.sets["c"] == frozenset({"c"})

    def test_orthogonal_vectors_are_singletons(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        syn = build_synonym_dict(emb, tau=0.5)
        assert syn.sets["a"] == frozenset({"a"})
        assert syn.sets["b"] == frozenset({"b"})

    def test_five_word_table_matches_pairwise_enumeration(self):
        vectors = {
            "ant": [1.0, 0.2, 0.0],
            "bee": [0.9, 0.3, 0.1],
            "cat": [-0.5, 1.0, 0.3],
            "dog": [-0.45, 0.95, 0.35],
            "elk": [0.1, -0.2, 1.0],
        }
        tau = 0.8
        # Independent oracle: brute-force every ordered pair.
        expected = {w: {w} for w in vectors}
        for w1, v1 in vectors.items():
            for w2, v2 in vectors.items():
                if w1 != w2 and _cos(v1, v2) >= tau:
                    expected[w1].add(w2)

        syn = build_synonym_dict(EmbeddingTable.from_pairs(vectors.items()), tau=tau)
        assert {w: set(s) for w, s in syn.sets.items()} == expected
        # The fixture is only meaningful if it has a non-trivial cluster.
        assert expected["ant"] == {"ant", "bee"}
        assert expected["cat"] == {"cat", "dog"}

    def test_zero_norm_vector_rejected_with_warning_record(self):
        emb = EmbeddingTable.from_pairs(
            [("a", [1.0, 0.0]), ("b", [1.0, 0.0]), ("z", [0.0, 0.0])]
        )
        syn = build_synonym_dict(emb, tau=0.8)
        assert syn.rejected == ("z",)
        assert syn.sets["z"] == frozenset({"z"})
        assert all("z" not in syn.sets[w] for w in ("a", "b"))

    def test_empty_table_and_bad_tau_rejected(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0])])
        with pytest.raises(LexiconError):
            build_synonym_dict(emb, tau=1.5)
        with pytest.raises(LexiconError):
            EmbeddingTable.from_pairs([])


def _pairwise_synonym_dict(emb, tau):
    """The earlier full-matrix, pair-by-pair synonym search, kept as the
    oracle of the blocked one."""
    tokens = sorted(emb.vectors)
    mat = np.stack([emb.vectors[t] for t in tokens])
    norms = np.linalg.norm(mat, axis=1)
    rejected = tuple(t for t, n in zip(tokens, norms) if n == 0.0)
    sets = {t: {t} for t in tokens}
    valid = [i for i, n in enumerate(norms) if n > 0.0]
    if valid:
        unit = mat[valid] / norms[valid, None]
        sims = unit @ unit.T
        for a in range(len(valid)):
            for b in range(a + 1, len(valid)):
                if sims[a, b] >= tau:
                    wa, wb = tokens[valid[a]], tokens[valid[b]]
                    sets[wa].add(wb)
                    sets[wb].add(wa)
    return SynonymDict(sets={w: frozenset(s) for w, s in sets.items()}, rejected=rejected)


def _clustered_table(seed, size, dim=32):
    """Seeded clusters of 1-6 words whose within-cluster cosines spread over
    about 0.25-0.99, plus zero-norm rows that sort into the middle of the
    vocabulary, exact duplicate vectors, and a pair at cosine exactly 0.5."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < size:
        centre = rng.normal(size=dim)
        centre /= np.linalg.norm(centre)
        sigma = rng.choice([0.02, 0.1, 0.2, 0.3])
        for _ in range(int(rng.integers(1, 7))):
            pairs.append((f"w{len(pairs):04d}", centre + rng.normal(scale=sigma, size=dim)))
    middle = len(pairs) // 2
    zero = np.zeros(dim)
    pairs += [(f"w{middle:04d}z", zero), (f"w{middle + 3:04d}z", zero)]
    pairs += [(f"{name}dup", vec.copy()) for name, vec in pairs[5:400:37]]
    pairs += [("tie0", np.eye(dim)[0]), ("tie1", np.r_[np.ones(4), np.zeros(dim - 4)])]
    return EmbeddingTable.from_pairs(pairs)


class TestBlockedSynonymSearch:
    @pytest.mark.parametrize("tau", [0.5, 0.8])
    def test_matches_pairwise_search_for_any_block_size(self, monkeypatch, tau):
        emb = _clustered_table(seed=int(tau * 10), size=1500)
        expected = _pairwise_synonym_dict(emb, tau)
        n_valid = len(emb) - len(expected.rejected)
        assert expected.rejected and n_valid % 7 != 0  # the last 7-row block is ragged
        assert ("tie1" in expected.sets["tie0"]) == (tau == 0.5)  # >= keeps the tie
        assert sum(len(s) > 1 for s in expected.sets.values()) > len(emb) // 4
        for rows in (1, 7, None):
            if rows is not None:
                monkeypatch.setattr(lexicon_mod, "_BLOCK_SIMILARITIES", rows * n_valid)
            assert build_synonym_dict(emb, tau) == expected, f"{rows}-row blocks"

    def test_lexicon_matches_the_pairwise_search_lexicon(self, monkeypatch):
        emb = _clustered_table(seed=3, size=1200)
        expected = Lexicon.from_parts(
            syn := _pairwise_synonym_dict(emb, 0.8), build_perturb_dict(syn, emb, 4)
        ).to_json_dict()
        monkeypatch.setattr(lexicon_mod, "_BLOCK_SIMILARITIES", 7 * (len(emb) - len(syn.rejected)))
        assert Lexicon.build(emb, tau=0.8, j=4).to_json_dict() == expected

    def test_memory_stays_below_half_the_similarity_matrix(self):
        emb = _clustered_table(seed=5, size=3000, dim=48)
        full_matrix = len(emb) ** 2 * 8
        tracemalloc.start()
        try:
            build_synonym_dict(emb, 0.8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_matrix / 2


class TestBuildPerturbDict:
    def test_singleton_synonyms_are_non_perturbable(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        syn = build_synonym_dict(emb, tau=0.5)
        pert = build_perturb_dict(syn, emb, j=3)
        assert pert.sets["a"] == ("a",)
        assert not pert.is_perturbable("a")

    def test_uniform_clique_truncates_to_j(self):
        # Ten near-identical words form one clique; J=4 keeps 4 everywhere.
        rng = np.random.default_rng(7)
        base = np.array([1.0, 0.5, -0.25])
        emb = EmbeddingTable.from_pairs(
            [(f"t{i}", base + rng.normal(scale=1e-3, size=3)) for i in range(10)]
        )
        syn = build_synonym_dict(emb, tau=0.9)
        assert all(len(s) == 10 for s in syn.sets.values())
        pert = build_perturb_dict(syn, emb, j=4)
        assert all(len(t) == 4 for t in pert.sets.values())
        assert all(pert.is_perturbable(w) for w in syn.sets)
        assert all(w == pert.sets[w][0] for w in syn.sets)

    def test_chain_demotes_to_fixpoint(self):
        # Chain a-b-c: cos(a,b) = cos(b,c) = cos(30deg) >= tau, cos(a,c) =
        # cos(60deg) < tau. With J=3 only b has enough synonyms, and the
        # fixpoint pass must then demote b because a and c stay singletons.
        emb = EmbeddingTable.from_pairs(
            [
                ("a", [1.0, 0.0]),
                ("b", [math.cos(math.pi / 6), math.sin(math.pi / 6)]),
                ("c", [math.cos(math.pi / 3), math.sin(math.pi / 3)]),
            ]
        )
        syn = build_synonym_dict(emb, tau=0.82)
        assert set(syn.sets["b"]) == {"a", "b", "c"}
        assert set(syn.sets["a"]) == {"a", "b"}
        pert = build_perturb_dict(syn, emb, j=3)
        assert pert.sets == {"a": ("a",), "b": ("b",), "c": ("c",)}
        assert not any(pert.perturbable.values())

    def test_j_one_means_identity_noise_only(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0, 0.1]), ("b", [1.0, 0.11])])
        syn = build_synonym_dict(emb, tau=0.9)
        assert set(syn.sets["a"]) == {"a", "b"}
        pert = build_perturb_dict(syn, emb, j=1)
        assert pert.sets["a"] == ("a",)
        assert not pert.is_perturbable("a")
        lex = Lexicon.from_parts(syn, pert)
        assert lex.overlap_of("a") == 1.0
        assert lex.overlap_of("b") == 1.0

    def test_bad_j_rejected(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0])])
        syn = build_synonym_dict(emb, tau=0.5)
        with pytest.raises(LexiconError):
            build_perturb_dict(syn, emb, j=0)


class TestOverlap:
    def test_equal_perturbation_sets_give_one(self):
        lex = hand_lexicon(
            {"a": {"a", "b"}, "b": {"a", "b"}},
            {"a": ("a", "b"), "b": ("a", "b")},
            j=2,
        )
        assert lex.overlap_of("a") == 1.0

    def test_singleton_gives_one(self):
        lex = hand_lexicon({"a": {"a"}}, {"a": ("a",)}, j=2)
        assert lex.overlap_of("a") == 1.0

    def test_half_overlap_by_set_enumeration(self):
        # T_a = {a, c}, T_b = {b, c}: the only shared member is c, so
        # o_a = |{c}| / |T_a| = 1/2.
        syn = SynonymDict(sets={"a": frozenset({"a", "b"}), "b": frozenset({"a", "b"})})
        pert = PerturbDict(
            sets={"a": ("a", "c"), "b": ("b", "c")},
            j_size=2,
            perturbable={"a": True, "b": True},
        )
        assert overlap(pert, syn, "a") == 0.5

    def test_unknown_word_is_an_error(self):
        syn = SynonymDict(sets={"a": frozenset({"a"})})
        pert = PerturbDict(sets={"a": ("a",)}, j_size=2, perturbable={"a": False})
        with pytest.raises(LexiconError, match="unknown"):
            overlap(pert, syn, "zzz")


class TestValidateLexicon:
    def test_builder_output_is_clean(self):
        world = random_world(np.random.default_rng(3))
        assert world.lexicon.validate() == []

    def test_size_mismatch_reported(self):
        syn = SynonymDict(sets={"a": frozenset({"a", "b"}), "b": frozenset({"a", "b"})})
        pert = PerturbDict(
            sets={"a": ("a", "b"), "b": ("b", "a", "c")},
            j_size=2,
            perturbable={"a": True, "b": True},
        )
        report = validate_lexicon(pert, syn)
        assert sum(1 for p in report if p.startswith("size-mismatch")) >= 1

    def test_asymmetry_reported(self):
        syn = SynonymDict(sets={"a": frozenset({"a", "b"}), "b": frozenset({"b"})})
        pert = PerturbDict(
            sets={"a": ("a",), "b": ("b",)}, j_size=2, perturbable={"a": False, "b": False}
        )
        report = validate_lexicon(pert, syn)
        assert any(p.startswith("asymmetry") for p in report)

    def test_missing_self_reported(self):
        syn = SynonymDict(sets={"a": frozenset({"b"}), "b": frozenset({"a", "b"})})
        pert = PerturbDict(
            sets={"a": ("a",), "b": ("b",)}, j_size=2, perturbable={"a": False, "b": False}
        )
        report = validate_lexicon(pert, syn)
        assert any(p.startswith("missing-self") for p in report)


class TestLexiconJson:
    def test_round_trip(self, tmp_path):
        world = random_world(np.random.default_rng(11))
        path = tmp_path / "lexicon.json"
        world.lexicon.save(path)
        loaded = Lexicon.load(path)
        assert loaded.synonyms.sets == world.lexicon.synonyms.sets
        assert loaded.perturb.sets == world.lexicon.perturb.sets
        assert loaded.perturb.perturbable == world.lexicon.perturb.perturbable
        assert loaded.overlaps == world.lexicon.overlaps


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_worlds_satisfy_symmetry_and_equal_size(seed):
    world = random_world(np.random.default_rng(seed))
    syn = world.lexicon.synonyms
    pert = world.lexicon.perturb
    for w, members in syn.sets.items():
        assert w in members
        for w2 in members:
            assert w in syn.sets[w2], f"asymmetric pair ({w}, {w2})"
    for w in pert.sets:
        if pert.is_perturbable(w):
            for w2 in syn.sets[w]:
                assert len(pert.sets[w2]) == len(pert.sets[w])
        else:
            assert pert.sets[w] == (w,)
    assert world.lexicon.validate() == []


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_overlap_matches_brute_force_scan(seed):
    world = random_world(np.random.default_rng(seed))
    lex = world.lexicon
    for w in lex.vocab:
        if not lex.is_perturbable(w):
            assert lex.overlap_of(w) == 1.0
            continue
        t_w = set(lex.perturb_set(w))
        brute = min(
            len(t_w.intersection(lex.perturb_set(w2))) / len(t_w)
            for w2 in lex.synonyms.synonyms(w)
        )
        assert lex.overlap_of(w) == pytest.approx(brute, abs=0)


def test_cosine_tie_break_is_lexicographic():
    # b and c sit at identical similarity to a; J=2 must pick b, not c.
    emb = EmbeddingTable.from_pairs(
        [("a", [1.0, 0.0]), ("b", [0.9, 0.2]), ("c", [0.9, -0.2]), ("d", [0.95, 0.0])]
    )
    syn = build_synonym_dict(emb, tau=0.9)
    assert set(syn.sets["a"]) == {"a", "b", "c", "d"}
    pert = build_perturb_dict(syn, emb, j=2)
    # d has strictly higher cosine to a than b or c, so it wins; among the
    # b/c tie lexicographic order applies when J allows a third member.
    assert pert.sets["a"] == ("a", "d")
    pert3 = build_perturb_dict(syn, emb, j=3)
    assert pert3.sets["a"][0] == "a"
    assert pert3.sets["a"][1] == "d"
    assert pert3.sets["a"][2] == "b"
