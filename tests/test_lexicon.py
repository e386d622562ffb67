"""Lexicon construction, overlap computation, and validation."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankcert import (
    Document,
    EmbeddingTable,
    Lexicon,
    Query,
    SmoothedModel,
    build_perturb_dict,
    build_synonym_dict,
    certify_topk,
    smooth_rank,
)
from rankcert import lexicon as lexicon_mod
from rankcert.lexicon import LexiconError

from conftest import TokenTableModel, hand_lexicon, random_world, size_mismatch_lexicon


def _cos(u, v):
    num = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return num / (nu * nv)


def _per_line_table(path):
    """The earlier embedding-file parse, one ``float`` list and one array
    per line, kept as the oracle of the one-matrix parse."""
    vectors = {}
    first = True
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if first:
                first = False
                if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
                    continue
            vectors[parts[0]] = np.asarray([float(v) for v in parts[1:]], dtype=float)
    tokens = tuple(sorted(vectors))
    return tokens, np.stack([vectors[t] for t in tokens])


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

    def test_load_matches_the_per_line_parse_bit_for_bit(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("4 3\n\tb 1e-3\t-0 +.5\na 1_0 -2.5E+2 0.1\n\n"
                        "d  -0.0 .25 7\nc 3 1e308 -1e-308\n")
        emb = EmbeddingTable.load(path)
        tokens, matrix = _per_line_table(path)
        assert emb.tokens == tokens == ("a", "b", "c", "d")
        assert emb.index == {t: i for i, t in enumerate(tokens)}
        assert emb.matrix.dtype == matrix.dtype and emb.matrix.shape == matrix.shape
        assert emb.matrix.tobytes() == matrix.tobytes()
        assert math.copysign(1.0, emb["b"][1]) == -1.0

    @pytest.mark.parametrize("text,message", [
        ("2 2\ncat 1 0\n\ndog 1\n", "4: embedding for 'dog' has dimension 1, expected 2"),
        ("cat 1 0\ndog 0 1\ncat 1 1\n", "3: duplicate embedding token 'cat'"),
        ("cat 1 0\ndog nan 1\n", "2: embedding for 'dog' has non-finite values"),
        ("cat 1 0\ndog inf 1\n", "2: embedding for 'dog' has non-finite values"),
    ], ids=["dimension", "duplicate", "nan", "inf"])
    def test_load_names_the_line_of_every_error(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(LexiconError) as err:
            EmbeddingTable.load(path)
        assert str(err.value) == f"{path}:{message}"

    def test_load_reports_the_first_bad_line(self, tmp_path):
        # Line 2 repeats a token, line 3 has a non-finite value and line 4
        # the wrong dimension: line 2 is reported.
        path = tmp_path / "bad.txt"
        path.write_text("cat 1 0\ncat 0 1\ndog inf 1\ncow 1\n")
        with pytest.raises(LexiconError, match=r"bad\.txt:2: duplicate embedding token 'cat'$"):
            EmbeddingTable.load(path)
        # On one line, the dimension is checked before the values.
        path.write_text("cat 1 0\ndog inf 1 2\n")
        with pytest.raises(LexiconError, match=r"bad\.txt:2: .*dimension 3, expected 2$"):
            EmbeddingTable.load(path)

    def test_vectors_are_one_read_only_matrix_in_token_order(self):
        emb = EmbeddingTable.from_pairs([("dog", [0.25, -1.0]), ("cat", [1.0, 0.5])])
        assert emb.tokens == ("cat", "dog")
        assert emb.index == {"cat": 0, "dog": 1}
        assert np.array_equal(emb.matrix, [[1.0, 0.5], [0.25, -1.0]])
        assert emb.dim == 2 and len(emb) == 2 and "dog" in emb and "cow" not in emb
        assert np.array_equal(emb["dog"], [0.25, -1.0])
        with pytest.raises(ValueError, match="read-only"):
            emb.matrix[0, 0] = 2.0
        # One more row, +0.0, follows the tokens' rows in the same array.
        assert emb.vectors.shape == (3, 2) and np.shares_memory(emb.matrix, emb.vectors)
        assert emb.vectors[2].tolist() == [0.0, 0.0] and not np.signbit(emb.vectors[2]).any()
        with pytest.raises(ValueError, match="read-only"):
            emb.vectors[2, 0] = 1.0

    def test_load_peak_stays_near_the_table(self, tmp_path):
        # The fields go straight into float64 blocks, so loading holds about
        # the blocks and the vectors, not a Python float per value.
        rng = np.random.default_rng(7)
        path = tmp_path / "emb.txt"
        path.write_text("".join(f"w{i:04d} " + " ".join(map(repr, row)) + "\n"
                                for i, row in enumerate(rng.normal(size=(5000, 100)).tolist())))
        tracemalloc.start()
        try:
            emb = EmbeddingTable.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert emb.matrix.shape == (5000, 100)
        assert peak <= 3 * emb.vectors.nbytes


def _table_text(rows, header, dim=3):
    """An embedding file of ``rows`` seeded rows in reverse token order,
    with blank lines, tabs and ``float()``'s edge spellings."""
    rng = np.random.default_rng(rows)
    spellings = ["-0", "+.5", "1_0", "4.9e-324", "-1E+2"]
    lines = [f"{rows} {dim}"] if header else []
    for i in reversed(range(rows)):
        values = [repr(v) for v in rng.normal(size=dim).tolist()]
        values[i % dim] = spellings[i % len(spellings)]
        lines += [f"w{i:02d}\t" + " ".join(values), "" if i % 2 else " \t"]
    return "\n".join(lines) + "\n"


class TestBlockedEmbeddingLoad:
    """``EmbeddingTable.load`` over 3-row blocks: the checks of
    ``TestEmbeddingTable`` again, and tables that end just before, on and
    just past a block boundary."""

    @pytest.fixture(autouse=True)
    def three_row_blocks(self, monkeypatch):
        monkeypatch.setattr(lexicon_mod, "_BLOCK_ROWS", 3)

    test_load_matches_the_per_line_parse_bit_for_bit = (
        TestEmbeddingTable.test_load_matches_the_per_line_parse_bit_for_bit)
    test_load_names_the_line_of_every_error = (
        TestEmbeddingTable.test_load_names_the_line_of_every_error)
    test_load_reports_the_first_bad_line = TestEmbeddingTable.test_load_reports_the_first_bad_line

    @pytest.mark.parametrize("header", [False, True], ids=["plain", "header"])
    @pytest.mark.parametrize("rows", [2, 3, 4, 7])
    def test_load_matches_the_per_line_parse_at_block_edges(self, tmp_path, rows, header):
        path = tmp_path / "emb.txt"
        path.write_text(_table_text(rows, header))
        emb = EmbeddingTable.load(path)
        tokens, matrix = _per_line_table(path)
        assert len(tokens) == rows and emb.tokens == tokens
        assert emb.matrix.tobytes() == matrix.tobytes()
        assert emb.vectors[-1].tobytes() == bytes(8 * 3)

    @pytest.mark.parametrize("row", [3, 5], ids=["first-row", "last-row"])
    @pytest.mark.parametrize("bad,message", [
        ("{w} 1 oops 2", "bad vector component: could not convert string to float: 'oops'"),
        ("{w}", "token without vector"),
        ("{w} 1 2", "embedding for '{w}' has dimension 2, expected 3"),
        ("{w} 1 nan 2", "embedding for '{w}' has non-finite values"),
        ("w00 1 2 3", "duplicate embedding token 'w00'"),
    ], ids=["component", "no-vector", "dimension", "nan", "duplicate"])
    def test_a_bad_line_in_the_second_block_is_named(self, tmp_path, bad, message, row):
        lines = [f"w{i:02d} 1 2 3" for i in range(7)]
        lines[row] = bad.format(w=f"w{row:02d}")
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n" + "\n".join(lines) + "\n")
        with pytest.raises(LexiconError) as err:
            EmbeddingTable.load(path)
        assert str(err.value) == f"{path}:{row + 2}: " + message.format(w=f"w{row:02d}")

    def test_errors_keep_their_order_across_blocks(self, tmp_path):
        path = tmp_path / "bad.txt"
        # A bad component in the third block comes before a wrong
        # dimension in the first, and a bad component on a line of the
        # wrong dimension before that dimension.
        path.write_text("a 1 2\nb 1\nc 1 2\nd 1 2\ne 1 2\nf 1 2\ng 1 x\n")
        with pytest.raises(LexiconError, match=r"bad\.txt:7: bad vector component"):
            EmbeddingTable.load(path)
        path.write_text("a 1 2\nb 1\nc 1 2\nd x 2 3\n")
        with pytest.raises(LexiconError, match=r"bad\.txt:4: bad vector component"):
            EmbeddingTable.load(path)
        # Then the earliest row check wins: a duplicate in the first block
        # before a non-finite value in the second and a dimension in the third.
        path.write_text("a 1 2\nb 1 2\na 3 4\nd inf 2\ne 1 2\nf 1 2\ng 1\n")
        with pytest.raises(LexiconError, match=r"bad\.txt:3: duplicate embedding token 'a'$"):
            EmbeddingTable.load(path)
        path.write_text("a 1 2\nb 1 2\nc 3 4\nd inf 2\ne 1 2\nf 1 2\ng 1\n")
        with pytest.raises(LexiconError, match=r"bad\.txt:4: .*'d' has non-finite values$"):
            EmbeddingTable.load(path)

class TestBuildSynonymDict:
    def test_identical_vectors_are_mutual_synonyms(self):
        emb = EmbeddingTable.from_pairs(
            [("a", [1.0, 2.0]), ("b", [1.0, 2.0]), ("c", [-2.0, 1.0])]
        )
        syn = build_synonym_dict(emb, tau=0.8)
        assert syn == {"a": frozenset({"a", "b"}), "b": frozenset({"a", "b"}), "c": frozenset({"c"})}

    def test_orthogonal_vectors_are_singletons(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        syn = build_synonym_dict(emb, tau=0.5)
        assert syn == {"a": frozenset({"a"}), "b": frozenset({"b"})}

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
        assert {w: set(s) for w, s in syn.items()} == expected
        # The fixture is only meaningful if it has a non-trivial cluster.
        assert expected["ant"] == {"ant", "bee"}
        assert expected["cat"] == {"cat", "dog"}

    def test_zero_norm_vector_rejected_with_warning_record(self, caplog):
        emb = EmbeddingTable.from_pairs(
            [("a", [1.0, 0.0]), ("b", [1.0, 0.0]), ("z", [0.0, 0.0])]
        )
        with caplog.at_level("WARNING", logger="rankcert.lexicon"):
            syn = build_synonym_dict(emb, tau=0.8)
        assert [r.getMessage() for r in caplog.records] == [
            "zero-norm embedding for 'z'; excluded from synonym search"]
        assert syn["z"] == frozenset({"z"})
        assert all("z" not in syn[w] for w in ("a", "b"))

    def test_empty_table_and_bad_tau_rejected(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0])])
        with pytest.raises(LexiconError):
            build_synonym_dict(emb, tau=1.5)
        with pytest.raises(LexiconError):
            EmbeddingTable.from_pairs([])


def _pairwise_synonym_dict(emb, tau):
    """The earlier full-matrix, pair-by-pair synonym search, kept as the
    oracle of the blocked one."""
    tokens = sorted(emb.tokens)
    mat = np.stack([emb[t] for t in tokens])
    norms = np.linalg.norm(mat, axis=1)
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
    return {w: frozenset(s) for w, s in sets.items()}


def _nonzero_rows(emb):
    return sum(np.linalg.norm(emb[t]) > 0.0 for t in emb.tokens)


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
        n_valid = _nonzero_rows(emb)
        assert n_valid < len(emb) and n_valid % 7 != 0  # the last 7-row block is ragged
        assert ("tie1" in expected["tie0"]) == (tau == 0.5)  # >= keeps the tie
        assert sum(len(s) > 1 for s in expected.values()) > len(emb) // 4
        for rows in (1, 7, None):
            if rows is not None:
                monkeypatch.setattr(lexicon_mod, "_BLOCK_SIMILARITIES", rows * n_valid)
            assert build_synonym_dict(emb, tau) == expected, f"{rows}-row blocks"

    def test_lexicon_matches_the_pairwise_search_lexicon(self, monkeypatch):
        emb = _clustered_table(seed=3, size=1200)
        syn = _pairwise_synonym_dict(emb, 0.8)
        expected = Lexicon(synonyms=syn, perturb=build_perturb_dict(syn, emb, 4), j=4).to_json_dict()
        monkeypatch.setattr(lexicon_mod, "_BLOCK_SIMILARITIES", 7 * _nonzero_rows(emb))
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


def _cosine_perturb_dict(synonyms, emb, j):
    """The earlier perturbation-set builder, one ``cosine()`` of two looked-up
    vectors per (word, member) pair, kept as the oracle of the one that
    computes each row's norm once."""

    def cosine(u, v):
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return float(np.dot(u, v) / (nu * nv))

    sets = {}
    for w in sorted(synonyms):
        members = synonyms[w]
        if len(members) >= j:
            others = sorted((m for m in members if m != w),
                            key=lambda m: (-cosine(emb[w], emb[m]), m))
            sets[w] = (w, *others[: j - 1])
        else:
            sets[w] = (w,)
    for _ in range(len(sets) + 1):
        changed = False
        for w in sorted(sets):
            size = len(sets[w])
            if size >= 2 and any(len(sets.get(w2, (w2,))) != size for w2 in synonyms[w]):
                sets[w] = (w,)
                changed = True
        if not changed:
            break
    return sets


class TestPerturbRanking:
    @pytest.mark.parametrize("j", [2, 4])
    @pytest.mark.parametrize("seed,tau", [(1, 0.5), (2, 0.8)])
    def test_matches_the_per_pair_cosine_ranking(self, seed, tau, j):
        emb = _clustered_table(seed=seed, size=1200)
        syn = dict(build_synonym_dict(emb, tau))
        # Join the zero-norm rows to the largest set, so that their cosine of
        # 0 is ranked and ties with each other.
        zeros = {t for t in emb.tokens if not np.any(emb[t])}
        clique = max(syn.values(), key=len) | zeros
        syn.update({w: clique for w in clique})
        assert len(zeros) == 2 and len(clique) > j
        dups = [t for t in emb.tokens if t.endswith("dup")]
        assert any(len(syn[t]) > 1 for t in dups)  # duplicate vectors tie exactly
        assert build_perturb_dict(syn, emb, j) == _cosine_perturb_dict(syn, emb, j)

    def test_lexicon_bytes_are_pinned(self, tmp_path):
        # A change that moves these bytes moves every downstream certificate.
        emb = _clustered_table(seed=9, size=3000)
        path = tmp_path / "lexicon.json"
        Lexicon.build(emb, tau=0.8, j=4).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "5ddc5517c7f3f17599b5af4b9cbad0a86f965d54e899f7c7658d0c0172ba6122")


class TestBuildPerturbDict:
    def test_singleton_synonyms_are_non_perturbable(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        syn = build_synonym_dict(emb, tau=0.5)
        pert = build_perturb_dict(syn, emb, j=3)
        assert pert["a"] == ("a",)
        assert not Lexicon(synonyms=syn, perturb=pert, j=3).is_perturbable("a")

    def test_uniform_clique_truncates_to_j(self):
        # Ten near-identical words form one clique; J=4 keeps 4 everywhere.
        rng = np.random.default_rng(7)
        base = np.array([1.0, 0.5, -0.25])
        emb = EmbeddingTable.from_pairs(
            [(f"t{i}", base + rng.normal(scale=1e-3, size=3)) for i in range(10)]
        )
        syn = build_synonym_dict(emb, tau=0.9)
        assert all(len(s) == 10 for s in syn.values())
        pert = build_perturb_dict(syn, emb, j=4)
        assert all(len(t) == 4 for t in pert.values())
        assert all(Lexicon(synonyms=syn, perturb=pert, j=4).is_perturbable(w) for w in syn)
        assert all(w == pert[w][0] for w in syn)

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
        assert set(syn["b"]) == {"a", "b", "c"}
        assert set(syn["a"]) == {"a", "b"}
        pert = build_perturb_dict(syn, emb, j=3)
        assert pert == {"a": ("a",), "b": ("b",), "c": ("c",)}

    def test_j_one_means_identity_noise_only(self):
        emb = EmbeddingTable.from_pairs([("a", [1.0, 0.1]), ("b", [1.0, 0.11])])
        syn = build_synonym_dict(emb, tau=0.9)
        assert set(syn["a"]) == {"a", "b"}
        pert = build_perturb_dict(syn, emb, j=1)
        assert pert["a"] == ("a",)
        lex = Lexicon(synonyms=syn, perturb=pert, j=1)
        assert not lex.is_perturbable("a")
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
        lex = hand_lexicon(
            {"a": {"a", "b"}, "b": {"a", "b"}}, {"a": ("a", "c"), "b": ("b", "c")}, j=2
        )
        assert [lex.overlap_of(w) for w in ("a", "b")] == [0.5, 0.5]

    def test_out_of_vocabulary_word_is_an_unperturbable_singleton(self):
        lex = hand_lexicon({"a": {"a"}}, {"a": ("a",)}, j=2)
        assert lex.perturb_set("zzz") == ("zzz",)
        assert lex.attack_set("zzz") == ("zzz",)
        assert not lex.is_perturbable("zzz")
        assert lex.overlap_of("zzz") == 1.0


class TestValidateLexicon:
    def test_builder_output_is_clean(self):
        world = random_world(np.random.default_rng(3))
        assert world.lexicon.validate() == []

    def test_size_mismatch_reported(self):
        lex = hand_lexicon(
            {"a": {"a", "b"}, "b": {"a", "b"}}, {"a": ("a", "b"), "b": ("b", "a", "c")}, j=2
        )
        assert sum(1 for p in lex.validate() if p.startswith("size-mismatch")) >= 1

    def test_asymmetry_reported(self):
        lex = hand_lexicon({"a": {"a", "b"}, "b": {"b"}}, {"a": ("a",), "b": ("b",)}, j=2)
        assert any(p.startswith("asymmetry") for p in lex.validate())

    def test_missing_self_reported(self):
        lex = hand_lexicon({"a": {"b"}, "b": {"a", "b"}}, {"a": ("a",), "b": ("b",)}, j=2)
        assert any(p.startswith("missing-self") for p in lex.validate())

    def test_perturbable_means_two_or_more_members(self):
        lex = hand_lexicon(
            {"a": {"a", "b"}, "b": {"a", "b"}, "c": {"c"}},
            {"a": ("a", "b"), "b": ("b", "a"), "c": ("c",)},
            j=2,
        )
        assert [lex.is_perturbable(w) for w in ("a", "b", "c")] == [True, True, False]
        assert lex.attack_set("a") == ("a", "b") and lex.attack_set("c") == ("c",)


class TestLexiconJson:
    def test_round_trip(self, tmp_path):
        world = random_world(np.random.default_rng(11))
        path = tmp_path / "lexicon.json"
        world.lexicon.save(path)
        loaded = Lexicon.load(path)
        assert loaded == world.lexicon
        vocab = world.lexicon.vocab
        assert list(map(loaded.overlap_of, vocab)) == list(map(world.lexicon.overlap_of, vocab))
        assert set(json.loads(path.read_text())) == {"J", "synonyms", "perturb"}

    def test_equal_words_share_one_object(self, tmp_path):
        world = random_world(np.random.default_rng(11), regime="mixed")
        path = tmp_path / "lexicon.json"
        world.lexicon.save(path)
        loaded = Lexicon.load(path)
        key = {w: w for w in loaded.synonyms}
        assert all(w is key[w] for w in loaded.perturb)
        members = [m for w in key for m in (*loaded.synonyms[w], *loaded.perturb[w])]
        assert all(m is key[m] for m in members)
        # Most members sit in other words' sets, not only in their own.
        assert len(members) > 3 * len(key)

    def test_size_mismatch_certifies_unsoundly(self):
        # Why load validates: with |T_a| = 2 but |T_b| = 3, o_a = 1/2 makes
        # the tail document (a,) look certifiably below the top one (u,) ...
        lex = size_mismatch_lexicon()
        model = TokenTableModel({("u",): 0.55, ("b",): 1.0, ("d",): 1.0})
        query = Query("q", ("q",))
        top, tail = Document("top", ("u",)), Document("tail", ("a",))
        smoothed = SmoothedModel(model, lex, n=None)
        ranked = smooth_rank(smoothed, query, [top, tail])
        report = certify_topk(smoothed, query, ranked, {"top": top, "tail": tail}, 1, 1.0)
        assert report.certified and report.delta_lq == pytest.approx(0.05, abs=1e-12)
        # ... yet substituting a -> b lifts it to 2/3, above the top's 0.55.
        attacked = smooth_rank(smoothed, query, [top, Document("tail", ("b",))])
        assert attacked.entries[0].doc_id == "tail"
        assert attacked.entries[0].score == pytest.approx(2 / 3)

    def test_load_rejects_a_lexicon_that_fails_validation(self, tmp_path):
        path = tmp_path / "lexicon.json"
        size_mismatch_lexicon().save(path)
        with pytest.raises(LexiconError, match="violation.*size-mismatch: [|]T_a[|] = 2"):
            Lexicon.load(path)

    @pytest.mark.parametrize("payload", [
        {"J": 2, "perturb": {}},
        {"J": 2, "synonyms": [], "perturb": {}},
        pytest.param('{"J": 2, "synonyms": {', id="truncated"),
        *(pytest.param({"J": j, "synonyms": {}, "perturb": {}}, id=f"J={j!r}")
          for j in (2.7, True, "4", 0, -3)),
        # A set must be a JSON list of strings: a string is not split into
        # letters, and a null or a number is not a word.
        pytest.param({"J": 2, "synonyms": {"a": ["a"]}, "perturb": {"a": "a"}}, id="perturb-str"),
        pytest.param({"J": 2, "synonyms": {"a": "a"}, "perturb": {"a": ["a"]}}, id="synonyms-str"),
        pytest.param({"J": 2, "synonyms": {"a": ["a", None]}, "perturb": {"a": ["a"]}},
                     id="synonyms-null-member"),
        pytest.param({"J": 2, "synonyms": {"a": ["a", 7]}, "perturb": {"a": ["a"]}},
                     id="synonyms-number-member"),
        pytest.param({"J": 2, "synonyms": {"a": ["a"]}, "perturb": {"a": ["a", None]}},
                     id="perturb-null-member"),
        pytest.param({"J": 2, "synonyms": {"a": ["a"]}, "perturb": {"a": ["a", 7]}},
                     id="perturb-number-member"),
        pytest.param({"J": 2, "synonyms": {"a": ["a"]}, "perturb": {"a": None}},
                     id="perturb-null"),
    ])
    def test_load_rejects_a_malformed_file(self, tmp_path, payload):
        path = tmp_path / "lexicon.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        with pytest.raises(LexiconError, match=f"^{re.escape(str(path))}: malformed lexicon file"):
            Lexicon.load(path)

    def test_load_checks_legacy_perturbable_flags(self, tmp_path):
        # Older files carried a ``perturbable`` flag per word. Load ignores
        # them, whatever they say and whatever their JSON type: |T_w| alone
        # makes a word perturbable, so a stale flag cannot weaken the bound.
        world = random_world(np.random.default_rng(11), regime="mixed")
        payload = world.lexicon.to_json_dict()
        flags = {w: world.lexicon.is_perturbable(w) for w in world.lexicon.vocab}
        flipped = next(w for w, flag in flags.items() if not flag)
        path = tmp_path / "lexicon.json"
        for legacy in (flags, {**flags, flipped: True}, [], "yes"):
            path.write_text(json.dumps({**payload, "perturbable": legacy}))
            loaded = Lexicon.load(path)
            assert loaded == world.lexicon
            assert loaded.to_json_dict() == payload and not loaded.is_perturbable(flipped)


# Tokens that exercise every escape of the ASCII-only JSON encoder: quotes,
# backslashes, control characters, non-ASCII letters and U+2028.
_json_tokens = st.text(st.sampled_from('a"\\\x00\x1f\x7f\u2028\u00e9\u6f22') | st.characters(),
                       max_size=5)


@given(
    synonyms=st.dictionaries(_json_tokens, st.frozensets(_json_tokens, max_size=4), max_size=6),
    perturb=st.dictionaries(_json_tokens, st.lists(_json_tokens, max_size=4).map(tuple),
                            max_size=6),
    j=st.integers(0, 10**6),
)
@example(synonyms={}, perturb={}, j=4)
@settings(max_examples=200, deadline=None)
def test_save_writes_the_bytes_of_the_indenting_json_encoder(
    tmp_path_factory, synonyms, perturb, j
):
    lexicon = Lexicon(synonyms=synonyms, perturb=perturb, j=j)
    path = tmp_path_factory.mktemp("save") / "lexicon.json"
    lexicon.save(path)
    expected = json.dumps(lexicon.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("ascii")


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_random_worlds_satisfy_symmetry_and_equal_size(seed):
    world = random_world(np.random.default_rng(seed))
    syn = world.lexicon.synonyms
    pert = world.lexicon.perturb
    for w, members in syn.items():
        assert w in members
        for w2 in members:
            assert w in syn[w2], f"asymmetric pair ({w}, {w2})"
    for w in pert:
        if world.lexicon.is_perturbable(w):
            for w2 in syn[w]:
                assert len(pert[w2]) == len(pert[w])
        else:
            assert pert[w] == (w,)
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
            for w2 in lex.synonym_set(w)
        )
        assert lex.overlap_of(w) == pytest.approx(brute, abs=0)


def test_cosine_tie_break_is_lexicographic():
    # b and c sit at identical similarity to a; J=2 must pick b, not c.
    emb = EmbeddingTable.from_pairs(
        [("a", [1.0, 0.0]), ("b", [0.9, 0.2]), ("c", [0.9, -0.2]), ("d", [0.95, 0.0])]
    )
    syn = build_synonym_dict(emb, tau=0.9)
    assert set(syn["a"]) == {"a", "b", "c", "d"}
    pert = build_perturb_dict(syn, emb, j=2)
    # d has strictly higher cosine to a than b or c, so it wins; among the
    # b/c tie lexicographic order applies when J allows a third member.
    assert pert["a"] == ("a", "d")
    pert3 = build_perturb_dict(syn, emb, j=3)
    assert pert3["a"][0] == "a"
    assert pert3["a"][1] == "d"
    assert pert3["a"][2] == "b"
