"""Corpus, query, run, and qrels loading."""

import json
import re

import pytest

from rankcert import (
    Document,
    RankedList,
    RankEntry,
    load_corpus,
    load_qrels,
    load_queries,
    load_run,
    make_ranked,
    tokenize,
    write_run,
)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Cheap Flights") == ("cheap", "flights")

    def test_strips_punctuation(self):
        assert tokenize("cheap, flights!") == ("cheap", "flights")

    def test_is_pure(self):
        text = "Cheap FLIGHTS to Paris?"
        assert tokenize(text) == tokenize(text) == ("cheap", "flights", "to", "paris")


class TestLoadCorpus:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id":"d1","text":"Cheap Flights"}\n')
        docs = load_corpus(path)
        assert docs["d1"].tokens == ("cheap", "flights")

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert load_corpus(path) == {}

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id":"d1","text":"one"}\n{"id":"d2","text":"two"}\n{"id":"d1","text":"again"}\n'
        )
        with pytest.raises(ValueError, match="'d1'"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id":"d1","text":"one"}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            load_corpus(path)


class TestLoadRun:
    def test_two_lines_sorted(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 dA 1 0.9 x\nq1 Q0 dB 2 0.4 x\n")
        run = load_run(path)
        assert [(e.doc_id, e.score) for e in run["q1"].entries] == [("dA", 0.9), ("dB", 0.4)]

    def test_shuffled_input_canonicalizes(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("q1 Q0 dA 1 0.9 x\nq1 Q0 dB 2 0.4 x\n")
        b.write_text("q1 Q0 dB 2 0.4 x\nq1 Q0 dA 1 0.9 x\n")
        assert load_run(a) == load_run(b)

    def test_non_monotone_ranks_warn_and_resort(self, tmp_path, caplog):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 dA 1 0.4 x\nq1 Q0 dB 2 0.9 x\n")
        with caplog.at_level("WARNING"):
            run = load_run(path)
        assert "re-sorting" in caplog.text
        assert run["q1"].entries[0].doc_id == "dB"

    def test_hundred_line_run_has_n_100(self, tmp_path):
        path = tmp_path / "run.txt"
        lines = [f"q1 Q0 d{i:03d} {i + 1} {1.0 - i / 200:.4f} t\n" for i in range(100)]
        path.write_text("".join(lines))
        run = load_run(path)
        assert len(run["q1"]) == 100

    def test_round_trip_is_canonical(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("q2 Q0 dB 2 0.4 x\nq1 Q0 dA 1 0.9 x\nq2 Q0 dC 1 0.8 x\n")
        run = load_run(src)
        out = tmp_path / "out.txt"
        write_run(run, out)
        assert load_run(out) == run
        out2 = tmp_path / "out2.txt"
        write_run(load_run(out), out2)
        assert out.read_text() == out2.read_text()

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_names_the_line(self, tmp_path, score):
        path = tmp_path / "run.txt"
        path.write_text(f"q1 Q0 d2 1 0.5 x\nq1 Q0 d1 2 {score} x\nq1 Q0 d3 3 0.9 x\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: score '{score}' is not finite")):
            load_run(path)

    def test_repeated_document_names_the_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 0.9 x\nq2 Q0 d1 1 0.8 x\nq1 Q0 d1 2 0.5 x\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: duplicate document 'd1' for query 'q1' (first on line 1)")):
            load_run(path)


class TestRankedListInvariants:
    def test_duplicate_doc_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RankedList("q", (RankEntry("d", 0.9), RankEntry("d", 0.5)))

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError, match="non-increasing"):
            RankedList("q", (RankEntry("a", 0.5), RankEntry("b", 0.9)))

    def test_make_ranked_ties_break_by_doc_id(self):
        ranked = make_ranked("q", [("dB", 0.5), ("dA", 0.5), ("dC", 0.9)])
        assert ranked.doc_ids == ("dC", "dA", "dB")

    def test_rank_lookup(self):
        ranked = make_ranked("q", [("dA", 0.9), ("dB", 0.4)])
        assert ranked.rank_of("dB") == 2
        assert ranked.entry_at(1).doc_id == "dA"
        assert [e.doc_id for e in ranked.tail(1)] == ["dB"]
        with pytest.raises(KeyError):
            ranked.rank_of("nope")


class TestQueriesAndQrels:
    def test_load_queries(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tCheap Flights\nq2\tbest hotels\n")
        queries = load_queries(path)
        assert queries["q1"].tokens == ("cheap", "flights")

    def test_load_qrels(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 dA 1\nq1 0 dB 0\nq2 0 dC 2\n")
        qrels = load_qrels(path)
        assert qrels["q1"] == frozenset({"dA"})
        assert qrels["q2"] == frozenset({"dC"})


def test_document_requires_tokens():
    with pytest.raises(ValueError):
        Document("d", ())
