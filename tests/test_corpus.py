"""Corpus, query, run, and qrels loading."""

import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcert import (
    Bm25Model,
    Document,
    EmbeddingTable,
    RankedList,
    RankEntry,
    load_corpus,
    load_qrels,
    load_queries,
    load_run,
    load_triples,
    make_ranked,
    tokenize,
    write_run,
)
from rankcert.corpus import _NON_WORD, CorpusStats
from rankcert.lexicon import LexiconError


def _reference_tokens(text: str) -> tuple[str, ...]:
    """The tokenizer's rule as one regular expression, for any text."""
    return tuple(_NON_WORD.sub(" ", text.lower()).split())


# Every ASCII character, and characters whose lowercase, word or whitespace
# class differs between ASCII and Unicode rules: Latin-1 letters and signs,
# dotted capital I (two characters when lowered), capital and final sigma
# (lowered by context), combining marks, and the separators \x1c-\x1f.
_TOKENIZER_ALPHABET = [chr(c) for c in range(128)] + list(
    "\u00a0\u00aa\u00b5\u00b7\u00c0\u00c9\u00d7\u00df\u00e9\u00ff"
    "\u0130\u03a3\u03c2\u03c3\u0301\u0308\u2019\u2028\u3000"
)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Cheap Flights") == ("cheap", "flights")

    def test_strips_punctuation(self):
        assert tokenize("cheap, flights!") == ("cheap", "flights")

    def test_is_pure(self):
        text = "Cheap FLIGHTS to Paris?"
        assert tokenize(text) == tokenize(text) == ("cheap", "flights", "to", "paris")

    def test_an_apostrophe_splits_a_word(self):
        assert tokenize("Don't") == tokenize("don\u2019t") == ("don", "t")

    @pytest.mark.parametrize("context", ["{}", "a{}b", "A{}Z", "{}{}9", " {} ", "_{}_",
                                         "x{}\u00e9", "{}\u03a3"])
    def test_every_ascii_character_follows_the_rule(self, context):
        for code in range(128):
            text = context.format(chr(code), chr(code))
            assert tokenize(text) == _reference_tokens(text), (code, text)

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet=st.sampled_from(_TOKENIZER_ALPHABET), max_size=30))
    def test_equals_the_regular_expression(self, text):
        assert tokenize(text) == _reference_tokens(text)


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

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter has no integer string conversion limit")
    def test_an_integer_too_long_to_convert_names_the_line(self, tmp_path):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for
        # an integer longer than the interpreter's conversion limit.
        digits = sys.get_int_max_str_digits() + 700
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id":"d0","text":"one"}\n{"id":' + "9" * digits + ',"text":"a b"}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: malformed JSON: ")):
            load_corpus(path)

    @pytest.mark.parametrize("line,error", [
        ('{"id":"d1","text":null}', "field 'text' must be a JSON string, got None"),
        ('{"id":null,"text":"cheap fares"}', "field 'id' must be a JSON string or integer"),
        ('{"id":true,"text":["cheap","fares"]}', "field 'id' must be a JSON string or integer"),
        ('{"id":7,"text":3.5}', "field 'text' must be a JSON string, got 3.5"),
        ('{"id":7,"text":"Cheap fares"}', None),
    ], ids=["null-text", "null-id", "bool-id", "float-text", "int-id"])
    def test_fields_of_the_wrong_json_type_name_the_line(self, tmp_path, line, error):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id":"d0","text":"one"}\n' + line + "\n")
        if error is None:
            assert load_corpus(path)["7"].tokens == ("cheap", "fares")
        else:
            with pytest.raises(ValueError, match=re.escape(f"{path}:2: {error}")):
                load_corpus(path)

    def test_equal_words_share_one_object(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps({"id": f"d{i}", "text": text}) + "\n" for i, text in
                                enumerate(["cheap fares", "Cheap flights, cheap!", "fares"])))
        d0, d1, d2 = load_corpus(path).values()
        assert d0.tokens == ("cheap", "fares") and d1.tokens == ("cheap", "flights", "cheap")
        assert d1.tokens[0] is d0.tokens[0] and d1.tokens[2] is d0.tokens[0]
        assert d2.tokens[0] is d0.tokens[1]


def write_corpus(path, n_docs: int, seed: int = 0, mixed: bool = False) -> None:
    """``n_docs`` documents of 100-200 words each, over 3,000 words. With
    ``mixed``, every odd-numbered document is written in capitals with
    punctuation and ends in two non-ASCII words, so that the corpus mixes
    ASCII and non-ASCII lines that share words."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(3000)]
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            text = " ".join(rng.choice(vocab, size=int(rng.integers(100, 201))))
            if mixed and i % 2:
                text = text.upper().replace(" ", ", ") + " Stra\u00dfe \u039f\u0394\u039f\u03a3!"
            fh.write(json.dumps({"id": f"d{i}", "text": text}, ensure_ascii=False) + "\n")


class TestKeep:
    """``load_corpus(path, keep=ids)`` holds the documents named in ``ids``
    and counts the statistics of all of them."""

    def test_kept_documents_and_statistics_match_the_whole_load(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, 60, mixed=True)
        whole = load_corpus(path)
        texts = [json.loads(line)["text"] for line in path.read_text("utf-8").splitlines()]
        assert [d.tokens for d in whole.values()] == list(map(_reference_tokens, texts))
        assert whole["d3"].tokens[-2:] == ("straße", "οδος")
        ids = {"d3", "d17", "d59", "d40", "absent"}
        kept = load_corpus(path, keep=ids)
        assert kept == {i: whole[i] for i in ids if i in whole}
        assert kept.stats == whole.stats == CorpusStats.count(d.tokens for d in whole.values())
        assert kept.stats.n_docs == 60
        assert kept.stats.total_len == sum(d.length for d in whole.values())
        model, full = Bm25Model.from_corpus(kept), Bm25Model.from_corpus(dict(whole))
        assert (model.n_docs, model.avg_len, model.doc_freq) == (
            full.n_docs, full.avg_len, full.doc_freq)

    def test_a_bare_load_keeps_every_document(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "text": "cheap fares"}\n{"id": 2, "text": "fares"}\n')
        docs = load_corpus(path)
        assert docs == {"d1": Document("d1", ("cheap", "fares")), "2": Document("2", ("fares",))}
        assert docs.stats == CorpusStats(n_docs=2, total_len=3,
                                         doc_freq={"cheap": 1, "fares": 2})
        assert load_corpus(path, keep=set()) == {}

    @pytest.mark.parametrize("line,error", [
        ('{"id": "d9", "text": ', "malformed JSON"),
        ('{"id": "d9", "text": 3}', "field 'text' must be a JSON string, got 3"),
        ('{"id": "d0", "text": "again"}', "duplicate document id 'd0'"),
        ('{"id": "d9", "text": "?!"}', "document 'd9' tokenizes to nothing"),
    ], ids=["json", "text-type", "duplicate", "no-tokens"])
    def test_a_document_not_kept_is_still_checked(self, tmp_path, line, error):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d0", "text": "one"}\n{"id": "d1", "text": "two"}\n'
                        + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {error}")):
            load_corpus(path, keep={"d1"})

    def test_peak_memory_follows_the_kept_documents(self, tmp_path):
        # Forty documents of 1,500 hold a small share of the tokens; the
        # vocabulary and the counts are all a candidate-only load keeps of
        # the rest.
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, 1500)
        peaks = {}
        for name, keep in [("whole", None), ("kept", {f"d{i}" for i in range(0, 1480, 37)})]:
            tracemalloc.start()
            try:
                docs = load_corpus(path, keep=keep)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(docs) == (1500 if keep is None else 40)
            del docs
        assert peaks["kept"] < peaks["whole"] / 3, peaks


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

    def test_round_trip_keeps_near_ties_and_values(self, tmp_path):
        # The two scores agree to ten significant digits; the written run
        # must still read back in the order and with the values it had.
        run = {"q1": make_ranked("q1", [("d1", 0.12345678901), ("d2", 0.12345678902),
                                        ("d3", 1e-17), ("d4", 1 / 3)])}
        assert [e.doc_id for e in run["q1"].entries] == ["d4", "d2", "d1", "d3"]
        out = tmp_path / "out.txt"
        write_run(run, out)
        assert load_run(out) == run

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

    @pytest.mark.parametrize("grades", [(1, 0), (0, 1), (1, 1)])
    def test_repeated_qrels_pair_names_both_lines(self, tmp_path, grades):
        # A repeated pair was merged: "relevant" won whichever line came first.
        path = tmp_path / "qrels.txt"
        path.write_text(f"q1 0 d1 {grades[0]}\nq2 0 d1 1\nq1 0 d1 {grades[1]}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: duplicate document 'd1' for query 'q1' (first on line 1)")):
            load_qrels(path)


def test_document_requires_tokens():
    with pytest.raises(ValueError):
        Document("d", ())


_CORPUS_LINES = b"".join(b'{"id": "d%d", "text": "cheap flights"}\n' % i for i in range(300))


@pytest.mark.parametrize("load,head,bad_line,bad,tail,lineno,reason", [
    # The bad byte lies past the first 8 KiB that a text-mode read decodes.
    (load_corpus, _CORPUS_LINES, b'{"id": "x", "text": "caf', b"\xff", b'"}\n', 301,
     "invalid start byte"),
    (load_queries, b"q1\tcheap\r\n", b"q2\tbad", b"\xff", b"\r\n", 2, "invalid start byte"),
    (load_run, b"q1 Q0 d1 1 0.9 x\r", b"q1 Q0 d", b"\xfe", b" 2 0.5 x\r", 2,
     "invalid start byte"),
    (load_qrels, b"\n\n", b"q1 0 d1 ", b"\xff", b"\n", 3, "invalid start byte"),
    (load_triples, b"q1\td1\td2\n", b"q1\td1\td3", b"\xc3", b"\n", 2,
     "invalid continuation byte"),
    (EmbeddingTable.load, b"2 2\ncat 1 0\n", b"dog 0 1", b"\xff", b"\n", 3,
     "invalid start byte"),
], ids=["corpus", "queries-crlf", "run-cr", "qrels", "triples", "embeddings"])
def test_input_that_is_not_utf8_names_the_file_and_line(
    tmp_path, load, head, bad_line, bad, tail, lineno, reason
):
    path = tmp_path / "input.txt"
    path.write_bytes(head + bad_line + bad + tail)
    error = LexiconError if load == EmbeddingTable.load else ValueError
    with pytest.raises(error) as err:
        load(path)
    assert type(err.value) is error
    assert str(err.value) == (f"{path}:{lineno}: not UTF-8 text: byte {bad[0]:#04x} at column "
                              f"{len(bad_line) + 1}: {reason}")
