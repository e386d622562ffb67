"""End-to-end command-line pipeline tests."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import rankcert
from rankcert import (Bm25Model, EmbeddingTable, Lexicon, LinearEmbedScorer, SmoothedModel,
                      certify_topk, greedy_attack, hoeffding_radius, load_corpus, load_queries,
                      load_run, rank, smooth_rank, write_run)
from rankcert.certify import substitution_budget
from rankcert.cli import main
from rankcert.lexicon import LexiconError

from conftest import size_mismatch_lexicon, write_pipeline


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory) -> Path:
    return write_pipeline(tmp_path_factory.mktemp("pipeline"))


def run_cli(*args) -> "Result":
    return CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)


@pytest.fixture(scope="module")
def built_lexicon(pipeline_dir) -> Path:
    out = pipeline_dir / "lexicon.json"
    result = run_cli(
        "build-lexicon", "--embeddings", pipeline_dir / "embeddings.txt",
        "--tau", "0.8", "--j", "4", "--out", out,
    )
    assert result.exit_code == 0, result.output
    return out


def train_args(pipeline_dir, lexicon, out, *extra):
    return [
        "train",
        "--corpus", pipeline_dir / "corpus.jsonl",
        "--queries", pipeline_dir / "queries.tsv",
        "--triples", pipeline_dir / "triples.tsv",
        "--embeddings", pipeline_dir / "embeddings.txt",
        "--lexicon", lexicon,
        *extra,
        "--out", out,
    ]


@pytest.fixture(scope="module")
def trained_model(pipeline_dir, built_lexicon) -> Path:
    out = pipeline_dir / "model.json"
    result = run_cli(*train_args(
        pipeline_dir, built_lexicon, out,
        "--epochs", "40", "--lr", "0.5", "--seed", "0", "--loss-trace", pipeline_dir / "loss.csv",
    ))
    assert result.exit_code == 0, result.output
    return out


def certify_args(pipeline_dir, built_lexicon, trained_model, out, **over):
    args = [
        "certify",
        "--corpus", pipeline_dir / "corpus.jsonl",
        "--queries", pipeline_dir / "queries.tsv",
        "--run", pipeline_dir / "run.txt",
        "--lexicon", built_lexicon,
        "--model", trained_model,
        "--embeddings", pipeline_dir / "embeddings.txt",
        "--k", over.pop("k", 2), "--delta", "1.0",
        "--n-samples", over.pop("n_samples", 300),
        "--alpha", "0.05", "--seed", over.pop("seed", 1),
        "--jobs", over.pop("jobs", 1),
        "--out", out,
    ]
    assert not over
    return args


def scoring_args(command, pipeline_dir, built_lexicon, trained_model, out, *extra,
                 corpus=None, queries=None, run=None):
    """Arguments of a scoring command on the toy pipeline, optionally with
    another corpus, queries or run file."""
    return [
        command,
        "--corpus", corpus or pipeline_dir / "corpus.jsonl",
        "--queries", queries or pipeline_dir / "queries.tsv",
        "--run", run or pipeline_dir / "run.txt",
        "--lexicon", built_lexicon,
        "--model", trained_model,
        "--embeddings", pipeline_dir / "embeddings.txt",
        "--n-samples", "100", "--seed", "1",
        *extra,
        "--out", out,
    ]


@pytest.fixture(scope="module")
def certify_out(pipeline_dir, built_lexicon, trained_model) -> Path:
    out = pipeline_dir / "reports_fixture.jsonl"
    result = run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, out))
    assert result.exit_code == 0, result.output
    return out


def command_args(command, pipeline_dir, built_lexicon, trained_model, reports, outcomes, out,
                 *extra):
    """Arguments of any subcommand on the toy pipeline; ``evaluate`` reads
    ``reports`` and ``outcomes``."""
    if command == "build-lexicon":
        return [command, "--embeddings", pipeline_dir / "embeddings.txt", *extra, "--out", out]
    if command == "train":
        return train_args(pipeline_dir, built_lexicon, out, *extra)
    if command == "evaluate":
        return [command, "--reports", reports, "--outcomes", outcomes, *extra, "--out", out]
    return scoring_args(command, pipeline_dir, built_lexicon, trained_model, out, *extra)


def read_meta(out: Path) -> dict:
    return json.loads(Path(str(out) + ".meta.json").read_text())


def smoothed_run_of(out: Path) -> Path:
    """The smoothed run ``certify --out <out>`` writes beside its reports."""
    return Path(str(out) + ".smoothed.run")


@pytest.fixture(scope="module")
def run_with_textless_query(pipeline_dir) -> Path:
    """The toy run plus a query that has no text in the queries file."""
    path = pipeline_dir / "run_textless.txt"
    extra = "".join(f"qnotext Q0 {d} {i + 1} {1.0 - i / 10:.3f} init\n"
                    for i, d in enumerate(["d1", "d2", "d3"]))
    path.write_text((pipeline_dir / "run.txt").read_text() + extra)
    return path


class TestBuildLexicon:
    def test_produces_valid_lexicon(self, built_lexicon):
        lexicon = Lexicon.load(built_lexicon)
        assert lexicon.validate() == []
        assert set(lexicon.synonym_set("g0")) == {"g0", "g1", "g2", "g3"}
        assert len(lexicon.perturb_set("g0")) == 4
        assert lexicon.overlap_of("g0") == 1.0  # whole cluster is the set
        meta = json.loads(Path(str(built_lexicon) + ".meta.json").read_text())
        assert meta["params"] == {"tau": 0.8, "j": 4}

    def test_missing_embeddings_is_usage_error(self, pipeline_dir):
        result = CliRunner().invoke(
            main, ["build-lexicon", "--out", str(pipeline_dir / "x.json")]
        )
        assert result.exit_code == 2

    def test_j_one_gives_all_overlap_one(self, pipeline_dir):
        out = pipeline_dir / "lexicon_j1.json"
        result = run_cli(
            "build-lexicon", "--embeddings", pipeline_dir / "embeddings.txt",
            "--tau", "0.8", "--j", "1", "--out", out,
        )
        assert result.exit_code == 0
        lexicon = Lexicon.load(out)
        for word in lexicon.vocab:
            assert lexicon.perturb_set(word) == (word,)
            assert lexicon.overlap_of(word) == 1.0


class TestTrain:
    def test_writes_model_and_loss_trace(self, pipeline_dir, trained_model):
        payload = json.loads(trained_model.read_text())
        assert payload["type"] == "linear"
        assert len(payload["weights"]) == 3
        trace = (pipeline_dir / "loss.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 41

    def test_init_model_is_the_starting_point(self, pipeline_dir, built_lexicon, tmp_path):
        init, out = tmp_path / "init.json", tmp_path / "model.json"
        init.write_text(json.dumps({"type": "linear", "weights": [0.5, -1.25, 2.0], "bias": 0.75}))
        result = run_cli(*train_args(pipeline_dir, built_lexicon, out,
                                     "--init-model", init, "--epochs", "2", "--lr", "0"))
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["weights"] == [0.5, -1.25, 2.0] and payload["bias"] == 0.75
        assert read_meta(out)["paths"]["init_model"] == str(init)


class TestSmoothRank:
    """The smoothed run ``certify`` writes to ``<out>.smoothed.run``: the
    library ``smooth_rank`` of every query it scores."""

    def test_writes_smoothed_run(self, pipeline_dir, built_lexicon, trained_model, certify_out,
                                 tmp_path):
        corpus = load_corpus(pipeline_dir / "corpus.jsonl")
        queries = load_queries(pipeline_dir / "queries.tsv")
        run = load_run(pipeline_dir / "run.txt")
        lexicon = Lexicon.load(built_lexicon)
        model = LinearEmbedScorer.from_json_dict(
            json.loads(trained_model.read_text()),
            EmbeddingTable.load(pipeline_dir / "embeddings.txt"))
        reports = {r["query_id"]: r for r in map(json.loads, certify_out.read_text().splitlines())}
        assert set(reports) == {"q1", "q2"}
        expected = {
            qid: smooth_rank(SmoothedModel(model, lexicon, n=300, alpha=0.05, root_seed=1),
                             queries[qid], [corpus[d] for d in run[qid].doc_ids])
            for qid in reports
        }
        write_run(expected, tmp_path / "expected.run", tag="smoothed")
        smoothed_path = smoothed_run_of(certify_out)
        assert smoothed_path.read_bytes() == (tmp_path / "expected.run").read_bytes()

        smoothed = load_run(smoothed_path)
        for qid, report in reports.items():
            k = report["K"]
            assert smoothed[qid].entry_at(k).score == pytest.approx(report["fbarK"], abs=1e-9)
            assert smoothed[qid].entry_at(k + 1).score == pytest.approx(report["fbarK1"], abs=1e-9)

    def test_sidecar_records_skipped_queries(
        self, pipeline_dir, built_lexicon, trained_model, run_with_textless_query, tmp_path
    ):
        out = tmp_path / "reports.jsonl"
        result = run_cli(*scoring_args("certify", pipeline_dir, built_lexicon, trained_model,
                                       out, "--k", "2", run=run_with_textless_query))
        assert result.exit_code == 0, result.output
        assert set(load_run(smoothed_run_of(out))) == {"q1", "q2"}
        assert read_meta(out)["skipped"] == {
            "qnotext": "query text missing", "qshort": "K = 2 >= list length 1"}

    def test_malformed_corpus_line_fails_with_its_location(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path
    ):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d1", "text": "h h"}\n{"id": "d2", "text": \n')
        out = tmp_path / "reports.jsonl"
        result = run_cli(*scoring_args("certify", pipeline_dir, built_lexicon, trained_model,
                                       out, "--k", "2", corpus=corpus))
        assert result.exit_code == 1
        assert f"{corpus}:2: malformed JSON" in result.output
        assert "Traceback" not in result.output
        assert not out.exists() and not smoothed_run_of(out).exists()


class TestCertify:
    def test_reports_radius_and_skips_short_lists(self, pipeline_dir, built_lexicon, trained_model):
        out = pipeline_dir / "reports.jsonl"
        result = run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, out))
        assert result.exit_code == 0, result.output
        assert "CRQ:" in result.output
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert {r["query_id"] for r in reports} == {"q1", "q2"}
        for r in reports:
            assert r["n"] == 300
            assert r["radius"] == pytest.approx(hoeffding_radius(300, 0.05), abs=1e-12)
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert "qshort" in meta["skipped"]
        assert "2" in meta["skipped"]["qshort"] or "length" in meta["skipped"]["qshort"]

    def test_rerun_is_byte_identical(self, pipeline_dir, built_lexicon, trained_model):
        out_a = pipeline_dir / "reports_a.jsonl"
        out_b = pipeline_dir / "reports_b.jsonl"
        run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, out_a))
        run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, out_b))
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_one_and_eight_workers_are_byte_identical(self, pipeline_dir, built_lexicon, trained_model):
        out_1 = pipeline_dir / "reports_j1.jsonl"
        out_8 = pipeline_dir / "reports_j8.jsonl"
        run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, out_1, jobs=1))
        run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, out_8, jobs=8))
        assert out_1.read_bytes() == out_8.read_bytes()

    @pytest.mark.parametrize("command", ["certify", "attack"])
    def test_document_missing_from_corpus_is_skipped(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path, command
    ):
        run = tmp_path / "run.txt"
        run.write_text((pipeline_dir / "run.txt").read_text().replace("q1 Q0 d3 ", "q1 Q0 dgone "))
        out = tmp_path / "out"
        result = run_cli(*scoring_args(command, pipeline_dir, built_lexicon, trained_model,
                                       out, "--k", "2", run=run))
        assert result.exit_code == 0, result.output
        assert {json.loads(line)["query_id"] for line in out.read_text().splitlines()} == {"q2"}
        if command == "certify":
            assert set(load_run(smoothed_run_of(out))) == {"q2"}
        skipped = read_meta(out)["skipped"]
        assert set(skipped) == {"q1", "qshort"}
        assert skipped["q1"] == "documents missing from corpus: ['dgone']"

    @pytest.mark.parametrize("command", ["certify", "attack"])
    def test_no_query_left_fails_naming_the_reasons(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path, command
    ):
        # d1 is in every list; without it no query can be scored.
        run = tmp_path / "run.txt"
        run.write_text((pipeline_dir / "run.txt").read_text().replace(" Q0 d1 ", " Q0 dgone "))
        out = tmp_path / "out"
        result = run_cli(*scoring_args(command, pipeline_dir, built_lexicon, trained_model,
                                       out, "--k", "2", run=run))
        assert result.exit_code == 1
        assert "no query left" in result.output
        assert "q1: documents missing from corpus: ['dgone']" in result.output
        assert "qshort: K = 2 >= list length 1" in result.output
        assert not out.exists() and not smoothed_run_of(out).exists()

    def test_bm25_is_calibrated_on_the_scored_queries_only(
        self, pipeline_dir, built_lexicon, tmp_path
    ):
        # qshort is skipped at K = 2, so dropping it from the run must not
        # move q1's report.
        model = tmp_path / "bm25.json"
        model.write_text(json.dumps({"type": "bm25"}))
        run = tmp_path / "run.txt"
        run.write_text("".join(line for line in (pipeline_dir / "run.txt").read_text()
                               .splitlines(keepends=True) if not line.startswith("qshort")))
        reports = {}
        for name, run_path in [("with", pipeline_dir / "run.txt"), ("without", run)]:
            out = tmp_path / f"reports_{name}.jsonl"
            result = run_cli(*scoring_args("certify", pipeline_dir, built_lexicon, model, out,
                                           "--k", "2", "--n-samples", "50", run=run_path))
            assert result.exit_code == 0, result.output
            reports[name] = {json.loads(line)["query_id"]: line
                             for line in out.read_text().splitlines()}
            assert set(read_meta(out)["skipped"]) == ({"qshort"} if name == "with" else set())
        assert reports["with"]["q1"] == reports["without"]["q1"]

    def test_non_finite_bm25_k1_fails_naming_it(self, pipeline_dir, built_lexicon, tmp_path):
        model = tmp_path / "bm25.json"
        model.write_text(json.dumps({"type": "bm25", "k1": float("nan")}))
        out = tmp_path / "reports.jsonl"
        result = run_cli(*scoring_args("certify", pipeline_dir, built_lexicon, model, out,
                                       "--k", "2"))
        assert result.exit_code == 1
        assert "k1 must be a finite positive number, got nan" in result.output
        assert not out.exists()

    def test_programming_error_fails_the_command(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path, monkeypatch
    ):
        import rankcert.certify

        original = rankcert.certify.certify_topk

        def broken(smoothed, query, *args, **kwargs):
            if query.id == "q2":
                raise TypeError("broken for q2")
            return original(smoothed, query, *args, **kwargs)

        monkeypatch.setattr(rankcert.certify, "certify_topk", broken)
        out = tmp_path / "reports.jsonl"
        result = run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, out))
        assert result.exit_code == 1
        assert "broken for q2" in result.output
        assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def attack_out(pipeline_dir, built_lexicon, trained_model) -> Path:
    out = pipeline_dir / "outcomes.jsonl"
    result = run_cli(
        "attack",
        "--corpus", pipeline_dir / "corpus.jsonl",
        "--queries", pipeline_dir / "queries.tsv",
        "--run", pipeline_dir / "run.txt",
        "--lexicon", built_lexicon,
        "--model", trained_model,
        "--embeddings", pipeline_dir / "embeddings.txt",
        "--k", "2", "--budget", "2", "--n-samples", "100", "--seed", "1",
        "--out", out,
    )
    assert result.exit_code == 0, result.output
    assert "SR:" in result.output
    return out


class TestAttackAndEvaluate:
    def test_outcomes_are_well_formed(self, attack_out):
        from rankcert import AttackOutcome

        outcomes = [
            AttackOutcome.from_json_dict(json.loads(line))
            for line in attack_out.read_text().splitlines()
        ]
        assert outcomes
        for o in outcomes:
            assert o.original_rank > 2  # only tail documents are attacked
            assert o.success == (o.best_rank_after < o.original_rank)

    def test_delta_caps_the_substitution_budget(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path
    ):
        # floor(0.5 * 2) = 1 word of each 2-token document may change, below
        # --budget 2; documents with no perturbable word come back unchanged.
        out = tmp_path / "outcomes.jsonl"
        result = run_cli(*scoring_args("attack", pipeline_dir, built_lexicon, trained_model, out,
                                       "--k", "2", "--delta", "0.5", "--budget", "2"))
        assert result.exit_code == 0, result.output
        outcomes = [json.loads(line) for line in out.read_text().splitlines()]
        assert {o["query_id"] for o in outcomes} == {"q1", "q2"}
        assert len(outcomes) == 6
        assert all(len(o["substitutions"]) <= 1 for o in outcomes)
        for o in outcomes:
            if not o["substitutions"]:
                assert not o["success"] and o["best_rank_after"] == o["original_rank"]

    def test_base_target_attacks_the_base_ranking(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path
    ):
        out = tmp_path / "outcomes.jsonl"
        result = run_cli(*scoring_args("attack", pipeline_dir, built_lexicon, trained_model, out,
                                       "--k", "2", "--delta", "0.5", "--budget", "2",
                                       "--target", "base"))
        assert result.exit_code == 0, result.output
        corpus = load_corpus(pipeline_dir / "corpus.jsonl")
        queries = load_queries(pipeline_dir / "queries.tsv")
        run = load_run(pipeline_dir / "run.txt")
        lexicon = Lexicon.load(built_lexicon)
        model = LinearEmbedScorer.from_json_dict(
            json.loads(trained_model.read_text()),
            EmbeddingTable.load(pipeline_dir / "embeddings.txt"))
        expected = []
        for qid in ("q1", "q2"):
            ranked = rank(model, queries[qid], [corpus[d] for d in run[qid].doc_ids])
            for e in ranked.tail(2):
                doc = corpus[e.doc_id]
                budget = min(2, substitution_budget(0.5, doc.length))
                outcome = greedy_attack(model, queries[qid], doc, ranked, budget, lexicon)
                expected.append(json.dumps(outcome.to_json_dict(), sort_keys=True))
        assert out.read_text().splitlines() == expected
        assert read_meta(out)["params"]["target"] == "base"

    @pytest.mark.parametrize("target", ["smoothed", "base"])
    def test_sidecar_totals_the_greedy_trials(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path, target
    ):
        out = tmp_path / "outcomes.jsonl"
        result = run_cli(*scoring_args("attack", pipeline_dir, built_lexicon, trained_model, out,
                                       "--k", "2", "--budget", "2", "--target", target))
        assert result.exit_code == 0, result.output
        corpus = load_corpus(pipeline_dir / "corpus.jsonl")
        queries = load_queries(pipeline_dir / "queries.tsv")
        run = load_run(pipeline_dir / "run.txt")
        lexicon = Lexicon.load(built_lexicon)
        model = LinearEmbedScorer.from_json_dict(
            json.loads(trained_model.read_text()),
            EmbeddingTable.load(pipeline_dir / "embeddings.txt"))
        scored = pruned = 0
        for qid in ("q1", "q2"):
            scorer = (SmoothedModel(model, lexicon, n=100, alpha=0.05, root_seed=1)
                      if target == "smoothed" else model)
            ranked = rank(scorer, queries[qid], [corpus[d] for d in run[qid].doc_ids])
            for e in ranked.tail(2):
                doc = corpus[e.doc_id]
                budget = min(2, substitution_budget(1.0, doc.length))
                outcome = greedy_attack(scorer, queries[qid], doc, ranked, budget, lexicon)
                scored, pruned = scored + outcome.trials_scored, pruned + outcome.trials_pruned
        meta = read_meta(out)
        assert (meta["trials_scored"], meta["trials_pruned"]) == (scored, pruned)
        # Each synonym set of the toy lexicon is one perturbation set, so the
        # smoothed target has no move that can change its score.
        assert (scored > 0, pruned > 0) == ((False, True) if target == "smoothed" else (True, False))
        for line in out.read_text().splitlines():
            assert not {"trials_scored", "trials_pruned"} & set(json.loads(line))

    def test_sidecar_records_skipped_queries(
        self, pipeline_dir, built_lexicon, trained_model, run_with_textless_query, tmp_path
    ):
        out = tmp_path / "outcomes.jsonl"
        result = run_cli(*scoring_args("attack", pipeline_dir, built_lexicon, trained_model, out,
                                       "--k", "2", run=run_with_textless_query))
        assert result.exit_code == 0, result.output
        assert {json.loads(line)["query_id"] for line in out.read_text().splitlines()} == {"q1", "q2"}
        assert read_meta(out)["skipped"] == {
            "qnotext": "query text missing", "qshort": "K = 2 >= list length 1"}

    def test_evaluate_produces_summary(self, pipeline_dir, built_lexicon, trained_model, attack_out):
        reports = pipeline_dir / "reports.jsonl"
        if not reports.exists():
            run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, reports))
        out = pipeline_dir / "summary.json"
        result = run_cli(
            "evaluate",
            "--reports", reports,
            "--outcomes", attack_out,
            "--run", pipeline_dir / "run.txt",
            "--qrels", pipeline_dir / "qrels.txt",
            "--cutoff", "10",
            "--out", out,
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(out.read_text())
        assert set(summary) >= {"crq", "sr", "cond_sr", "mrr_at"}
        assert "CRQ" in result.output

    def test_all_failure_outcomes_give_zero_sr(self, pipeline_dir, tmp_path):
        from rankcert import AttackOutcome, Document

        reports = pipeline_dir / "reports.jsonl"
        outcomes_path = tmp_path / "no_success.jsonl"
        lines = []
        for i, qid in enumerate(["q1", "q2"]):
            o = AttackOutcome(
                query_id=qid, doc_id=f"d{i}", original_rank=4, best_rank_after=4,
                best_doc=Document(f"d{i}", ("stub",)), best_score=0.1,
                success=False, substitutions=(),
            )
            lines.append(json.dumps(o.to_json_dict()))
        outcomes_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "summary.json"
        result = run_cli(
            "evaluate", "--reports", reports, "--outcomes", outcomes_path, "--out", out,
        )
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["sr"] == 0.0

    def test_no_certified_queries_reports_undefined_cond_sr(self, tmp_path, pipeline_dir, attack_out):
        from rankcert import CertificateReport

        reports_path = tmp_path / "uncertified.jsonl"
        lines = []
        for qid in ("q1", "q2"):
            report = CertificateReport(
                query_id=qid, k=2, delta=1.0, n=300, alpha=0.05,
                fbar_k=0.5, fbar_k1=0.5, radius=0.078, max_od=0.0,
                delta_lq=-0.156, certified=False, per_doc_od=(("d3", 0.0),),
            )
            lines.append(json.dumps(report.to_json_dict()))
        reports_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "summary.json"
        result = run_cli(
            "evaluate", "--reports", reports_path, "--outcomes", attack_out, "--out", out,
        )
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["cond_sr"] == "undefined"
        assert "undefined" in result.output

    def test_mismatched_query_sets_error_lists_differences(self, tmp_path, pipeline_dir, attack_out):
        from rankcert import CertificateReport

        reports_path = tmp_path / "only_q1.jsonl"
        report = CertificateReport(
            query_id="q1", k=2, delta=1.0, n=300, alpha=0.05,
            fbar_k=0.9, fbar_k1=0.5, radius=0.078, max_od=0.0,
            delta_lq=0.24, certified=True, per_doc_od=(("d3", 0.0),),
        )
        reports_path.write_text(json.dumps(report.to_json_dict()) + "\n")
        result = CliRunner().invoke(
            main,
            ["evaluate", "--reports", str(reports_path), "--outcomes", str(attack_out),
             "--out", str(tmp_path / "s.json")],
        )
        assert result.exit_code == 1
        assert "q2" in result.output


class TestJobsByteIdentity:
    """Query-side caches and the embedding rows are shared by worker threads;
    the outputs must not depend on how many there are. The threads switch
    as often as the interpreter lets them, so that a race on shared mutable
    state shows."""

    @pytest.fixture(autouse=True)
    def _switch_often(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    @pytest.mark.parametrize(
        "command, extra, written",
        [
            ("certify", ("--k", "2"), smoothed_run_of),
            ("attack", ("--target", "smoothed", "--k", "2", "--budget", "2"), Path),
        ],
        ids=["smoothed-run", "attack-smoothed"],
    )
    def test_one_and_four_workers_are_byte_identical(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path, command, extra, written
    ):
        outs = []
        for jobs in (1, 4):
            out = tmp_path / f"{command}-j{jobs}.out"
            result = run_cli(*scoring_args(command, pipeline_dir, built_lexicon, trained_model,
                                           out, *extra, "--jobs", jobs))
            assert result.exit_code == 0, result.output
            outs.append(written(out).read_bytes())
        assert outs[0] and outs[0] == outs[1]

    def test_a_smoothed_attack_with_moves_is_byte_identical(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path
    ):
        # The toy lexicon's one cluster is one perturbation set, which leaves
        # the smoothed attack no move; split it in two so greedy steps run.
        payload = json.loads(built_lexicon.read_text())
        payload["perturb"] |= {"g0": ["g0", "g1"], "g1": ["g1", "g0"],
                               "g2": ["g2", "g3"], "g3": ["g3", "g2"]}
        split = tmp_path / "split-lexicon.json"
        split.write_text(json.dumps(payload))
        outs = []
        for jobs in (1, 4):
            out = tmp_path / f"attack-j{jobs}.out"
            result = run_cli(*scoring_args("attack", pipeline_dir, split, trained_model, out,
                                           "--k", "2", "--budget", "2", "--jobs", jobs))
            assert result.exit_code == 0, result.output
            assert read_meta(out)["trials_scored"] > 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestHashSeedIndependence:
    def test_outputs_do_not_depend_on_the_hash_seed(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path
    ):
        # Shared word strings and the memo dicts iterate in hash order;
        # reports, smoothed runs and outcomes must not.
        bm25 = tmp_path / "bm25.json"
        bm25.write_text(json.dumps({"type": "bm25"}))
        src = str(Path(rankcert.__file__).parents[1])
        written = {}
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            out = tmp_path / f"hash{hash_seed}"
            out.mkdir()
            for name, command, model in [("linear", "certify", trained_model),
                                         ("bm25", "certify", bm25),
                                         ("outcomes", "attack", trained_model)]:
                args = scoring_args(command, pipeline_dir, built_lexicon, model,
                                    out / f"{name}.out", "--k", "2")
                subprocess.run([sys.executable, "-m", "rankcert.cli", *map(str, args)],
                               env=env, check=True, capture_output=True, timeout=120)
            written[hash_seed] = {p.name: p.read_bytes() for p in out.iterdir()
                                  if not p.name.endswith(".meta.json")}
        assert sorted(written["1"]) == ["bm25.out", "bm25.out.smoothed.run", "linear.out",
                                        "linear.out.smoothed.run", "outcomes.out"]
        assert all(written["1"].values()) and written["1"] == written["2"]


class TestOptionRanges:
    @pytest.fixture
    def refuse_loading(self, monkeypatch):
        """Fails any subcommand whose body, where inputs are read, runs."""

        def refuse(*args, **kwargs):
            raise AssertionError("inputs loaded before the options were checked")

        for command in main.commands.values():
            monkeypatch.setattr(command, "callback", refuse)

    @pytest.mark.parametrize("command,option,value", [
        ("certify", "--n-samples", "0"),
        ("certify", "--alpha", "0"),
        ("certify", "--alpha", "1"),
        ("certify", "--delta", "0"),
        ("certify", "--delta", "1.5"),
        ("certify", "--k", "0"),
        ("attack", "--n-samples", "-1"),
        ("attack", "--delta", "0"),
        ("attack", "--k", "0"),
        ("attack", "--budget", "0"),
        ("attack", "--max-attacked", "-1"),
        ("certify", "--jobs", "0"),
        ("attack", "--jobs", "0"),
        ("build-lexicon", "--j", "0"),
        ("build-lexicon", "--tau", "0"),
        ("build-lexicon", "--tau", "1"),
        ("train", "--epochs", "0"),
        ("train", "--lr", "-0.1"),
        ("evaluate", "--cutoff", "0"),
    ])
    def test_out_of_range_is_a_usage_error_before_loading(
        self, pipeline_dir, built_lexicon, trained_model, certify_out, attack_out, tmp_path,
        refuse_loading, command, option, value,
    ):
        out = tmp_path / "out"
        result = run_cli(*command_args(command, pipeline_dir, built_lexicon, trained_model,
                                       certify_out, attack_out, out, option, value))
        assert result.exit_code == 2, result.output
        assert option in result.output
        assert not out.exists()

    @pytest.mark.parametrize("option,name", [("--run", "run.txt"), ("--qrels", "qrels.txt")])
    def test_evaluate_run_without_qrels_is_a_usage_error_before_loading(
        self, pipeline_dir, certify_out, attack_out, tmp_path, monkeypatch, option, name
    ):
        import rankcert.cli

        def refuse(*args, **kwargs):
            raise AssertionError("inputs loaded before the options were checked")

        monkeypatch.setattr(rankcert.cli, "_read_jsonl", refuse)
        out = tmp_path / "out"
        result = run_cli("evaluate", "--reports", certify_out, "--outcomes", attack_out,
                         option, pipeline_dir / name, "--out", out)
        assert result.exit_code == 2, result.output
        assert "--run and --qrels go together" in result.output
        assert not out.exists()

    def test_max_attacked_limits_the_tail(self, pipeline_dir, built_lexicon, trained_model, tmp_path):
        out = tmp_path / "outcomes.jsonl"
        result = run_cli(*scoring_args("attack", pipeline_dir, built_lexicon, trained_model, out,
                                       "--k", "2", "--budget", "1", "--max-attacked", "1"))
        assert result.exit_code == 0, result.output
        outcomes = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(o["query_id"], o["original_rank"]) for o in outcomes] == [("q1", 3), ("q2", 3)]


@pytest.fixture(scope="module")
def wider_corpus(pipeline_dir) -> Path:
    """The toy corpus, whose documents the run names all, plus two longer
    documents that no run names."""
    path = pipeline_dir / "corpus_wider.jsonl"
    extra = [{"id": "d7", "text": "h j0 u j1"}, {"id": "d8", "text": "g3 g1 h"}]
    path.write_text((pipeline_dir / "corpus.jsonl").read_text()
                    + "".join(json.dumps(d) + "\n" for d in extra))
    return path


class TestCandidateOnlyCorpus:
    """``certify`` and ``attack`` hold only the documents the run names,
    yet check every line of the corpus and fit BM25 to all of them."""

    @pytest.mark.parametrize("line,error", [
        ('{"id": "d9", "text": "h u', "malformed JSON"),
        ('{"id": "d9", "text": ["h", "u"]}', "field 'text' must be a JSON string"),
        ('{"id": ["d9"], "text": "h u"}', "field 'id' must be a JSON string or integer"),
        ('{"id": "d7", "text": "u u"}', "duplicate document id 'd7'"),
        ('{"id": "d9", "text": "--"}', "document 'd9' tokenizes to nothing"),
    ], ids=["json", "text-type", "id-type", "duplicate", "no-tokens"])
    @pytest.mark.parametrize("command", ["certify", "attack"])
    def test_a_fault_on_a_line_the_run_does_not_name_fails_the_command(
        self, pipeline_dir, built_lexicon, trained_model, wider_corpus, tmp_path, command, line,
        error,
    ):
        corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out"
        corpus.write_text(wider_corpus.read_text() + line + "\n")
        result = run_cli(*scoring_args(command, pipeline_dir, built_lexicon, trained_model, out,
                                       "--k", "2", corpus=corpus))
        assert result.exit_code == 1
        assert f"{corpus}:9: {error}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "attack"])
    def test_sidecar_counts_the_documents_read_and_held(
        self, pipeline_dir, built_lexicon, trained_model, wider_corpus, tmp_path, command
    ):
        # The run names d1-d6 and dgone, which the corpus does not hold.
        run = tmp_path / "run.txt"
        run.write_text((pipeline_dir / "run.txt").read_text().replace("q1 Q0 d3 ", "q1 Q0 dgone "))
        out = tmp_path / "out"
        result = run_cli(*scoring_args(command, pipeline_dir, built_lexicon, trained_model, out,
                                       "--k", "2", corpus=wider_corpus, run=run))
        assert result.exit_code == 0, result.output
        named = {d for ranked in load_run(run).values() for d in ranked.doc_ids}
        meta = read_meta(out)
        assert (meta["corpus_documents"], meta["corpus_kept"]) == (
            8, len(named & set(load_corpus(wider_corpus))))
        assert meta["corpus_kept"] == 6
        for line in out.read_text().splitlines():
            assert not {"corpus_documents", "corpus_kept"} & set(json.loads(line))

    def test_bm25_counts_the_documents_it_does_not_hold(
        self, pipeline_dir, built_lexicon, wider_corpus, tmp_path
    ):
        model = tmp_path / "bm25.json"
        model.write_text(json.dumps({"type": "bm25"}))
        reports = {}
        for name, corpus in [("toy", pipeline_dir / "corpus.jsonl"), ("wider", wider_corpus)]:
            out = tmp_path / f"reports_{name}.jsonl"
            result = run_cli(*scoring_args("certify", pipeline_dir, built_lexicon, model, out,
                                           "--k", "2", corpus=corpus))
            assert result.exit_code == 0, result.output
            reports[name] = out.read_text().splitlines()
        corpus = load_corpus(wider_corpus)
        queries = load_queries(pipeline_dir / "queries.tsv")
        run = load_run(pipeline_dir / "run.txt")
        lexicon = Lexicon.load(built_lexicon)
        base = Bm25Model.from_corpus(dict(corpus)).calibrated(
            (queries[qid], corpus[d]) for qid in ("q1", "q2") for d in run[qid].doc_ids)
        expected = []
        for qid in ("q1", "q2"):
            smoothed = SmoothedModel(base, lexicon, n=100, alpha=0.05, root_seed=1)
            ranked = smooth_rank(smoothed, queries[qid], [corpus[d] for d in run[qid].doc_ids])
            report = certify_topk(smoothed, queries[qid], ranked, corpus, 2, 1.0)
            expected.append(json.dumps(report.to_json_dict(), sort_keys=True))
        assert reports["wider"] == expected
        assert reports["wider"] != reports["toy"]


class TestSidecar:
    @pytest.mark.parametrize("command", sorted(main.commands))
    def test_echoes_every_option_by_name(
        self, pipeline_dir, built_lexicon, trained_model, certify_out, attack_out, tmp_path,
        command,
    ):
        """``<name>_path`` options under ``paths`` as ``<name>``, every other
        option under ``params``."""
        extra = ("--k", "2") if command in ("certify", "attack") else ()
        out = tmp_path / "out"
        result = run_cli(*command_args(command, pipeline_dir, built_lexicon, trained_model,
                                       certify_out, attack_out, out, *extra))
        assert result.exit_code == 0, result.output
        names = [p.name for p in main.commands[command].params]
        meta = read_meta(out)
        assert meta["subcommand"] == command
        assert set(meta["paths"]) == {n.removesuffix("_path") for n in names if n.endswith("_path")}
        assert set(meta["params"]) == {n for n in names if not n.endswith("_path")}
        assert meta["paths"]["out"] == str(out)
        if command in ("certify", "attack"):
            assert meta["paths"]["embeddings"] == str(pipeline_dir / "embeddings.txt")
            assert meta["params"]["jobs"] == 1

    def test_train_records_noise_and_unset_paths(self, pipeline_dir, built_lexicon, tmp_path):
        out = tmp_path / "model.json"
        result = run_cli(*train_args(pipeline_dir, built_lexicon, out, "--epochs", "2", "--no-noise"))
        assert result.exit_code == 0, result.output
        meta = read_meta(out)
        assert meta["params"] == {"epochs": 2, "lr": 0.5, "seed": 0, "noise": False}
        assert meta["paths"]["init_model"] == meta["paths"]["loss_trace"] == ""


class TestOverlapsOnFirstRead:
    def test_only_certify_computes_overlaps(
        self, pipeline_dir, built_lexicon, trained_model, certify_out, tmp_path, monkeypatch
    ):
        original = Lexicon._overlap

        def refuse(self, word):
            raise AssertionError("overlap computed outside a certificate")

        monkeypatch.setattr(Lexicon, "_overlap", refuse)
        lexicon = tmp_path / "lexicon.json"
        result = run_cli("build-lexicon", "--embeddings", pipeline_dir / "embeddings.txt",
                         "--tau", "0.8", "--j", "4", "--out", lexicon)
        assert result.exit_code == 0, result.output
        assert lexicon.read_bytes() == built_lexicon.read_bytes()
        result = run_cli(*scoring_args("attack", pipeline_dir, lexicon, trained_model,
                                       tmp_path / "outcomes.jsonl", "--k", "2"))
        assert result.exit_code == 0, result.output

        calls = []

        def recorded(self, word):
            calls.append((self, word))
            return original(self, word)

        monkeypatch.setattr(Lexicon, "_overlap", recorded)
        out = tmp_path / "reports.jsonl"
        result = run_cli(*certify_args(pipeline_dir, lexicon, trained_model, out))
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == certify_out.read_bytes()
        (read,) = {id(lex): lex for lex, _ in calls}.values()
        corpus = load_corpus(pipeline_dir / "corpus.jsonl")
        tail = {e["doc_id"] for line in out.read_text().splitlines()
                for e in json.loads(line)["per_doc_od"]}
        tail_words = {w for d in tail for w in corpus[d].tokens if read.is_perturbable(w)}
        assert tail_words == {"g0", "g1"}  # g2 and g3 are perturbable too, but in no tail
        assert sorted(word for _, word in calls) == sorted(tail_words)  # each word once
        assert {w: read.overlap_of(w) for w in tail_words} == {w: original(read, w)
                                                               for w in tail_words}
        assert len(calls) == len(tail_words)  # read again from the memo


class TestInvalidLexicon:
    @pytest.mark.parametrize("command", ["certify", "attack", "train"])
    def test_size_mismatch_fails_the_command(
        self, pipeline_dir, trained_model, tmp_path, command
    ):
        lexicon, out = tmp_path / "lexicon.json", tmp_path / "out"
        size_mismatch_lexicon().save(lexicon)
        if command == "train":
            args = train_args(pipeline_dir, lexicon, out)
        else:
            args = scoring_args(command, pipeline_dir, lexicon, trained_model, out, "--k", "2")
        result = run_cli(*args)
        assert result.exit_code == 1
        assert "size-mismatch" in result.output
        assert not out.exists()


class TestBaseScoresOutsideUnitInterval:
    @pytest.fixture
    def broken_scorer(self, monkeypatch):
        """The linear scorer returns 1.5 for query q1 only."""
        original = LinearEmbedScorer.score

        def score(self, query, doc):
            return 1.5 if query.id == "q1" else original(self, query, doc)

        monkeypatch.setattr(LinearEmbedScorer, "score", score)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_certify_fails(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path, broken_scorer, jobs
    ):
        out = tmp_path / "reports.jsonl"
        result = run_cli(*certify_args(pipeline_dir, built_lexicon, trained_model, out, jobs=jobs))
        assert result.exit_code == 1
        assert "outside [0, 1]" in result.output and "'q1'" in result.output

    def test_attack_fails(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path, broken_scorer
    ):
        out = tmp_path / "outcomes.jsonl"
        result = run_cli(*scoring_args("attack", pipeline_dir, built_lexicon,
                                       trained_model, out, "--k", "2"))
        assert result.exit_code == 1
        assert "outside [0, 1]" in result.output and "'q1'" in result.output
        assert not out.exists()


class TestMalformedFiles:
    """A malformed report, outcome or model file fails the command with an
    error that names the file, and the line for JSONL."""

    def test_report_line_missing_a_key(self, tmp_path, certify_out, attack_out):
        reports = tmp_path / "reports.jsonl"
        lines = certify_out.read_text().splitlines()
        broken = json.loads(lines[1])
        del broken["K"]
        reports.write_text(lines[0] + "\n\n" + json.dumps(broken) + "\n")
        result = run_cli("evaluate", "--reports", reports, "--outcomes", attack_out,
                         "--out", tmp_path / "summary.json")
        assert result.exit_code == 1
        assert f"{reports}:3: missing key 'K'" in result.output

    @pytest.mark.parametrize("field,value", [
        ("certified", "false"), ("certified", 0), ("K", 2.7), ("K", True), ("n", "100"),
    ])
    def test_report_field_of_the_wrong_json_type(self, tmp_path, certify_out, attack_out,
                                                  field, value):
        reports = tmp_path / "reports.jsonl"
        lines = certify_out.read_text().splitlines()
        broken = json.loads(lines[1])
        broken[field] = value
        reports.write_text(lines[0] + "\n" + json.dumps(broken) + "\n")
        result = run_cli("evaluate", "--reports", reports, "--outcomes", attack_out,
                         "--out", tmp_path / "summary.json")
        assert result.exit_code == 1
        assert f"{reports}:2: field {field!r} must be a JSON " in result.output
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("field,value", [
        ("success", "false"), ("success", 1), ("original_rank", 3.5), ("best_rank_after", False),
    ])
    def test_outcome_field_of_the_wrong_json_type(self, tmp_path, certify_out, attack_out,
                                                  field, value):
        outcomes = tmp_path / "outcomes.jsonl"
        broken = json.loads(attack_out.read_text().splitlines()[0])
        broken[field] = value
        outcomes.write_text(json.dumps(broken) + "\n")
        result = run_cli("evaluate", "--reports", certify_out, "--outcomes", outcomes,
                         "--out", tmp_path / "summary.json")
        assert result.exit_code == 1
        assert f"{outcomes}:1: field {field!r} must be a JSON " in result.output

    @pytest.mark.parametrize("kind,field,value,message", [
        ("reports", "query_id", None, "field 'query_id' must be a JSON string, got None"),
        ("reports", "delta", True, "field 'delta' must be a JSON number, got True"),
        ("reports", "alpha", "0.05", "field 'alpha' must be a JSON number, got '0.05'"),
        ("reports", "per_doc_od", [{"doc_id": 3, "od": 0.5}],
         "field 'doc_id' must be a JSON string, got 3"),
        ("reports", "per_doc_od", [{"doc_id": "d3", "od": "0.5"}],
         "field 'od' must be a JSON number, got '0.5'"),
        ("reports", "per_doc_od", {"d1": 0.5},
         "field 'per_doc_od' must be a non-empty list of JSON objects, got {'d1': 0.5}"),
        ("reports", "per_doc_od", [],
         "field 'per_doc_od' must be a non-empty list of JSON objects, got []"),
        ("outcomes", "query_id", None, "field 'query_id' must be a JSON string, got None"),
        ("outcomes", "doc_id", True, "field 'doc_id' must be a JSON string, got True"),
        ("outcomes", "best_score", "0.5", "field 'best_score' must be a JSON number, got '0.5'"),
        ("outcomes", "best_tokens", "abc",
         "field 'best_tokens' must be a list of JSON strings, got 'abc'"),
        ("outcomes", "best_tokens", ["a", 1], "field 'best_tokens' must be a list of JSON strings"),
        ("outcomes", "substitutions", [["1", 2.0, None]],
         "field 'substitutions' must be a list of JSON [integer, string, string] entries"),
        ("outcomes", "substitutions", [[0, "a"]],
         "field 'substitutions' must be a list of JSON [integer, string, string] entries"),
        ("outcomes", "substitutions", [[True, "a", "b"]],
         "field 'substitutions' must be a list of JSON [integer, string, string] entries"),
    ], ids=["report-null-id", "report-bool-delta", "report-string-alpha", "report-int-doc-id",
            "report-string-od", "report-object-per-doc", "report-empty-per-doc",
            "outcome-null-id", "outcome-bool-doc-id",
            "outcome-string-score", "outcome-string-tokens", "outcome-int-token",
            "outcome-mistyped-substitution", "outcome-short-substitution",
            "outcome-bool-position"])
    def test_a_value_is_not_coerced(self, tmp_path, certify_out, attack_out, kind, field, value,
                                    message):
        # Each value loaded quietly once, coerced by str(), float(), int()
        # or tuple(): "abc" as the tokens ('a', 'b', 'c'), null as 'None'.
        source = certify_out if kind == "reports" else attack_out
        broken_path = tmp_path / f"{kind}.jsonl"
        lines = source.read_text().splitlines()
        broken = json.loads(lines[-1])
        broken[field] = value
        broken_path.write_text("\n".join([*lines[:-1], json.dumps(broken)]) + "\n")
        files = {"reports": certify_out, "outcomes": attack_out, kind: broken_path}
        result = run_cli("evaluate", "--reports", files["reports"], "--outcomes",
                         files["outcomes"], "--out", tmp_path / "summary.json")
        assert result.exit_code == 1
        assert f"{broken_path}:{len(lines)}: {message}" in result.output
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("kind,repeat,name", [
        ("reports", 1, "query 'q2'"),
        ("reports", 0, "query 'q1'"),
        ("outcomes", 0, "query 'q1', document {doc}"),
        ("outcomes", -1, "query 'q2', document {doc}"),
    ], ids=["report-adjacent", "report-apart", "outcome-apart", "outcome-adjacent"])
    def test_a_repeated_record_fails_naming_both_lines(self, tmp_path, certify_out, attack_out,
                                                       kind, repeat, name):
        # Counted twice, a repeated report moved CRQ and a concatenated
        # outcomes file doubled the attacked documents.
        source = certify_out if kind == "reports" else attack_out
        lines = source.read_text().splitlines()
        path = tmp_path / f"{kind}.jsonl"
        path.write_text("\n".join([*lines, lines[repeat]]) + "\n")
        files = {"reports": certify_out, "outcomes": attack_out, kind: path}
        result = run_cli("evaluate", "--reports", files["reports"], "--outcomes",
                         files["outcomes"], "--out", tmp_path / "summary.json")
        assert result.exit_code == 1
        first = repeat % len(lines) + 1
        doc = repr(json.loads(lines[repeat])["doc_id"]) if kind == "outcomes" else ""
        assert (f"{path}:{len(lines) + 1}: duplicate record for {name.format(doc=doc)} "
                f"(first on line {first})") in result.output
        assert not (tmp_path / "summary.json").exists()

    def test_outcome_line_that_is_not_utf8(self, tmp_path, certify_out, attack_out):
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_bytes(attack_out.read_bytes() + b'{"query_id": "q\xff"}\n')
        bad_line = len(attack_out.read_text().splitlines()) + 1
        result = run_cli("evaluate", "--reports", certify_out, "--outcomes", outcomes,
                         "--out", tmp_path / "summary.json")
        assert result.exit_code == 1
        assert f"{outcomes}:{bad_line}: not UTF-8 text: byte 0xff at column 16" in result.output

    def test_outcome_line_that_is_not_json(self, tmp_path, certify_out, attack_out):
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text(attack_out.read_text() + '{"query_id": "q1",\n')
        bad_line = len(attack_out.read_text().splitlines()) + 1
        result = run_cli("evaluate", "--reports", certify_out, "--outcomes", outcomes,
                         "--out", tmp_path / "summary.json")
        assert result.exit_code == 1
        assert f"{outcomes}:{bad_line}: " in result.output

    @pytest.mark.parametrize("content,message", [
        ("[0.5, 1.0]", "holds a JSON object, not a list"),
        ('{"type": "linear", "bias": 0.5}', "missing key 'weights'"),
        ('{"type": "linear", "weights": [0.5,', "Expecting value"),
        ('{"type": "linear", "weights": ["0.5", 1, true], "bias": 0}',
         "field 'weights' must be a list of JSON numbers, got ['0.5', 1, True]"),
        ('{"type": "linear", "weights": [0.5, 1, 0], "bias": false}',
         "field 'bias' must be a JSON number, got False"),
    ], ids=["list", "no-weights", "truncated", "string-weights", "bool-bias"])
    @pytest.mark.parametrize("command", ["certify", "train"])
    def test_model_file_errors_name_the_file(
        self, pipeline_dir, built_lexicon, tmp_path, command, content, message
    ):
        model, out = tmp_path / "model.json", tmp_path / "out"
        model.write_text(content)
        if command == "train":
            args = train_args(pipeline_dir, built_lexicon, out, "--init-model", model)
        else:
            args = scoring_args(command, pipeline_dir, built_lexicon, model, out, "--k", "2")
        result = run_cli(*args)
        assert result.exit_code == 1
        assert f"{model}: " in result.output and message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--lexicon", "--model"])
    def test_a_lexicon_or_model_file_that_is_not_utf8_names_its_line(
        self, pipeline_dir, built_lexicon, trained_model, tmp_path, option
    ):
        # The message names the line and column of the byte, and never
        # holds the file's contents.
        source = built_lexicon if option == "--lexicon" else trained_model
        lines = source.read_bytes().splitlines(keepends=True)
        bad, out = tmp_path / source.name, tmp_path / "out"
        bad.write_bytes(b"".join(lines[:3]) + b'  "caf\xff' + b"".join(lines[3:]))
        files = {"--lexicon": built_lexicon, "--model": trained_model, option: bad}
        result = run_cli(*scoring_args("certify", pipeline_dir, files["--lexicon"],
                                       files["--model"], out, "--k", "2"))
        assert result.exit_code == 1
        message = f"{bad}:4: not UTF-8 text: byte 0xff at column 7: invalid start byte"
        error = next(line for line in result.output.splitlines() if line.startswith("Error:"))
        assert error == f"Error: {message}" and len(error) < 300
        assert not out.exists()
        if option == "--lexicon":
            with pytest.raises(LexiconError, match=re.escape(message)):
                Lexicon.load(bad)

    @pytest.mark.parametrize("kind, content, message", [
        ("corpus", '{"id": "d1", "text": "h h"}\n{"id": "d2"}\n',
         "{path}:2: expected object with 'id' and 'text'"),
        ("corpus", '{"id": "d1", "text": "h h"}\n{"id": "d1", "text": "u"}\n',
         "{path}:2: duplicate document id 'd1'"),
        ("corpus", '{"id": "d1", "text": "h h"}\n\n{"id": "d2", "text": "?!"}\n',
         "{path}:3: document 'd2' tokenizes to nothing"),
        ("queries", "q1\th h\nq2 g0 u\n", "{path}:2: expected 'qid<TAB>text'"),
        ("queries", "q1\th h\nq1\tu\n", "{path}:2: duplicate query id 'q1'"),
        ("queries", "q1\th h\nq2\t--\n", "{path}:2: query 'q2' tokenizes to nothing"),
        ("run", "q1 Q0 d1 1 0.9 x\nq1 Q0 d2 2 0.5\n", "{path}:2: expected 6 columns, got 5"),
        ("run", "q1 Q0 d1 1 0.9 x\nq1 Q0 d2 two 0.5 x\n", "{path}:2: bad rank/score"),
        ("run", "q1 Q0 d1 1 0.9 x\nq1 Q0 d2 2 high x\n", "{path}:2: bad rank/score"),
        ("qrels", "q1 0 d1 1\nq2 0 d5\n", "{path}:2: expected 4 columns, got 3"),
        ("qrels", "q1 0 d1 1\nq2 0 d5 yes\n", "{path}:2: bad relevance grade"),
        ("qrels", "q1 0 d1 1\nq1 0 d1 0\n",
         "{path}:2: duplicate document 'd1' for query 'q1' (first on line 1)"),
        ("model", '{"type": "neural"}', "unknown model type 'neural' in {path}"),
        ("model-without-embeddings", '{"type": "linear", "weights": [0, 0, 0], "bias": 0}',
         "--embeddings is required for the linear scorer model in {path}"),
        ("model-bm25", '{"type": "bm25", "k1": true}',
         "{path}: field 'k1' must be a JSON number, got True"),
        ("model-bm25", '{"type": "bm25", "b": "0.4"}',
         "{path}: field 'b' must be a JSON number, got '0.4'"),
    ], ids=["corpus-columns", "corpus-duplicate", "corpus-empty-text", "queries-columns",
            "queries-duplicate", "queries-empty-text", "run-columns", "run-rank", "run-score",
            "qrels-columns", "qrels-grade", "qrels-duplicate", "model-type",
            "model-without-embeddings", "model-bm25-bool-k1", "model-bm25-string-b"])
    def test_input_errors_name_the_file_and_line(
        self, pipeline_dir, built_lexicon, trained_model, certify_out, attack_out, tmp_path,
        kind, content, message,
    ):
        path, out = tmp_path / f"{kind}.in", tmp_path / "out"
        path.write_text(content)
        if kind == "qrels":
            args = ["evaluate", "--reports", certify_out, "--outcomes", attack_out,
                    "--run", pipeline_dir / "run.txt", "--qrels", path, "--out", out]
        elif kind.startswith("model"):
            args = scoring_args("certify", pipeline_dir, built_lexicon, path, out, "--k", "2")
            if kind == "model-without-embeddings":
                at = args.index("--embeddings")
                del args[at:at + 2]
        else:
            args = scoring_args("certify", pipeline_dir, built_lexicon, trained_model, out,
                                "--k", "2", **{kind: path})
        result = run_cli(*args)
        assert result.exit_code == 1, result.output
        assert message.format(path=path) in result.output
        assert "Traceback" not in result.output
        assert not out.exists()


def test_readme_names_every_command():
    """The README's command-line block shows one ``rankcert <command>`` line
    per subcommand, and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert set(re.findall(r"^rankcert ([\w-]+)", block, re.MULTILINE)) == set(main.commands)
