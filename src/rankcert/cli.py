"""Command-line pipeline: build-lexicon, train, smooth-rank, certify, attack,
evaluate.

Every subcommand is deterministic given its seed and inputs, and echoes its
hyperparameters into a ``<out>.meta.json`` sidecar for provenance. Exit
codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Mapping

import click

from . import attack as attack_mod
from . import certify as certify_mod
from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import training as train_mod
from .corpus import Document, Query, RankedList
from .lexicon import EmbeddingTable, Lexicon
from .rankers import Bm25Model, LinearEmbedScorer, ScoreModel, rank
from .smoothing import BaseScoreError, SmoothedModel, hoeffding_radius, smooth_rank

logger = logging.getLogger(__name__)


_SCORING_INPUTS = ("corpus", "queries", "run", "lexicon", "model")


def _write_meta(
    out_path: str,
    params: Mapping[str, object],
    paths: Mapping[str, str] | None = None,
    **extra: object,
) -> None:
    """Write ``<out>.meta.json`` echoing the running subcommand, its input
    paths (by default the five inputs of a scoring command), ``out``, its
    hyperparameters and any ``extra`` keys, so every artifact records its
    inputs."""
    ctx = click.get_current_context()
    if paths is None:
        paths = {name: ctx.params[f"{name}_path"] for name in _SCORING_INPUTS}
    payload = {
        "subcommand": ctx.command.name,
        "paths": {**paths, "out": out_path},
        "params": dict(params),
        **extra,
    }
    out = Path(out_path)
    with open(out.with_name(out.name + ".meta.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_model(
    model_path: Path,
    corpus: Mapping[str, Document],
    embeddings: EmbeddingTable | None,
    queries: Mapping[str, Query],
    run: Mapping[str, RankedList],
) -> ScoreModel:
    with open(model_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    kind = payload.get("type")
    if kind == "linear":
        if embeddings is None:
            raise click.ClickException("--embeddings is required for a linear scorer model")
        return LinearEmbedScorer.from_json_dict(payload, embeddings)
    if kind == "bm25":
        model = Bm25Model.from_corpus(
            corpus, k1=float(payload.get("k1", 0.9)), b=float(payload.get("b", 0.4)))
        pairs = [
            (queries[qid], corpus[e.doc_id])
            for qid, ranked in sorted(run.items())
            if qid in queries
            for e in ranked.entries
            if e.doc_id in corpus
        ]
        if not pairs:
            raise click.ClickException("cannot calibrate BM25: no (query, document) pairs resolve")
        return model.calibrated(pairs)
    raise click.ClickException(f"unknown model type {kind!r} in {model_path}")


def _candidates(
    ranked: RankedList, corpus: Mapping[str, Document]
) -> list[Document]:
    missing = [e.doc_id for e in ranked.entries if e.doc_id not in corpus]
    if missing:
        raise KeyError(f"documents missing from corpus: {missing}")
    return [corpus[e.doc_id] for e in ranked.entries]


def _skipped_queries(
    run: Mapping[str, RankedList], queries: Mapping[str, Query], k: int | None = None
) -> dict[str, str]:
    """Queries a scoring command passes over, with the reason: no query text,
    or (when ``k`` is given) a list too short to have a rank K+1."""
    skipped = {}
    for qid, ranked in run.items():
        if qid not in queries:
            skipped[qid] = "query text missing"
        elif k is not None and k >= len(ranked):
            skipped[qid] = f"K = {k} >= list length {len(ranked)}"
    return skipped


def _map_queries(work: Callable, qids: list[str], jobs: int) -> dict:
    """``work(qid)`` for every query id on ``jobs`` threads, keyed by query id
    in the order of ``qids``."""
    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        return dict(zip(qids, pool.map(work, qids)))


class _Main(click.Group):
    """Reports any error that is not a Click exception as a runtime failure:
    its message on stderr and exit code 1. The traceback goes to the debug
    log (``--verbose``)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:
            logger.debug("%s failed", ctx.invoked_subcommand, exc_info=True)
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Certify and attack the top-K robustness of text ranking models."""
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO, format="%(levelname)s %(name)s: %(message)s")


@main.command("build-lexicon")
@click.option("--embeddings", "embeddings_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--tau", default=0.8, show_default=True, type=float, help="Cosine threshold for synonymy.")
@click.option("--j", default=4, show_default=True, type=int, help="Perturbation set size.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_build_lexicon(embeddings_path: str, tau: float, j: int, out_path: str) -> None:
    """Build the synonym/perturbation lexicon from an embedding file."""
    emb = EmbeddingTable.load(embeddings_path)
    lexicon = Lexicon.build(emb, tau=tau, j=j)
    problems = lexicon.validate()
    if problems:
        for p in problems:
            click.echo(f"violation: {p}", err=True)
        raise click.ClickException(f"lexicon fails validation with {len(problems)} violation(s)")
    lexicon.save(out_path)
    _write_meta(out_path, {"tau": tau, "j": j}, {"embeddings": embeddings_path},
                vocab=len(lexicon.vocab))
    click.echo(f"lexicon with {len(lexicon.vocab)} words written to {out_path}")


@main.command("train")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--queries", "queries_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--triples", "triples_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--embeddings", "embeddings_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lexicon", "lexicon_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--init-model", "init_model_path", type=click.Path(exists=True, dir_okay=False), help="Parameters to start from (default: zeros).")
@click.option("--epochs", default=20, show_default=True, type=int)
@click.option("--lr", default=0.5, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--no-noise", is_flag=True, help="Train on clean documents instead of perturbed ones.")
@click.option("--static-noise", is_flag=True, help="Freeze one perturbed copy per document instead of resampling.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--loss-trace", "trace_path", type=click.Path(dir_okay=False), help="Optional CSV of per-epoch loss.")
def cmd_train(
    corpus_path: str, queries_path: str, triples_path: str, embeddings_path: str,
    lexicon_path: str, init_model_path: str | None, epochs: int, lr: float, seed: int,
    no_noise: bool, static_noise: bool, out_path: str, trace_path: str | None,
) -> None:
    """Train the linear embedding scorer with noise data augmentation."""
    corpus = corpus_mod.load_corpus(corpus_path)
    queries = corpus_mod.load_queries(queries_path)
    triples = train_mod.load_triples(triples_path)
    emb = EmbeddingTable.load(embeddings_path)
    lexicon = Lexicon.load(lexicon_path)
    if init_model_path:
        with open(init_model_path, encoding="utf-8") as fh:
            model = LinearEmbedScorer.from_json_dict(json.load(fh), emb)
    else:
        model = LinearEmbedScorer.initial(emb)
    cfg = train_mod.TrainConfig(
        epochs=epochs, learning_rate=lr, seed=seed,
        noise_enabled=not no_noise, static_noise=static_noise,
    )
    result = train_mod.train(model, triples, corpus, queries, lexicon, cfg)
    result.model.save(out_path)
    if trace_path:
        train_mod.write_loss_trace(result.losses, trace_path)
    _write_meta(
        out_path,
        {"epochs": epochs, "lr": lr, "seed": seed, "noise": not no_noise,
         "static_noise": static_noise},
        {"corpus": corpus_path, "queries": queries_path, "triples": triples_path,
         "embeddings": embeddings_path, "lexicon": lexicon_path,
         "init_model": init_model_path or ""},
        final_loss=result.losses[-1],
    )
    click.echo(f"trained model written to {out_path} (final loss {result.losses[-1]:.4f})")


_shared_scoring_options = [
    click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--queries", "queries_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--run", "run_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--lexicon", "lexicon_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--model", "model_path", required=True, type=click.Path(exists=True, dir_okay=False)),
    click.option("--embeddings", "embeddings_path", type=click.Path(exists=True, dir_okay=False), help="Required for linear scorer models."),
    click.option("--n-samples", default=1000, show_default=True, type=int),
    click.option("--alpha", default=0.05, show_default=True, type=float),
    click.option("--seed", default=0, show_default=True, type=int),
]


def _with_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


def _load_scoring_inputs(corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path):
    corpus = corpus_mod.load_corpus(corpus_path)
    queries = corpus_mod.load_queries(queries_path)
    run = corpus_mod.load_run(run_path)
    lexicon = Lexicon.load(lexicon_path)
    emb = EmbeddingTable.load(embeddings_path) if embeddings_path else None
    model = _load_model(Path(model_path), corpus, emb, queries, run)
    return corpus, queries, run, lexicon, model


@main.command("smooth-rank")
@_with_options(_shared_scoring_options)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--jobs", default=1, show_default=True, type=int)
def cmd_smooth_rank(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path,
    n_samples, alpha, seed, out_path, jobs,
) -> None:
    """Re-rank every query's candidates by Monte Carlo smoothed score."""
    corpus, queries, run, lexicon, model = _load_scoring_inputs(
        corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path)
    skipped = _skipped_queries(run, queries)

    def work(qid: str) -> RankedList:
        return smooth_rank(model, queries[qid], _candidates(run[qid], corpus),
                           lexicon, n=n_samples, alpha=alpha, root_seed=seed)

    results = _map_queries(work, sorted(q for q in run if q not in skipped), jobs)
    corpus_mod.write_run(results, out_path, tag="smoothed")
    _write_meta(out_path, {"n_samples": n_samples, "alpha": alpha, "seed": seed, "jobs": jobs},
                skipped=skipped)
    click.echo(f"smoothed run for {len(results)} queries written to {out_path}")


@main.command("certify")
@_with_options(_shared_scoring_options)
@click.option("--k", default=10, show_default=True, type=int)
@click.option("--delta", default=1.0, show_default=True, type=float)
@click.option("--jobs", default=1, show_default=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_certify(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path,
    n_samples, alpha, seed, k, delta, jobs, out_path,
) -> None:
    """Certify top-K robustness per query; writes report JSONL, prints CRQ."""
    corpus, queries, run, lexicon, model = _load_scoring_inputs(
        corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path)
    skipped = _skipped_queries(run, queries, k)

    def work(qid: str) -> certify_mod.CertificateReport | None:
        try:
            smoothed = smooth_rank(model, queries[qid], _candidates(run[qid], corpus), lexicon,
                                   n=n_samples, alpha=alpha, root_seed=seed)
            return certify_mod.certify_topk(
                model, queries[qid], smoothed, corpus, k, delta, lexicon,
                n=n_samples, alpha=alpha, root_seed=seed)
        except BaseScoreError:  # the model is at fault, not this query: stop the command
            raise
        except (KeyError, ValueError) as exc:  # bad input for this query: record, keep going
            skipped[qid] = str(exc)
            return None

    results = _map_queries(work, sorted(q for q in run if q not in skipped), jobs)
    reports = [r for r in results.values() if r is not None]
    if not reports and skipped:
        raise click.ClickException(
            "no query could be certified: " + "; ".join(f"{q}: {r}" for q, r in sorted(skipped.items())))
    with open(out_path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    _write_meta(out_path, {"k": k, "delta": delta, "n_samples": n_samples, "alpha": alpha,
                           "seed": seed, "jobs": jobs}, skipped=skipped)
    for qid, reason in sorted(skipped.items()):
        click.echo(f"skipped {qid}: {reason}", err=True)
    value = metrics_mod.crq(reports)
    click.echo(f"radius per estimate: {hoeffding_radius(n_samples, alpha):.6f}")
    click.echo(f"CRQ: {value:.2f}% ({sum(1 for r in reports if r.certified)}/{len(reports)} queries)")


@main.command("attack")
@_with_options(_shared_scoring_options)
@click.option("--k", default=10, show_default=True, type=int)
@click.option("--delta", default=1.0, show_default=True, type=float)
@click.option("--budget", default=3, show_default=True, type=int, help="Greedy substitution budget.")
@click.option("--target", type=click.Choice(["smoothed", "base"]), default="smoothed", show_default=True)
@click.option("--max-attacked", default=None, type=int, help="Attack at most this many tail documents per query.")
@click.option("--jobs", default=1, show_default=True, type=int)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_attack(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path,
    n_samples, alpha, seed, k, delta, budget, target, max_attacked, jobs, out_path,
) -> None:
    """Greedy synonym-substitution attack on documents beyond rank K.

    Each document's budget is capped at the number of words the certificate
    lets an attacker substitute at ``--delta``; a document with none is
    reported unchanged.
    """
    if budget < 1:
        raise click.BadParameter("budget must be >= 1", param_hint="--budget")
    corpus, queries, run, lexicon, model = _load_scoring_inputs(
        corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path)
    skipped = _skipped_queries(run, queries, k)

    def attack_doc(
        scorer: ScoreModel, query: Query, doc: Document, ranked: RankedList
    ) -> attack_mod.AttackOutcome:
        cap = min(budget, certify_mod.attackable_count(doc, lexicon, delta))
        if cap == 0:
            rank_now = ranked.rank_of(doc.id)
            return attack_mod.AttackOutcome(
                query.id, doc.id, rank_now, rank_now, doc, scorer.score(query, doc), False, ())
        return attack_mod.greedy_attack(scorer, query, doc, ranked, cap, lexicon)

    def work(qid: str) -> list[attack_mod.AttackOutcome]:
        query = queries[qid]
        scorer = (SmoothedModel(model, lexicon, n=n_samples, alpha=alpha, root_seed=seed)
                  if target == "smoothed" else model)
        ranked = rank(scorer, query, _candidates(run[qid], corpus))
        return [attack_doc(scorer, query, corpus[e.doc_id], ranked)
                for e in ranked.tail(k)[:max_attacked]]

    results = _map_queries(work, sorted(q for q in run if q not in skipped), jobs)
    outcomes = [o for per_query in results.values() for o in per_query]
    with open(out_path, "w", encoding="utf-8") as fh:
        for o in outcomes:
            fh.write(json.dumps(o.to_json_dict(), sort_keys=True) + "\n")
    _write_meta(out_path, {"k": k, "delta": delta, "budget": budget, "target": target,
                           "max_attacked": max_attacked, "n_samples": n_samples,
                           "alpha": alpha, "seed": seed, "jobs": jobs}, skipped=skipped)
    if outcomes:
        click.echo(f"SR: {metrics_mod.sr(outcomes):.2f}% over {len(outcomes)} attacked documents")
    else:
        click.echo("no documents attacked")


@main.command("evaluate")
@click.option("--reports", "reports_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--outcomes", "outcomes_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--run", "run_path", type=click.Path(exists=True, dir_okay=False), help="Run file for MRR.")
@click.option("--qrels", "qrels_path", type=click.Path(exists=True, dir_okay=False), help="Qrels for MRR.")
@click.option("--cutoff", "cutoffs", multiple=True, type=int, default=(10, 100), show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_evaluate(reports_path, outcomes_path, run_path, qrels_path, cutoffs, out_path) -> None:
    """Aggregate CRQ / SR / CondSR (and MRR when run + qrels are given)."""
    reports = []
    with open(reports_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                reports.append(certify_mod.CertificateReport.from_json_dict(json.loads(line)))
    outcomes = []
    with open(outcomes_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                outcomes.append(attack_mod.AttackOutcome.from_json_dict(json.loads(line)))

    report_qids = {r.query_id for r in reports}
    outcome_qids = {o.query_id for o in outcomes}
    unmatched = sorted(outcome_qids - report_qids)
    if unmatched:
        raise click.ClickException(
            f"attack outcomes reference queries with no certification report: {unmatched}")

    run = corpus_mod.load_run(run_path) if run_path else None
    qrels = corpus_mod.load_qrels(qrels_path) if qrels_path else None
    summary = metrics_mod.summarize(reports, outcomes, run, qrels, cutoffs=cutoffs)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_meta(out_path, {"cutoffs": list(cutoffs)},
                {"reports": reports_path, "outcomes": outcomes_path,
                 "run": run_path or "", "qrels": qrels_path or ""})
    click.echo(metrics_mod.format_summary_table(summary))


if __name__ == "__main__":
    main()
