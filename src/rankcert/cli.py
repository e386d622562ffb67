"""Command-line pipeline: build-lexicon, train, smooth-rank, certify, attack,
evaluate.

Every subcommand is deterministic given its seed and inputs, and echoes every
option into a ``<out>.meta.json`` sidecar for provenance. Exit codes: 0
success, 1 runtime failure, 2 usage error.
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
from .smoothing import SmoothedModel, hoeffding_radius, smooth_rank

logger = logging.getLogger(__name__)


def _write_meta(**extra: object) -> None:
    """Write ``<out>.meta.json`` for the running subcommand: every
    ``<name>_path`` option under ``paths`` as ``<name>`` ("" when not given),
    every other option under ``params``, and any ``extra`` keys."""
    ctx = click.get_current_context()
    paths = {name.removesuffix("_path"): value or ""
             for name, value in ctx.params.items() if name.endswith("_path")}
    params = {name: value for name, value in ctx.params.items() if not name.endswith("_path")}
    payload = {"subcommand": ctx.command.name, "paths": paths, "params": params, **extra}
    out = Path(paths["out"])
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


def _candidates(ranked: RankedList, corpus: Mapping[str, Document]) -> list[Document]:
    return [corpus[e.doc_id] for e in ranked.entries]


def _queries_to_score(
    run: Mapping[str, RankedList],
    queries: Mapping[str, Query],
    corpus: Mapping[str, Document],
    k: int | None = None,
) -> tuple[list[str], dict[str, str]]:
    """The sorted ids of the queries a scoring command scores, and those it
    skips with the reason, decided before any scoring: no query text, (when
    ``k`` is given) a list too short to have a rank K+1, or documents missing
    from the corpus, checked in that order. Fails the command, naming every
    reason, when no query is left."""
    skipped = {}
    for qid, ranked in run.items():
        missing = [e.doc_id for e in ranked.entries if e.doc_id not in corpus]
        if qid not in queries:
            skipped[qid] = "query text missing"
        elif k is not None and k >= len(ranked):
            skipped[qid] = f"K = {k} >= list length {len(ranked)}"
        elif missing:
            skipped[qid] = f"documents missing from corpus: {missing}"
    reasons = [f"{qid}: {reason}" for qid, reason in sorted(skipped.items())]
    qids = sorted(qid for qid in run if qid not in skipped)
    if not qids:
        raise click.ClickException(f"no query left to score ({'; '.join(reasons) or 'empty run'})")
    for reason in reasons:
        click.echo(f"skipped {reason}", err=True)
    return qids, skipped


def _read_jsonl(path: str, from_json_dict: Callable) -> list:
    with open(path, encoding="utf-8") as fh:
        return [from_json_dict(json.loads(line)) for line in fh if line.strip()]


def _write_jsonl(path: str, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")


def _map_queries(work: Callable, qids: list[str], jobs: int) -> dict:
    """``work(qid)`` for every query id on ``jobs`` threads, keyed by query id
    in the order of ``qids``."""
    with ThreadPoolExecutor(max_workers=jobs) as pool:
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


def _input(name: str, required: bool = True, **kwargs):
    """``--<name>``: an existing file, passed on as ``<name>_path``."""
    return click.option(f"--{name}", f"{name.replace('-', '_')}_path", required=required,
                        type=click.Path(exists=True, dir_okay=False), **kwargs)


def _options(*options):
    """One decorator applying ``options`` in the order given."""
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


_out = click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
_seed = click.option("--seed", default=0, show_default=True, type=int)


@click.group(cls=_Main)
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool) -> None:
    """Certify and attack the top-K robustness of text ranking models."""
    logging.basicConfig(level=logging.DEBUG if verbose else logging.INFO, format="%(levelname)s %(name)s: %(message)s")


@main.command("build-lexicon")
@_input("embeddings")
@click.option("--tau", default=0.8, show_default=True, help="Cosine threshold for synonymy.",
              type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True))
@click.option("--j", default=4, show_default=True, type=click.IntRange(min=1), help="Perturbation set size.")
@_out
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
    _write_meta(vocab=len(lexicon.vocab))
    click.echo(f"lexicon with {len(lexicon.vocab)} words written to {out_path}")


@main.command("train")
@_options(_input("corpus"), _input("queries"), _input("triples"), _input("embeddings"), _input("lexicon"))
@_input("init-model", required=False, help="Parameters to start from (default: zeros).")
@click.option("--epochs", default=20, show_default=True, type=click.IntRange(min=1))
@click.option("--lr", default=0.5, show_default=True, type=click.FloatRange(min=0.0))
@_seed
@click.option("--noise/--no-noise", default=True, show_default=True,
              help="Train on perturbed documents, or on clean ones.")
@click.option("--static-noise", is_flag=True, help="Freeze one perturbed copy per document instead of resampling.")
@_out
@click.option("--loss-trace", "loss_trace_path", type=click.Path(dir_okay=False), help="Optional CSV of per-epoch loss.")
def cmd_train(
    corpus_path: str, queries_path: str, triples_path: str, embeddings_path: str,
    lexicon_path: str, init_model_path: str | None, epochs: int, lr: float, seed: int,
    noise: bool, static_noise: bool, out_path: str, loss_trace_path: str | None,
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
        epochs=epochs, learning_rate=lr, seed=seed, noise_enabled=noise, static_noise=static_noise)
    result = train_mod.train(model, triples, corpus, queries, lexicon, cfg)
    result.model.save(out_path)
    if loss_trace_path:
        train_mod.write_loss_trace(result.losses, loss_trace_path)
    _write_meta(final_loss=result.losses[-1])
    click.echo(f"trained model written to {out_path} (final loss {result.losses[-1]:.4f})")


_scoring_options = _options(
    _input("corpus"), _input("queries"), _input("run"), _input("lexicon"), _input("model"),
    _input("embeddings", required=False, help="Required for linear scorer models."),
    click.option("--n-samples", default=1000, show_default=True, type=click.IntRange(min=1)),
    click.option("--alpha", default=0.05, show_default=True,
                 type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True)),
    _seed,
    click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1)),
    _out,
)
_certificate_options = _options(
    click.option("--k", default=10, show_default=True, type=click.IntRange(min=1)),
    click.option("--delta", default=1.0, show_default=True, type=click.FloatRange(0.0, 1.0, min_open=True)),
)


def _load_scoring_inputs(corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path):
    corpus = corpus_mod.load_corpus(corpus_path)
    queries = corpus_mod.load_queries(queries_path)
    run = corpus_mod.load_run(run_path)
    lexicon = Lexicon.load(lexicon_path)
    emb = EmbeddingTable.load(embeddings_path) if embeddings_path else None
    model = _load_model(Path(model_path), corpus, emb, queries, run)
    return corpus, queries, run, lexicon, model


@main.command("smooth-rank")
@_scoring_options
def cmd_smooth_rank(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path,
    n_samples, alpha, seed, jobs, out_path,
) -> None:
    """Re-rank every query's candidates by Monte Carlo smoothed score."""
    corpus, queries, run, lexicon, model = _load_scoring_inputs(
        corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path)
    qids, skipped = _queries_to_score(run, queries, corpus)

    def work(qid: str) -> RankedList:
        return smooth_rank(model, queries[qid], _candidates(run[qid], corpus),
                           lexicon, n=n_samples, alpha=alpha, root_seed=seed)

    results = _map_queries(work, qids, jobs)
    corpus_mod.write_run(results, out_path, tag="smoothed")
    _write_meta(skipped=skipped)
    click.echo(f"smoothed run for {len(results)} queries written to {out_path}")


@main.command("certify")
@_scoring_options
@_certificate_options
def cmd_certify(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path,
    n_samples, alpha, seed, jobs, out_path, k, delta,
) -> None:
    """Certify top-K robustness per query; writes report JSONL, prints CRQ."""
    corpus, queries, run, lexicon, model = _load_scoring_inputs(
        corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path)
    qids, skipped = _queries_to_score(run, queries, corpus, k)

    def work(qid: str) -> certify_mod.CertificateReport:
        smoothed = smooth_rank(model, queries[qid], _candidates(run[qid], corpus), lexicon,
                               n=n_samples, alpha=alpha, root_seed=seed)
        return certify_mod.certify_topk(
            model, queries[qid], smoothed, corpus, k, delta, lexicon,
            n=n_samples, alpha=alpha, root_seed=seed)

    reports = list(_map_queries(work, qids, jobs).values())
    _write_jsonl(out_path, reports)
    _write_meta(skipped=skipped)
    value = metrics_mod.crq(reports)
    click.echo(f"radius per estimate: {hoeffding_radius(n_samples, alpha):.6f}")
    click.echo(f"CRQ: {value:.2f}% ({sum(1 for r in reports if r.certified)}/{len(reports)} queries)")


@main.command("attack")
@_scoring_options
@_certificate_options
@click.option("--budget", default=3, show_default=True, type=click.IntRange(min=1), help="Greedy substitution budget.")
@click.option("--target", type=click.Choice(["smoothed", "base"]), default="smoothed", show_default=True)
@click.option("--max-attacked", default=None, type=click.IntRange(min=0), help="Attack at most this many tail documents per query.")
def cmd_attack(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path,
    n_samples, alpha, seed, jobs, out_path, k, delta, budget, target, max_attacked,
) -> None:
    """Greedy synonym-substitution attack on documents beyond rank K.

    Each document's budget is capped at the number of words the certificate
    lets an attacker substitute at ``--delta``; a document with none is
    reported unchanged.
    """
    corpus, queries, run, lexicon, model = _load_scoring_inputs(
        corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path)
    qids, skipped = _queries_to_score(run, queries, corpus, k)

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

    results = _map_queries(work, qids, jobs)
    outcomes = [o for per_query in results.values() for o in per_query]
    _write_jsonl(out_path, outcomes)
    _write_meta(skipped=skipped)
    if outcomes:
        click.echo(f"SR: {metrics_mod.sr(outcomes):.2f}% over {len(outcomes)} attacked documents")
    else:
        click.echo("no documents attacked")


@main.command("evaluate")
@_input("reports")
@_input("outcomes")
@_input("run", required=False, help="Run file for MRR.")
@_input("qrels", required=False, help="Qrels for MRR.")
@click.option("--cutoff", "cutoffs", multiple=True, type=click.IntRange(min=1), default=(10, 100), show_default=True)
@_out
def cmd_evaluate(reports_path, outcomes_path, run_path, qrels_path, cutoffs, out_path) -> None:
    """Aggregate CRQ / SR / CondSR (and MRR when run + qrels are given)."""
    reports = _read_jsonl(reports_path, certify_mod.CertificateReport.from_json_dict)
    outcomes = _read_jsonl(outcomes_path, attack_mod.AttackOutcome.from_json_dict)
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
    _write_meta()
    click.echo(metrics_mod.format_summary_table(summary))


if __name__ == "__main__":
    main()
