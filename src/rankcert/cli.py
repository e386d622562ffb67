"""Command-line pipeline: build-lexicon, train, certify, attack, evaluate.

Every subcommand is deterministic given its seed and inputs, and echoes every
option into a ``<out>.meta.json`` sidecar for provenance. ``certify`` also
writes the smoothed ranking it certifies to ``<out>.smoothed.run``. Exit
codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Mapping

import click

from . import attack as attack_mod
from . import certify as certify_mod
from . import corpus as corpus_mod
from . import metrics as metrics_mod
from . import training as train_mod
from .corpus import Corpus, Document, Query, RankedList, json_field, numbered_lines, read_text
from .lexicon import EmbeddingTable, Lexicon
from .rankers import Bm25Model, LinearEmbedScorer, ScoreModel, rank
from .smoothing import SmoothedModel, hoeffding_radius, smooth_rank

logger = logging.getLogger(__name__)


def _beside(out_path: str, suffix: str) -> Path:
    """``<out><suffix>``: a file a subcommand writes next to its ``--out``."""
    out = Path(out_path)
    return out.with_name(out.name + suffix)


def _write_meta(**extra: object) -> None:
    """Write ``<out>.meta.json`` for the running subcommand: every
    ``<name>_path`` option under ``paths`` as ``<name>`` ("" when not given),
    every other option under ``params``, and any ``extra`` keys."""
    ctx = click.get_current_context()
    paths = {name.removesuffix("_path"): value or ""
             for name, value in ctx.params.items() if name.endswith("_path")}
    params = {name: value for name, value in ctx.params.items() if not name.endswith("_path")}
    payload = {"subcommand": ctx.command.name, "paths": paths, "params": params, **extra}
    with open(_beside(paths["out"], ".meta.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _naming(where: object):
    """Re-raise a malformed record's error as a Click error that names
    ``where``, the file (and line) it was read from."""
    try:
        yield
    except KeyError as exc:
        raise click.ClickException(f"{where}: missing key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise click.ClickException(f"{where}: {exc}") from exc


def _read_model_file(path: str | Path) -> dict:
    text = read_text(path)
    with _naming(path):
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"a model file holds a JSON object, not a {type(payload).__name__}")
    return payload


def _linear_from(payload: dict, path: str | Path, embeddings: EmbeddingTable) -> LinearEmbedScorer:
    with _naming(path):
        return LinearEmbedScorer.from_json_dict(payload, embeddings)


def _load_model(
    model_path: Path,
    corpus: Corpus,
    embeddings: EmbeddingTable | None,
    queries: Mapping[str, Query],
    run: Mapping[str, RankedList],
    qids: list[str],
) -> ScoreModel:
    """Load a scorer. BM25 takes its statistics from every document of the
    corpus file (``corpus.stats``), whether held or not, and is calibrated
    on the (query, document) pairs of the scored queries ``qids`` only, so
    a skipped query moves no score."""
    payload = _read_model_file(model_path)
    kind = payload.get("type")
    if kind == "linear":
        if embeddings is None:
            raise click.ClickException(
                f"--embeddings is required for the linear scorer model in {model_path}")
        return _linear_from(payload, model_path, embeddings)
    if kind == "bm25":
        with _naming(model_path):
            fields = {"k1": 0.9, "b": 0.4, **payload}
            k1, b = json_field(fields, "k1", float), json_field(fields, "b", float)
        model = Bm25Model.from_corpus(corpus, k1=k1, b=b)
        return model.calibrated(
            (queries[qid], corpus[e.doc_id]) for qid in qids for e in run[qid].entries)
    raise click.ClickException(f"unknown model type {kind!r} in {model_path}")


def _candidates(ranked: RankedList, corpus: Mapping[str, Document]) -> list[Document]:
    return [corpus[e.doc_id] for e in ranked.entries]


def _queries_to_score(
    run: Mapping[str, RankedList],
    queries: Mapping[str, Query],
    corpus: Mapping[str, Document],
    k: int,
) -> tuple[list[str], dict[str, str]]:
    """The sorted ids of the queries a scoring command scores, and those it
    skips with the reason, decided before any scoring: no query text, a list
    too short to have a rank K+1, or documents missing from the corpus,
    checked in that order. Fails the command, naming every reason, when no
    query is left."""
    skipped = {}
    for qid, ranked in run.items():
        missing = [e.doc_id for e in ranked.entries if e.doc_id not in corpus]
        if qid not in queries:
            skipped[qid] = "query text missing"
        elif k >= len(ranked):
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


def _read_jsonl(path: str, from_json_dict: Callable, name: Callable[..., str]) -> list:
    """The record of every non-blank line of ``path``. Each record has a
    ``name``, such as ``query 'q1'``, that no other record of the file may
    have: a second one fails the command, naming both lines."""
    records, first_line = [], {}
    for lineno, line in numbered_lines(path):
        if line.strip():
            with _naming(f"{path}:{lineno}"):
                record = from_json_dict(json.loads(line))
                key = name(record)
                first = first_line.setdefault(key, lineno)
                if first != lineno:
                    raise ValueError(f"duplicate record for {key} (first on line {first})")
            records.append(record)
    return records


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
    vocab = len(lexicon.perturb)
    _write_meta(vocab=vocab)
    click.echo(f"lexicon with {vocab} words written to {out_path}")


@main.command("train")
@_options(_input("corpus"), _input("queries"), _input("triples"), _input("embeddings"), _input("lexicon"))
@_input("init-model", required=False, help="Parameters to start from (default: zeros).")
@click.option("--epochs", default=20, show_default=True, type=click.IntRange(min=1))
@click.option("--lr", default=0.5, show_default=True, type=click.FloatRange(min=0.0))
@_seed
@click.option("--noise/--no-noise", default=True, show_default=True,
              help="Train on perturbed documents, or on clean ones.")
@_out
@click.option("--loss-trace", "loss_trace_path", type=click.Path(dir_okay=False), help="Optional CSV of per-epoch loss.")
def cmd_train(
    corpus_path: str, queries_path: str, triples_path: str, embeddings_path: str,
    lexicon_path: str, init_model_path: str | None, epochs: int, lr: float, seed: int,
    noise: bool, out_path: str, loss_trace_path: str | None,
) -> None:
    """Train the linear embedding scorer with noise data augmentation."""
    corpus = corpus_mod.load_corpus(corpus_path)
    queries = corpus_mod.load_queries(queries_path)
    triples = train_mod.load_triples(triples_path)
    emb = EmbeddingTable.load(embeddings_path)
    lexicon = Lexicon.load(lexicon_path)
    if init_model_path:
        model = _linear_from(_read_model_file(init_model_path), init_model_path, emb)
    else:
        model = LinearEmbedScorer.initial(emb)
    cfg = train_mod.TrainConfig(epochs=epochs, learning_rate=lr, seed=seed, noise_enabled=noise)
    result = train_mod.train(model, triples, corpus, queries, lexicon, cfg)
    result.model.save(out_path)
    if loss_trace_path:
        train_mod.write_loss_trace(result.losses, loss_trace_path)
    _write_meta(final_loss=result.losses[-1])
    click.echo(f"trained model written to {out_path} (final loss {result.losses[-1]:.4f})")


_scoring_options = _options(
    _input("corpus"), _input("queries"), _input("run"), _input("lexicon"), _input("model"),
    _input("embeddings", required=False, help="Required for linear scorer models."),
    click.option("--k", default=10, show_default=True, type=click.IntRange(min=1)),
    click.option("--delta", default=1.0, show_default=True, type=click.FloatRange(0.0, 1.0, min_open=True)),
    click.option("--n-samples", default=1000, show_default=True, type=click.IntRange(min=1)),
    click.option("--alpha", default=0.05, show_default=True,
                 type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True)),
    _seed,
    click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1)),
    _out,
)


def _load_scoring_inputs(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path, k,
):
    """Read a scoring command's inputs and decide which queries it scores
    (see :func:`_queries_to_score`) before the model is loaded. The corpus
    is read once, after the run: every line is checked and counted for
    BM25, but only the documents the run names are held. Returns the
    sidecar fields every scoring command writes with the inputs."""
    queries = corpus_mod.load_queries(queries_path)
    run = corpus_mod.load_run(run_path)
    corpus = corpus_mod.load_corpus(
        corpus_path, keep={e.doc_id for ranked in run.values() for e in ranked.entries})
    lexicon = Lexicon.load(lexicon_path)
    emb = EmbeddingTable.load(embeddings_path) if embeddings_path else None
    qids, skipped = _queries_to_score(run, queries, corpus, k)
    model = _load_model(Path(model_path), corpus, emb, queries, run, qids)
    meta = {"skipped": skipped, "corpus_documents": corpus.stats.n_docs,
            "corpus_kept": len(corpus)}
    return corpus, queries, run, lexicon, model, qids, meta


@main.command("certify")
@_scoring_options
def cmd_certify(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path,
    k, delta, n_samples, alpha, seed, jobs, out_path,
) -> None:
    """Certify top-K robustness per query; writes report JSONL and the
    smoothed run it certifies to ``<out>.smoothed.run``, prints CRQ."""
    corpus, queries, run, lexicon, model, qids, meta = _load_scoring_inputs(
        corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path, k)

    def work(qid: str) -> tuple[RankedList, certify_mod.CertificateReport]:
        smoothed = SmoothedModel(model, lexicon, n_samples, alpha, seed)
        ranked = smooth_rank(smoothed, queries[qid], _candidates(run[qid], corpus))
        return ranked, certify_mod.certify_topk(smoothed, queries[qid], ranked, corpus, k, delta)

    results = _map_queries(work, qids, jobs)
    reports = [report for _, report in results.values()]
    _write_jsonl(out_path, reports)
    corpus_mod.write_run({qid: ranked for qid, (ranked, _) in results.items()},
                         _beside(out_path, ".smoothed.run"), tag="smoothed")
    _write_meta(**meta)
    value = metrics_mod.crq(reports)
    click.echo(f"radius per estimate: {hoeffding_radius(n_samples, alpha):.6f}")
    click.echo(f"CRQ: {value:.2f}% ({sum(1 for r in reports if r.certified)}/{len(reports)} queries)")


@main.command("attack")
@_scoring_options
@click.option("--budget", default=3, show_default=True, type=click.IntRange(min=1), help="Greedy substitution budget, capped per document at certify.substitution_budget(delta, M).")
@click.option("--target", type=click.Choice(["smoothed", "base"]), default="smoothed", show_default=True)
@click.option("--max-attacked", default=None, type=click.IntRange(min=0), help="Attack at most this many tail documents per query.")
def cmd_attack(
    corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path,
    k, delta, n_samples, alpha, seed, jobs, out_path, budget, target, max_attacked,
) -> None:
    """Greedy synonym-substitution attack on documents beyond rank K.

    Each document's budget is capped at the number of words the certificate
    lets an attacker substitute at ``--delta``,
    ``certify.substitution_budget(delta, M)``; a document with a budget of 0
    is reported unchanged. The sidecar totals the greedy trials scored and
    the trials skipped as unable to change the score.
    """
    corpus, queries, run, lexicon, model, qids, meta = _load_scoring_inputs(
        corpus_path, queries_path, run_path, lexicon_path, model_path, embeddings_path, k)

    def work(qid: str) -> list[attack_mod.AttackOutcome]:
        query = queries[qid]
        scorer = (SmoothedModel(model, lexicon, n=n_samples, alpha=alpha, root_seed=seed)
                  if target == "smoothed" else model)
        ranked = rank(scorer, query, _candidates(run[qid], corpus))
        outcomes = []
        for e in ranked.tail(k)[:max_attacked]:
            doc = corpus[e.doc_id]
            doc_budget = min(budget, certify_mod.substitution_budget(delta, doc.length))
            outcomes.append(attack_mod.greedy_attack(scorer, query, doc, ranked, doc_budget, lexicon))
        return outcomes

    results = _map_queries(work, qids, jobs)
    outcomes = [o for per_query in results.values() for o in per_query]
    _write_jsonl(out_path, outcomes)
    _write_meta(**meta,
                trials_scored=sum(o.trials_scored for o in outcomes),
                trials_pruned=sum(o.trials_pruned for o in outcomes))
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
    if (run_path is None) != (qrels_path is None):
        raise click.UsageError("--run and --qrels go together: give both for MRR, or neither")
    reports = _read_jsonl(reports_path, certify_mod.CertificateReport.from_json_dict,
                          lambda r: f"query {r.query_id!r}")
    outcomes = _read_jsonl(outcomes_path, attack_mod.AttackOutcome.from_json_dict,
                           lambda o: f"query {o.query_id!r}, document {o.doc_id!r}")
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
