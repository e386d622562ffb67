"""Correctness checks on the CLI's outputs. Any failed check fails the run.

The checks recompute what they compare against from the inputs instead of
calling back into rankcert.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from perfbench.workloads import ALPHA


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _run_qids(run_path: Path) -> list[str]:
    return sorted({line.split()[0] for line in run_path.read_text(encoding="utf-8").splitlines() if line.strip()})


def _hoeffding_radius(n: int, alpha: float) -> float:
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def check_certify(out: Path, run_path: Path, workload) -> tuple[int, int, float]:
    """Check a certify report file; returns (attempted, failed, CRQ %)."""
    reports = _jsonl(out)
    skipped = json.loads(out.with_name(out.name + ".meta.json").read_text(encoding="utf-8"))["skipped"]
    attempted = _run_qids(run_path)
    reported = [r["query_id"] for r in reports]
    require(len(reported) == len(set(reported)), "a query has two reports")
    require(sorted(set(reported) | set(skipped)) == attempted and not set(reported) & set(skipped),
             "reports plus skipped queries are not exactly the attempted queries")
    for r in reports:
        qid = r["query_id"]
        require(r["K"] == workload.world.k and r["n"] == workload.n_samples
                 and r["alpha"] == ALPHA and r["delta"] == workload.delta,
                 f"{qid}: report echoes other parameters than the command's")
        require(r["certified"] == (r["delta_Lq"] > 0), f"{qid}: certified != (delta_Lq > 0)")
        require(math.isclose(r["radius"], _hoeffding_radius(r["n"], r["alpha"]), rel_tol=1e-12),
                 f"{qid}: radius != hoeffding_radius(n, alpha)")
        require(0.0 <= r["fbarK1"] <= r["fbarK"] <= 1.0, f"{qid}: not 0 <= fbarK1 <= fbarK <= 1")
        ods = [d["od"] for d in r["per_doc_od"]]
        require(len(ods) == workload.world.candidates - workload.world.k, f"{qid}: od missing for a tail document")
        require(all(0.0 <= od <= 1.0 for od in ods), f"{qid}: an od lies outside [0, 1]")
        require(r["max_od"] == max(ods), f"{qid}: max_od is not the largest od")
    crq = 100.0 * sum(r["certified"] for r in reports) / len(reports) if reports else 0.0
    return len(attempted), len(skipped), crq


def check_attack(out: Path, corpus_path: Path, lexicon_path: Path, workload) -> tuple[int, int, float]:
    """Check an attack outcome file; returns (attempted, failed, SR %)."""
    outcomes = _jsonl(out)
    corpus = {}
    for d in _jsonl(corpus_path):
        corpus[d["id"]] = d["text"].split()
    synonyms = json.loads(lexicon_path.read_text(encoding="utf-8"))["synonyms"]
    k = workload.world.k
    per_query = min(workload.max_attacked, workload.world.candidates - k)
    attempted = workload.world.n_queries * per_query
    require(len(outcomes) <= attempted, "more outcomes than attacked documents")
    seen = set()
    for o in outcomes:
        where = f"{o['query_id']}/{o['doc_id']}"
        require((o["query_id"], o["doc_id"]) not in seen, f"{where}: attacked twice")
        seen.add((o["query_id"], o["doc_id"]))
        tokens = corpus[o["doc_id"]]
        require(o["original_rank"] > k, f"{where}: a top-K document was attacked")
        require(o["success"] == (o["best_rank_after"] < o["original_rank"]), f"{where}: success flag")
        require(0.0 <= o["best_score"] <= 1.0, f"{where}: score outside [0, 1]")
        require(len(o["substitutions"]) <= workload.budget, f"{where}: more substitutions than the budget")
        best = list(tokens)
        for pos, old, new in o["substitutions"]:
            require(tokens[pos] == old and new in synonyms.get(old, [old]),
                     f"{where}: substitution {old}->{new} at {pos} is not a synonym swap")
            best[pos] = new
        require(best == o["best_tokens"], f"{where}: best_tokens disagree with the substitutions")
    sr = 100.0 * sum(o["success"] for o in outcomes) / len(outcomes) if outcomes else 0.0
    return attempted, attempted - len(outcomes), sr
