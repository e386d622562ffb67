"""Certified top-K robustness for text rankers under synonym substitution.

The package builds a perturbation lexicon from word embeddings, smooths any
[0, 1]-valued relevance scorer by random word substitutions, certifies that
no document beyond rank K of the smoothed list can be promoted into the top
K by bounded synonym substitutions, and tests those certificates with a
greedy attacker plus the standard robustness metrics.
"""

from .attack import AttackOutcome, greedy_attack
from .certify import (
    CertificateReport,
    certification_margin,
    certified_upper_bound,
    certify_topk,
    doc_overlap_bound,
)
from .corpus import (
    Document,
    Query,
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
from .lexicon import (
    EmbeddingTable,
    Lexicon,
    build_perturb_dict,
    build_synonym_dict,
)
from .metrics import EvalSummary, cond_sr, crq, mrr, sr, summarize
from .rankers import Bm25Model, LinearEmbedScorer, ScoreModel, rank
from .smoothing import (
    PerturbationSampler,
    SmoothedModel,
    SmoothedScore,
    hoeffding_radius,
    smooth_rank,
    smoothed_score_exact,
    smoothed_score_mc,
)
from .training import TrainConfig, TrainingTriple, TrainResult, load_triples, train

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome",
    "Bm25Model",
    "CertificateReport",
    "Document",
    "EmbeddingTable",
    "EvalSummary",
    "Lexicon",
    "LinearEmbedScorer",
    "PerturbationSampler",
    "Query",
    "RankEntry",
    "RankedList",
    "ScoreModel",
    "SmoothedModel",
    "SmoothedScore",
    "TrainConfig",
    "TrainResult",
    "TrainingTriple",
    "build_perturb_dict",
    "build_synonym_dict",
    "certification_margin",
    "certified_upper_bound",
    "certify_topk",
    "cond_sr",
    "crq",
    "doc_overlap_bound",
    "greedy_attack",
    "hoeffding_radius",
    "load_corpus",
    "load_qrels",
    "load_queries",
    "load_run",
    "load_triples",
    "make_ranked",
    "mrr",
    "rank",
    "smooth_rank",
    "smoothed_score_exact",
    "smoothed_score_mc",
    "sr",
    "summarize",
    "tokenize",
    "train",
    "write_run",
]
