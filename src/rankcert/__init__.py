"""Certified top-K robustness for text rankers under synonym substitution.

The package builds a perturbation lexicon from word embeddings, smooths any
[0, 1]-valued relevance scorer by random word substitutions, certifies that
no document beyond rank K of the smoothed list can be promoted into the top
K by bounded synonym substitutions, and validates those certificates with
exhaustive and greedy attackers plus the standard robustness metrics.
"""

from .attack import AttackOutcome, brute_force_attack, enumerate_sd, greedy_attack, sd_size
from .certify import (
    BoundAttainingRanker,
    CertificateReport,
    DocOverlapBound,
    bound_attaining_ranker,
    certification_margin,
    certified_upper_bound,
    certify_topk,
    doc_overlap_bound,
    excess_mass_by_enumeration,
    excess_mass_closed_form,
    optimal_adversary,
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
    PerturbDict,
    SynonymDict,
    build_perturb_dict,
    build_synonym_dict,
    overlap,
    overlap_table,
    validate_lexicon,
)
from .metrics import EvalSummary, cond_sr, crq, mrr, sr, summarize
from .rankers import Bm25Model, LinearEmbedScorer, ScoreModel, rank
from .smoothing import (
    PerturbationSampler,
    SmoothedModel,
    SmoothedScore,
    hoeffding_radius,
    perturbation_prob,
    smooth_rank,
    smoothed_score_exact,
    smoothed_score_mc,
)
from .training import TrainConfig, TrainingTriple, TrainResult, load_triples, train

__version__ = "0.1.0"

__all__ = [
    "AttackOutcome",
    "Bm25Model",
    "BoundAttainingRanker",
    "CertificateReport",
    "DocOverlapBound",
    "Document",
    "EmbeddingTable",
    "EvalSummary",
    "Lexicon",
    "LinearEmbedScorer",
    "PerturbDict",
    "PerturbationSampler",
    "Query",
    "RankEntry",
    "RankedList",
    "ScoreModel",
    "SmoothedModel",
    "SmoothedScore",
    "SynonymDict",
    "TrainConfig",
    "TrainResult",
    "TrainingTriple",
    "bound_attaining_ranker",
    "brute_force_attack",
    "build_perturb_dict",
    "build_synonym_dict",
    "certification_margin",
    "certified_upper_bound",
    "certify_topk",
    "cond_sr",
    "crq",
    "doc_overlap_bound",
    "enumerate_sd",
    "excess_mass_by_enumeration",
    "excess_mass_closed_form",
    "greedy_attack",
    "hoeffding_radius",
    "load_corpus",
    "load_qrels",
    "load_queries",
    "load_run",
    "load_triples",
    "make_ranked",
    "mrr",
    "optimal_adversary",
    "overlap",
    "overlap_table",
    "perturbation_prob",
    "rank",
    "sd_size",
    "smooth_rank",
    "smoothed_score_exact",
    "smoothed_score_mc",
    "sr",
    "summarize",
    "tokenize",
    "train",
    "validate_lexicon",
    "write_run",
]
