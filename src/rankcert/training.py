"""Noise-augmented pairwise training for the linear embedding scorer.

Training minimizes the pairwise hinge ``max(0, 1 - f(q, d+) + f(q, d-))``
by stochastic subgradient descent. With noise enabled, the positive and
negative documents are replaced by draws from the word-substitution
perturbation distribution, so the base model learns to score perturbed
documents the way the smoothed ranker will see them. Fresh noise is drawn
for every use of a document.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Document, Query
from .lexicon import Lexicon
from .rankers import LinearEmbedScorer, sigmoid
from .smoothing import PerturbationSampler

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingTriple:
    query_id: str
    pos_id: str
    neg_id: str

    def __post_init__(self) -> None:
        if self.pos_id == self.neg_id:
            raise ValueError(
                f"triple for query {self.query_id!r} repeats document {self.pos_id!r}"
            )


def load_triples(path: str | Path) -> list[TrainingTriple]:
    """Load TSV triples ``qid<TAB>pos_doc<TAB>neg_doc``."""
    triples: list[TrainingTriple] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'qid<TAB>pos<TAB>neg'")
            try:
                triples.append(TrainingTriple(*parts))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return triples


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 0.5
    seed: int = 0
    noise_enabled: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")


@dataclass(frozen=True)
class TrainResult:
    model: LinearEmbedScorer
    losses: tuple[float, ...]


def hinge_loss(pos_score: float, neg_score: float) -> float:
    return max(0.0, 1.0 - pos_score + neg_score)


def train(
    model: LinearEmbedScorer,
    triples: Sequence[TrainingTriple],
    corpus: Mapping[str, Document],
    queries: Mapping[str, Query],
    lexicon: Lexicon,
    cfg: TrainConfig,
) -> TrainResult:
    """Subgradient descent on the pairwise hinge over (possibly noised)
    triples, starting from ``model``'s parameters. Returns a new model and
    the mean loss per epoch; the input model is never mutated. Deterministic
    given ``cfg.seed``.
    """
    if not triples:
        raise ValueError("no training triples given")
    for t in triples:
        if t.query_id not in queries:
            raise KeyError(f"triple query {t.query_id!r} not in queries")
        for doc_id in (t.pos_id, t.neg_id):
            if doc_id not in corpus:
                raise KeyError(f"triple document {doc_id!r} not in corpus")

    weights = np.array(model.weights, dtype=float)
    bias = float(model.bias)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & ((1 << 64) - 1)]))

    sampler = PerturbationSampler(lexicon)

    def resolve(doc_id: str) -> Document:
        doc = corpus[doc_id]
        if not cfg.noise_enabled:
            return doc
        return sampler.sample(doc, sampler.picks(doc, rng, 1)[0])

    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(triples))
        epoch_loss = 0.0
        for idx in order:
            t = triples[int(idx)]
            query = queries[t.query_id]
            pos = resolve(t.pos_id)
            neg = resolve(t.neg_id)

            # Features do not depend on the parameters, so the input model's
            # (and its cached query side) serve every update.
            phi_pos = model.features(query, pos)
            phi_neg = model.features(query, neg)
            z_pos = float(np.dot(weights, phi_pos)) + bias
            z_neg = float(np.dot(weights, phi_neg)) + bias
            s_pos = sigmoid(z_pos)
            s_neg = sigmoid(z_neg)
            loss = hinge_loss(s_pos, s_neg)
            # The hinge clamp can hide a NaN score, so check the inputs too.
            if not (np.isfinite(z_pos) and np.isfinite(z_neg) and np.isfinite(loss)):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch}, triple "
                    f"({t.query_id}, {t.pos_id}, {t.neg_id}): "
                    f"weights={weights!r} bias={bias!r}"
                )
            epoch_loss += loss
            if loss > 0.0:
                # d loss / d theta = -sigma'(z+) dz+ + sigma'(z-) dz-
                g_pos = s_pos * (1.0 - s_pos)
                g_neg = s_neg * (1.0 - s_neg)
                grad_w = -g_pos * phi_pos + g_neg * phi_neg
                grad_b = -g_pos + g_neg
                weights = weights - cfg.learning_rate * grad_w
                bias = bias - cfg.learning_rate * grad_b
        losses.append(epoch_loss / len(triples))
    logger.info("trained %d epochs; final mean loss %.4f", cfg.epochs, losses[-1])
    return TrainResult(model=model.with_params(weights, bias), losses=tuple(losses))


def write_loss_trace(losses: Sequence[float], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,loss\n")
        for epoch, loss in enumerate(losses, start=1):
            fh.write(f"{epoch},{loss:.10g}\n")
