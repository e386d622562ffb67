"""Top-K robustness certificates for smoothed rankers.

The certificate rests on two pieces, both computed here:

* ``doc_overlap_bound``: the per-document slack ``od``. Sort the document's
  positions by their overlap ratio ``o_w`` ascending; with ``E`` attackable
  positions, ``od = 1 - product of the E smallest o_w``. Any synonym
  substitution of at most ``E`` words can raise the smoothed score by at most
  ``od`` (see ``certified_upper_bound``).
* ``certify_topk``: the list-level criterion. With ``sK`` and ``sK1`` the
  smoothed scores at ranks K and K+1, the margin
  ``sK - sK1 - max tail od - total estimation radius`` being positive
  guarantees no document beyond rank K can be promoted into the top K.

The oracles that check the bound against ground truth (the closed form of
the clipped measure-difference mass, the provably worst-case substitution
and an indicator ranker that attains the bound exactly) live with the tests,
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .corpus import Document, Query, RankedList
from .lexicon import Lexicon
from .rankers import ScoreModel
from .smoothing import SmoothedScore, smoothed_score_exact, smoothed_score_mc


def attackable_count(doc: Document, lexicon: Lexicon, delta: float) -> int:
    """Number of positions an attacker may substitute: ``floor(delta * M)``,
    capped at the number of perturbable positions."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    budget = math.floor(delta * doc.length)
    perturbable = sum(1 for w in doc.tokens if lexicon.is_perturbable(w))
    return min(budget, perturbable)


def doc_overlap_bound(doc: Document, lexicon: Lexicon, delta: float) -> float:
    """Slack ``od = 1 - product of the E smallest per-position overlaps``."""
    e = attackable_count(doc, lexicon, delta)
    overlaps = sorted(lexicon.overlap_of(w) for w in doc.tokens)
    return 1.0 - math.prod(overlaps[:e])


def certified_upper_bound(fbar: float, od: float) -> float:
    """Upper bound on the smoothed score any admissible substitution of the
    document can reach: ``min(fbar + od, 1)``."""
    if not 0.0 <= fbar <= 1.0:
        raise ValueError(f"fbar must be in [0, 1], got {fbar}")
    if not 0.0 <= od <= 1.0:
        raise ValueError(f"od must be in [0, 1], got {od}")
    return min(fbar + od, 1.0)


def certification_margin(
    fbar_k: float, fbar_k1: float, max_od: float, total_radius: float
) -> float:
    """Conservative certification margin; positive means certified."""
    return fbar_k - fbar_k1 - max_od - total_radius


@dataclass(frozen=True)
class CertificateReport:
    """Per-query certification decision with all inputs, serializable."""

    query_id: str
    k: int
    delta: float
    n: int
    alpha: float
    fbar_k: float
    fbar_k1: float
    radius: float
    max_od: float
    delta_lq: float
    certified: bool
    per_doc_od: tuple[tuple[str, float], ...]

    def to_json_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "K": self.k,
            "delta": self.delta,
            "n": self.n,
            "alpha": self.alpha,
            "fbarK": self.fbar_k,
            "fbarK1": self.fbar_k1,
            "radius": self.radius,
            "max_od": self.max_od,
            "delta_Lq": self.delta_lq,
            "certified": self.certified,
            "per_doc_od": [{"doc_id": d, "od": o} for d, o in self.per_doc_od],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "CertificateReport":
        return cls(
            query_id=str(payload["query_id"]),
            k=int(payload["K"]),
            delta=float(payload["delta"]),
            n=int(payload["n"]),
            alpha=float(payload["alpha"]),
            fbar_k=float(payload["fbarK"]),
            fbar_k1=float(payload["fbarK1"]),
            radius=float(payload["radius"]),
            max_od=float(payload["max_od"]),
            delta_lq=float(payload["delta_Lq"]),
            certified=bool(payload["certified"]),
            per_doc_od=tuple((str(e["doc_id"]), float(e["od"])) for e in payload["per_doc_od"]),
        )


def certify_topk(
    model: ScoreModel,
    query: Query,
    ranked: RankedList,
    docs: Mapping[str, Document],
    k: int,
    delta: float,
    lexicon: Lexicon,
    *,
    n: int | None = 1000,
    alpha: float = 0.05,
    root_seed: int = 0,
) -> CertificateReport:
    """Certify that no document beyond rank ``k`` of the smoothed list can be
    promoted into the top ``k`` by substituting at most ``floor(delta * M)``
    words per document with synonyms.

    ``ranked`` must be the smoothed-ranker list (documents ordered by
    smoothed score). The two boundary scores are re-estimated with the same
    derived streams that produced the list, so they agree with its entries;
    the margin subtracts one confidence radius per estimate, making the
    decision conservative at level ``alpha`` per estimate. With ``n=None``
    both scores are exact (radius 0, reported as ``n: 0``).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if not 1 <= k < len(ranked):
        raise ValueError(f"K must satisfy 1 <= K < N = {len(ranked)}, got {k}")

    needed = [e.doc_id for e in ranked.entries[k - 1 :]]
    missing = [d for d in needed if d not in docs]
    if missing:
        raise KeyError(f"documents missing from corpus: {missing}")

    def estimate(doc: Document) -> SmoothedScore:
        if n is None:
            return SmoothedScore.exact(smoothed_score_exact(model, query, doc, lexicon))
        return smoothed_score_mc(model, query, doc, lexicon, n, alpha, root_seed)

    fbar_k = estimate(docs[ranked.entry_at(k).doc_id])
    fbar_k1 = estimate(docs[ranked.entry_at(k + 1).doc_id])

    per_doc = tuple(
        (e.doc_id, doc_overlap_bound(docs[e.doc_id], lexicon, delta))
        for e in ranked.tail(k)
    )
    max_od = max(o for _, o in per_doc)

    radius = fbar_k.radius
    margin = certification_margin(fbar_k.mean, fbar_k1.mean, max_od, fbar_k.radius + fbar_k1.radius)
    return CertificateReport(
        query_id=query.id,
        k=k,
        delta=delta,
        n=0 if n is None else n,
        alpha=alpha,
        fbar_k=fbar_k.mean,
        fbar_k1=fbar_k1.mean,
        radius=radius,
        max_od=max_od,
        delta_lq=margin,
        certified=margin > 0.0,
        per_doc_od=per_doc,
    )

