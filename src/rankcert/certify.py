"""Top-K robustness certificates for smoothed rankers.

The certificate rests on two pieces, both computed here:

* ``doc_overlap_bound``: the per-document slack ``od``. Sort the document's
  positions by their overlap ratio ``o_w`` ascending; with a budget of ``E``
  words (``substitution_budget``), ``od = 1 - product of the E smallest
  o_w``. Any synonym substitution of at most ``E`` words can raise the
  smoothed score by at most ``od`` (see ``certified_upper_bound``).
* ``certify_topk``: the list-level criterion. With ``sK`` and ``sK1`` the
  smoothed scores at ranks K and K+1, the margin
  ``sK - sK1 - max tail od - total estimation radius`` being positive
  guarantees no document beyond rank K can be promoted into the top K. It
  certifies the list of one smoothed ranker, the ``SmoothedModel`` that
  ranked it, and refuses a list whose boundary scores that ranker does not
  reproduce.

The oracles that check the bound against ground truth (the closed form of
the clipped measure-difference mass, the provably worst-case substitution
and an indicator ranker that attains the bound exactly) live with the tests,
in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .corpus import Document, Query, RankedList, json_field
from .lexicon import Lexicon
from .smoothing import SmoothedModel, SmoothedScore, smoothed_score_mc


def substitution_budget(delta: float, length: int) -> int:
    """The words of a ``length``-word document an attacker may substitute at
    ``delta`` in (0, 1]: ``floor(delta * M)`` as decimal arithmetic gives it,
    63 for 0.7 of 90 words, although ``0.7 * 90 == 62.99999999999999``."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    return math.floor(delta * length + 1e-9)


def doc_overlap_bound(doc: Document, lexicon: Lexicon, delta: float) -> float:
    """Slack ``od = 1 - product of the E smallest per-position overlaps``,
    ``E`` the :func:`substitution_budget`. Positions past the perturbable
    ones add factors of exactly 1.0."""
    e = substitution_budget(delta, doc.length)
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
            query_id=json_field(payload, "query_id", str),
            k=json_field(payload, "K", int),
            delta=json_field(payload, "delta", float),
            n=json_field(payload, "n", int),
            alpha=json_field(payload, "alpha", float),
            fbar_k=json_field(payload, "fbarK", float),
            fbar_k1=json_field(payload, "fbarK1", float),
            radius=json_field(payload, "radius", float),
            max_od=json_field(payload, "max_od", float),
            delta_lq=json_field(payload, "delta_Lq", float),
            certified=json_field(payload, "certified", bool),
            per_doc_od=tuple((json_field(e, "doc_id", str), json_field(e, "od", float))
                             for e in payload["per_doc_od"]),
        )


def certify_topk(
    smoothed: SmoothedModel,
    query: Query,
    ranked: RankedList,
    docs: Mapping[str, Document],
    k: int,
    delta: float,
) -> CertificateReport:
    """Certify that no document beyond rank ``k`` of the smoothed list can be
    promoted into the top ``k`` by substituting at most ``floor(delta * M)``
    words per document with synonyms of ``smoothed.lexicon``.

    ``ranked`` must be the list ``smoothed`` ranked. The two boundary scores
    are estimated again by that ranker: exactly from its memo with
    ``n=None`` (radius 0, reported as ``n: 0``), or by Monte Carlo with the
    same derived streams. An estimate that differs from the list's score at
    its rank raises a ``ValueError``, so the report always describes the
    list's own ranker. The margin subtracts one confidence radius per
    estimate, making the decision conservative at level ``alpha`` per
    estimate.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if not 1 <= k < len(ranked):
        raise ValueError(f"K must satisfy 1 <= K < N = {len(ranked)}, got {k}")

    needed = [e.doc_id for e in ranked.entries[k - 1 :]]
    missing = [d for d in needed if d not in docs]
    if missing:
        raise KeyError(f"documents missing from corpus: {missing}")

    def estimate(rank: int) -> SmoothedScore:
        entry = ranked.entry_at(rank)
        doc = docs[entry.doc_id]
        if smoothed.n is None:
            est = SmoothedScore.exact(smoothed.score(query, doc))
        else:
            est = smoothed_score_mc(smoothed, query, doc)
        if est.mean != entry.score:
            raise ValueError(
                f"rank {rank} of the list for query {query.id!r} holds document {doc.id!r} "
                f"with score {entry.score!r}, but the smoothed ranker scores it {est.mean!r}; "
                "certify the list this SmoothedModel ranked"
            )
        return est

    fbar_k = estimate(k)
    fbar_k1 = estimate(k + 1)

    per_doc = tuple(
        (e.doc_id, doc_overlap_bound(docs[e.doc_id], smoothed.lexicon, delta))
        for e in ranked.tail(k)
    )
    max_od = max(o for _, o in per_doc)

    radius = fbar_k.radius
    margin = certification_margin(fbar_k.mean, fbar_k1.mean, max_od, fbar_k.radius + fbar_k1.radius)
    return CertificateReport(
        query_id=query.id,
        k=k,
        delta=delta,
        n=fbar_k.n,
        alpha=smoothed.alpha,
        fbar_k=fbar_k.mean,
        fbar_k1=fbar_k1.mean,
        radius=radius,
        max_od=max_od,
        delta_lq=margin,
        certified=margin > 0.0,
        per_doc_od=per_doc,
    )
