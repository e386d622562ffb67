"""Top-K robustness certificates for smoothed rankers.

The certificate rests on three pieces, all computed here:

* ``doc_overlap_bound``: the per-document slack ``od``. Sort the document's
  positions by their overlap ratio ``o_w`` ascending; with ``E`` attackable
  positions, ``od = 1 - product of the E smallest o_w``. Any synonym
  substitution of at most ``E`` words can raise the smoothed score by at most
  ``od`` (see ``certified_upper_bound``).
* ``certify_topk``: the list-level criterion. With ``sK`` and ``sK1`` the
  smoothed scores at ranks K and K+1, the margin
  ``sK - sK1 - max tail od - total estimation radius`` being positive
  guarantees no document beyond rank K can be promoted into the top K.
* Executable oracles for the analysis: the closed form of the clipped
  measure-difference mass (``excess_mass_closed_form``), the provably
  worst-case substitution (``optimal_adversary``), and an indicator ranker
  that attains the upper bound exactly (``bound_attaining_ranker``),
  witnessing that the bound cannot be tightened without structural
  knowledge of the base model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from .corpus import Document, Query, RankedList
from .lexicon import Lexicon
from .rankers import ScoreModel
from .smoothing import (
    DEFAULT_ENUMERATION_CAP,
    SmoothedScore,
    smoothed_score_exact,
    smoothed_score_mc,
)


@dataclass(frozen=True)
class DocOverlapBound:
    """Document-level slack: how much smoothing mass an attacker can move."""

    doc_id: str
    sorted_overlaps: tuple[float, ...]
    attackable: int
    od: float


def attackable_count(doc: Document, lexicon: Lexicon, delta: float) -> int:
    """Number of positions an attacker may substitute: ``floor(delta * M)``,
    capped at the number of perturbable positions."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    budget = math.floor(delta * doc.length)
    perturbable = sum(1 for w in doc.tokens if lexicon.is_perturbable(w))
    return min(budget, perturbable)


def doc_overlap_bound(doc: Document, lexicon: Lexicon, delta: float) -> DocOverlapBound:
    """Slack ``od = 1 - product of the E smallest per-position overlaps``."""
    e = attackable_count(doc, lexicon, delta)
    overlaps = tuple(sorted(lexicon.overlap_of(w) for w in doc.tokens))
    prod = 1.0
    for o in overlaps[:e]:
        prod *= o
    return DocOverlapBound(doc_id=doc.id, sorted_overlaps=overlaps, attackable=e, od=1.0 - prod)


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
    n: int = 1000,
    alpha: float = 0.05,
    root_seed: int = 0,
    exact: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> CertificateReport:
    """Certify that no document beyond rank ``k`` of the smoothed list can be
    promoted into the top ``k`` by substituting at most ``floor(delta * M)``
    words per document with synonyms.

    ``ranked`` must be the smoothed-ranker list (documents ordered by
    smoothed score). The two boundary scores are re-estimated with the same
    derived streams that produced the list, so they agree with its entries;
    the margin subtracts one confidence radius per estimate, making the
    decision conservative at level ``alpha`` per estimate.
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
        if exact:
            return SmoothedScore.exact(smoothed_score_exact(model, query, doc, lexicon, cap))
        return smoothed_score_mc(model, query, doc, lexicon, n, alpha, root_seed)

    fbar_k = estimate(docs[ranked.entry_at(k).doc_id])
    fbar_k1 = estimate(docs[ranked.entry_at(k + 1).doc_id])

    per_doc = tuple(
        (e.doc_id, doc_overlap_bound(docs[e.doc_id], lexicon, delta).od)
        for e in ranked.tail(k)
    )
    max_od = max(o for _, o in per_doc)

    radius = fbar_k.radius
    margin = certification_margin(fbar_k.mean, fbar_k1.mean, max_od, fbar_k.radius + fbar_k1.radius)
    return CertificateReport(
        query_id=query.id,
        k=k,
        delta=delta,
        n=0 if exact else n,
        alpha=alpha,
        fbar_k=fbar_k.mean,
        fbar_k1=fbar_k1.mean,
        radius=radius,
        max_od=max_od,
        delta_lq=margin,
        certified=margin > 0.0,
        per_doc_od=per_doc,
    )


def _changed_positions(doc: Document, adv: Document) -> list[int]:
    if adv.length != doc.length:
        raise ValueError(f"length mismatch: {doc.length} vs {adv.length}")
    return [i for i, (a, b) in enumerate(zip(doc.tokens, adv.tokens)) if a != b]


def excess_mass_closed_form(
    doc: Document, adv: Document, lam: float, lexicon: Lexicon
) -> float:
    """Total mass of the positive part of ``(perturbation measure of adv)
    minus lam times (perturbation measure of doc)``.

    Writing ``P`` for the product over changed positions of
    ``|T_w intersect T_w'| / |T_w'|`` and ``Q`` for the product of
    ``|T_w'| / |T_w|``, the mass equals ``1 - P + P * max(0, 1 - lam * Q)``.
    Valid for ``lam >= 0``; changed words must be synonym substitutions.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    p = 1.0
    q = 1.0
    for i in _changed_positions(doc, adv):
        w, w2 = doc.tokens[i], adv.tokens[i]
        if w2 not in lexicon.synonym_set(w):
            raise ValueError(f"{w2!r} is not a synonym of {w!r} (position {i})")
        t_w = set(lexicon.perturb_set(w))
        t_2 = lexicon.perturb_set(w2)
        inter = len(t_w.intersection(t_2))
        p *= inter / len(t_2)
        q *= len(t_2) / len(t_w)
    return 1.0 - p + p * max(0.0, 1.0 - lam * q)


def excess_mass_by_enumeration(
    doc: Document,
    adv: Document,
    lam: float,
    lexicon: Lexicon,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Enumeration oracle for :func:`excess_mass_closed_form`: sums
    ``max(prob_adv(R) - lam * prob_doc(R), 0)`` over the support of the
    perturbation measure around ``adv``."""
    from .smoothing import enumerate_perturbations, perturbation_prob

    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if adv.length != doc.length:
        raise ValueError(f"length mismatch: {doc.length} vs {adv.length}")
    terms = []
    for tokens in enumerate_perturbations(adv, lexicon, cap):
        r = Document(adv.id, tokens)
        diff = perturbation_prob(adv, r, lexicon) - lam * perturbation_prob(doc, r, lexicon)
        if diff > 0:
            terms.append(diff)
    return math.fsum(terms)


def _min_overlap_substitute(word: str, lexicon: Lexicon) -> tuple[str, float]:
    """Synonym of ``word`` minimizing the perturbation-set overlap ratio,
    ties broken lexicographically. Returns (synonym, ratio)."""
    t_w = set(lexicon.perturb_set(word))
    size = len(t_w)
    best_word = word
    best_ratio = 1.0
    for cand in lexicon.attack_set(word):
        ratio = len(t_w.intersection(lexicon.perturb_set(cand))) / size
        if ratio < best_ratio or (ratio == best_ratio and cand < best_word):
            best_word = cand
            best_ratio = ratio
    return best_word, best_ratio


def optimal_adversary(doc: Document, delta: float, lexicon: Lexicon) -> Document:
    """The provably worst-case substitution: replace the ``floor(delta * M)``
    positions with the smallest overlap ratios by their ratio-minimizing
    synonyms. Ties break by position, then lexicographic token order."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    e = math.floor(delta * doc.length)
    choices = [_min_overlap_substitute(w, lexicon) for w in doc.tokens]
    order = sorted(range(doc.length), key=lambda i: (choices[i][1], i))
    tokens = list(doc.tokens)
    for i in order[:e]:
        tokens[i] = choices[i][0]
    return doc.with_tokens(tokens)


@dataclass(frozen=True)
class BoundAttainingRanker(ScoreModel):
    """Indicator ranker over the joint perturbation space that meets the
    certified upper bound with equality.

    The smoothed score of the source document is ``achieved_p`` and the
    maximum smoothed score over all admissible substitutions is exactly
    ``min(achieved_p + od, 1)``, attained at ``dstar``. Scores depend only
    on the token sequence, not the query.
    """

    query_id: str
    achieved_p: float
    od: float
    dstar: Document
    relevant: frozenset[tuple[str, ...]]

    def score(self, query: Query, doc: Document) -> float:
        return 1.0 if doc.tokens in self.relevant else 0.0


def bound_attaining_ranker(
    doc: Document,
    query: Query,
    p_r: float,
    lexicon: Lexicon,
    delta: float = 1.0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BoundAttainingRanker:
    """Construct the worst-case ranker for ``doc`` at target smoothed score
    ``p_r`` (rounded to the nearest multiple of ``1 / |joint space|``; the
    achieved value is reported on the result).

    Let ``T(d)`` be the joint perturbation space of ``doc``, ``dstar`` the
    worst-case substitution, and ``I = T(d) intersect T(dstar)``. Pick ``U``
    with ``|U| = round(p_r * |T(d)|)``. If ``U`` fits inside ``I``, the
    ranker fires on ``U union (T(dstar) - T(d))``; otherwise ``U`` is grown
    from ``I`` with elements of ``T(d) - T(dstar)`` and the ranker fires on
    ``U union T(dstar)``. Either way its smoothed score at ``doc`` is
    ``|U| / |T(d)|`` and its adversarial maximum is ``min(p + od, 1)``.
    """
    if not 0.0 <= p_r <= 1.0:
        raise ValueError(f"p_r must be in [0, 1], got {p_r}")
    dstar = optimal_adversary(doc, delta, lexicon)

    d_sets = [lexicon.perturb_set(w) for w in doc.tokens]
    s_sets = [lexicon.perturb_set(w) for w in dstar.tokens]
    d_size = math.prod(len(s) for s in d_sets)
    s_size = math.prod(len(s) for s in s_sets)
    if d_size > cap or s_size > cap:
        raise ValueError(
            f"joint perturbation space of {doc.id!r} has {max(d_size, s_size)} outcomes, "
            f"above the cap of {cap}"
        )

    d_member = [frozenset(s) for s in d_sets]
    s_member = [frozenset(s) for s in s_sets]
    inter_sets = [sorted(a.intersection(b)) for a, b in zip(d_member, s_member)]
    inter_size = math.prod(len(s) for s in inter_sets)

    od = 1.0 - inter_size / d_size
    u_count = min(max(round(p_r * d_size), 0), d_size)

    def in_space(tokens: tuple[str, ...], member: list[frozenset[str]]) -> bool:
        return all(t in m for t, m in zip(tokens, member))

    relevant: set[tuple[str, ...]] = set()
    if u_count <= inter_size:
        # U inside the intersection; fire on U plus the part of T(dstar)
        # outside T(d).
        relevant.update(itertools.islice(itertools.product(*inter_sets), u_count))
        for tokens in itertools.product(*s_sets):
            if not in_space(tokens, d_member):
                relevant.add(tokens)
    else:
        # U covers the whole intersection and spills into T(d) - T(dstar);
        # fire on U plus all of T(dstar).
        relevant.update(itertools.product(*inter_sets))
        spill = u_count - inter_size
        for tokens in itertools.product(*d_sets):
            if spill == 0:
                break
            if not in_space(tokens, s_member):
                relevant.add(tokens)
                spill -= 1
        relevant.update(itertools.product(*s_sets))

    return BoundAttainingRanker(
        query_id=query.id,
        achieved_p=u_count / d_size,
        od=od,
        dstar=dstar,
        relevant=frozenset(relevant),
    )
