"""Analysis oracles that check certificates against ground truth.

Certifying and attacking need none of these; the tests use them to check the
certificate's bound:

* ``sd_size``, ``enumerate_sd`` and ``brute_force_attack``: the admissible
  substitution set (at most ``floor(delta * M)`` words replaced, each by one
  of its synonyms) and the exhaustive attacker over it, the ground truth a
  certified list must withstand;
* ``exact_smoothed_score``: the smoothed score as the plain in-order mean of
  the base scores over ``enumerate_perturbations``, with no memo, the value
  ``SmoothedModel(n=None)`` must reproduce bit for bit;
* ``perturbation_prob``: the probability of one outcome of the perturbation
  distribution around a document;
* ``excess_mass_closed_form`` and ``excess_mass_by_enumeration``: the
  clipped measure-difference mass behind the bound, in closed form and by
  enumeration;
* ``optimal_adversary``: the provably worst-case substitution;
* ``bound_attaining_ranker``: an indicator ranker that attains the upper
  bound exactly, witnessing that the bound cannot be tightened without
  structural knowledge of the base model.

Every enumeration refuses a space above ``rankcert.smoothing.ENUMERATION_CAP``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from rankcert import Document, Lexicon, Query, RankedList, ScoreModel
from rankcert.attack import AttackOutcome, rank_after, substitutions_between
from rankcert.certify import substitution_budget
from rankcert.smoothing import ENUMERATION_CAP, enumerate_perturbations


def sd_size(doc: Document, delta: float, lexicon: Lexicon) -> int:
    """Number of admissible substituted documents, the identity included.

    Computed without enumeration: with ``a_i`` the number of strict synonym
    alternatives at position ``i``, the count is the sum over ``r <= E`` of
    the elementary symmetric polynomials ``e_r(a_1, ..., a_M)``.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    e = substitution_budget(delta, doc.length)
    counts = [1] + [0] * e
    for w in doc.tokens:
        a = len(lexicon.attack_set(w)) - 1
        if a == 0:
            continue
        for r in range(min(e, doc.length), 0, -1):
            counts[r] += counts[r - 1] * a
    return sum(counts)


def enumerate_sd(doc: Document, delta: float, lexicon: Lexicon) -> Iterator[Document]:
    """Yield every admissible substituted document exactly once, the original
    document first, in a deterministic order."""
    total = sd_size(doc, delta, lexicon)
    if total > ENUMERATION_CAP:
        raise ValueError(
            f"substitution set of {doc.id!r} has {total} members, above the cap of "
            f"{ENUMERATION_CAP}"
        )
    e = substitution_budget(delta, doc.length)
    options = {
        i: [t for t in lexicon.attack_set(w) if t != w]
        for i, w in enumerate(doc.tokens)
    }
    positions = [i for i, opts in options.items() if opts]

    yield doc
    for r in range(1, min(e, len(positions)) + 1):
        for combo in itertools.combinations(positions, r):
            for picks in itertools.product(*(options[i] for i in combo)):
                tokens = list(doc.tokens)
                for i, tok in zip(combo, picks):
                    tokens[i] = tok
                yield doc.with_tokens(tokens)


def brute_force_attack(
    model: ScoreModel,
    query: Query,
    doc: Document,
    ranked: RankedList,
    delta: float,
    lexicon: Lexicon,
) -> AttackOutcome:
    """Evaluate every admissible substitution and keep the best score.

    This is the ground-truth adversary: whatever it cannot achieve, no
    admissible attack can.
    """
    original_rank = ranked.rank_of(doc.id)
    best_doc = doc
    best_score = model.score(query, doc)
    for cand in enumerate_sd(doc, delta, lexicon):
        s = model.score(query, cand)
        if s > best_score:
            best_score = s
            best_doc = cand
    best_rank = rank_after(ranked, doc.id, best_score)
    return AttackOutcome(
        query_id=query.id,
        doc_id=doc.id,
        original_rank=original_rank,
        best_rank_after=best_rank,
        best_doc=best_doc,
        best_score=best_score,
        success=best_rank < original_rank,
        substitutions=substitutions_between(doc, best_doc),
    )


def exact_smoothed_score(
    model: ScoreModel, query: Query, doc: Document, lexicon: Lexicon
) -> float:
    """Sum of the base scores of every joint perturbation of ``doc``, in
    ``enumerate_perturbations`` order, divided by their count."""
    total = 0.0
    count = 0
    for tokens in enumerate_perturbations(doc, lexicon):
        total += model.score(query, Document(doc.id, tokens))
        count += 1
    return total / count


def perturbation_prob(doc: Document, perturbed: Document, lexicon: Lexicon) -> float:
    """Probability of drawing ``perturbed`` from the distribution around
    ``doc``: the product over positions of ``1/|T_{w_i}|`` when the token is
    in ``T_{w_i}``, else zero."""
    if perturbed.length != doc.length:
        raise ValueError(
            f"length mismatch: {doc.length} vs {perturbed.length} "
            f"({doc.id!r} vs {perturbed.id!r})"
        )
    prob = 1.0
    for w, r in zip(doc.tokens, perturbed.tokens):
        t_w = lexicon.perturb_set(w)
        if r not in t_w:
            return 0.0
        prob /= len(t_w)
    return prob


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
    for i, w, w2 in substitutions_between(doc, adv):
        if w2 not in lexicon.synonym_set(w):
            raise ValueError(f"{w2!r} is not a synonym of {w!r} (position {i})")
        t_w = set(lexicon.perturb_set(w))
        t_2 = lexicon.perturb_set(w2)
        inter = len(t_w.intersection(t_2))
        p *= inter / len(t_2)
        q *= len(t_2) / len(t_w)
    return 1.0 - p + p * max(0.0, 1.0 - lam * q)


def excess_mass_by_enumeration(
    doc: Document, adv: Document, lam: float, lexicon: Lexicon
) -> float:
    """Enumeration oracle for :func:`excess_mass_closed_form`: sums
    ``max(prob_adv(R) - lam * prob_doc(R), 0)`` over the support of the
    perturbation measure around ``adv``."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if adv.length != doc.length:
        raise ValueError(f"length mismatch: {doc.length} vs {adv.length}")
    terms = []
    for tokens in enumerate_perturbations(adv, lexicon):
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
    e = substitution_budget(delta, doc.length)
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
    if max(d_size, s_size) > ENUMERATION_CAP:
        raise ValueError(
            f"joint perturbation space of {doc.id!r} has {max(d_size, s_size)} outcomes, "
            f"above the cap of {ENUMERATION_CAP}"
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
