"""Greedy synonym-substitution rank attacker.

``greedy_attack`` applies the best single (position, synonym) improvement
until a substitution budget is exhausted, a cheap stand-in for published
black-box attacks at evaluation time. The ``attack`` command caps each
document's budget at ``certify.substitution_budget(delta, M)``, the words the
certificate covers, so the attacker and the certificate share one threat
model. The exhaustive attacker that validates certificates is a
test oracle, in ``tests/oracles.py``.

Documents ranked in the top K are never attacked; callers select targets
from the tail of the ranked list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .corpus import Document, Query, RankedList, json_field, make_ranked
from .lexicon import Lexicon
from .rankers import ScoreModel


@dataclass(frozen=True)
class AttackOutcome:
    """Result of attacking one document of one ranked list."""

    query_id: str
    doc_id: str
    original_rank: int
    best_rank_after: int
    best_doc: Document
    best_score: float
    success: bool
    substitutions: tuple[tuple[int, str, str], ...]
    # Search counters of ``greedy_attack``: the ``attack`` command totals them
    # in its sidecar. They are not part of the record, so neither JSON nor
    # equality carries them.
    trials_scored: int = field(default=0, compare=False)
    trials_pruned: int = field(default=0, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "doc_id": self.doc_id,
            "original_rank": self.original_rank,
            "best_rank_after": self.best_rank_after,
            "best_score": self.best_score,
            "success": self.success,
            "best_tokens": list(self.best_doc.tokens),
            "substitutions": [[p, old, new] for p, old, new in self.substitutions],
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "AttackOutcome":
        return cls(
            query_id=str(payload["query_id"]),
            doc_id=str(payload["doc_id"]),
            original_rank=json_field(payload, "original_rank", int),
            best_rank_after=json_field(payload, "best_rank_after", int),
            best_doc=Document(str(payload["doc_id"]), tuple(payload["best_tokens"])),
            best_score=float(payload["best_score"]),
            success=json_field(payload, "success", bool),
            substitutions=tuple(
                (int(p), str(old), str(new)) for p, old, new in payload["substitutions"]
            ),
        )


def substitutions_between(doc: Document, adv: Document) -> tuple[tuple[int, str, str], ...]:
    """(position, original word, new word) for every changed position."""
    if adv.length != doc.length:
        raise ValueError(f"length mismatch: {doc.length} vs {adv.length}")
    return tuple(
        (i, a, b) for i, (a, b) in enumerate(zip(doc.tokens, adv.tokens)) if a != b
    )


def rank_after(ranked: RankedList, doc_id: str, score: float) -> int:
    """Rank the attacked document would take in the list, its own original
    entry removed, under :func:`make_ranked`'s order."""
    others = [(e.doc_id, e.score) for e in ranked.entries if e.doc_id != doc_id]
    return make_ranked(ranked.query_id, [*others, (doc_id, score)]).rank_of(doc_id)


def greedy_attack(
    model: ScoreModel,
    query: Query,
    doc: Document,
    ranked: RankedList,
    budget: int,
    lexicon: Lexicon,
) -> AttackOutcome:
    """Hill-climb over single (position, synonym) substitutions.

    Each step applies the strictly score-improving move with the largest
    gain, ties broken by (position, lexicographic word), while keeping at
    most ``budget`` positions changed from the original document: once that
    many are changed, only they are tried, with swaps and reverts. Stops
    when no move improves the score; with ``budget == 0`` that is at once,
    and the document comes back unchanged.

    A position's options are the original word's ``attack_set``, scanned in
    word order, and a step skips the options that cannot change the true
    score: those whose ``model.substitution_key`` equals the current word's,
    and every option after the first (the smallest word) of a key already
    kept. For a base model each word is its own key and nothing is skipped;
    on a ``SmoothedModel`` the key is the multiset of the word's perturbation
    set, so a swap inside one set is never scored. The outcome counts the trials scored
    and skipped (``trials_scored``, ``trials_pruned``).

    A step scores all its trial documents with one ``model.score_many``
    call. The trials share the document's id and length, so a
    ``SmoothedModel`` takes them as one consecutive run and stacks their
    draws into capped blocks of ``base.score_batch`` calls, with each
    trial's own draws and the values ``score`` gives.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    original_rank = ranked.rank_of(doc.id)
    current = list(doc.tokens)
    current_score = model.score(query, doc)

    key = model.substitution_key
    options = [{tok: key(tok) for tok in lexicon.attack_set(w)} for w in doc.tokens]
    scored = pruned = 0
    while True:
        best_move: tuple[int, str] | None = None
        best_score = current_score
        spent = sum(a != b for a, b in zip(current, doc.tokens)) >= budget
        moves, trials = [], []
        for pos, keys in enumerate(options):
            if spent and current[pos] == doc.tokens[pos]:
                continue
            seen = {keys[current[pos]]}
            for tok, k in keys.items():
                if k in seen:
                    pruned += tok != current[pos]
                    continue
                seen.add(k)
                trial = current.copy()
                trial[pos] = tok
                moves.append((pos, tok))
                trials.append(doc.with_tokens(trial))
        scored += len(trials)
        # Moves are listed in ascending (position, token) order and only a
        # strictly larger score replaces the incumbent, which realizes the
        # tie rule: maximal gain, then smallest position, then smallest word.
        for move, s in zip(moves, model.score_many(query, trials)):
            if s > best_score:
                best_score = s
                best_move = move
        if best_move is None:
            break
        current[best_move[0]] = best_move[1]
        current_score = best_score

    best_doc = doc.with_tokens(current)
    best_rank = rank_after(ranked, doc.id, current_score)
    return AttackOutcome(
        query_id=query.id,
        doc_id=doc.id,
        original_rank=original_rank,
        best_rank_after=best_rank,
        best_doc=best_doc,
        best_score=current_score,
        success=best_rank < original_rank,
        substitutions=substitutions_between(doc, best_doc),
        trials_scored=scored,
        trials_pruned=pruned,
    )
