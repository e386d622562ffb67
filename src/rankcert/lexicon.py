"""Synonym sets, perturbation sets, and overlap statistics from word embeddings.

The lexicon pipeline builds, for every vocabulary word ``w``:

* a synonym set ``S_w`` (cosine-threshold neighbourhood, symmetric, contains
  ``w``), which defines what an attacker may substitute;
* a perturbation set ``T_w`` (the ``J`` nearest members of ``S_w``, always
  containing ``w``), which drives the random word-substitution noise;
* an overlap ratio ``o_w = min over synonyms w' of |T_w intersect T_w'| / |T_w|``,
  the quantity the certification bound is built from.

Certification requires ``|T_w| = |T_w'|`` for every perturbable word and each
of its synonyms. The builder enforces this by repeatedly demoting words whose
sizes disagree to non-perturbable singletons (``T_w = {w}``); a demoted word
is treated as unattackable downstream, so the demotion is sound.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

logger = logging.getLogger(__name__)


class LexiconError(ValueError):
    """Malformed embeddings or an invalid lexicon construction request."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Token to dense-vector table with one fixed dimension."""

    vectors: Mapping[str, np.ndarray]
    dim: int

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Iterable[float]]]) -> "EmbeddingTable":
        vectors: dict[str, np.ndarray] = {}
        dim: int | None = None
        for token, values in pairs:
            arr = np.asarray(list(values), dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise LexiconError(f"embedding for {token!r} is not a non-empty vector")
            if dim is None:
                dim = int(arr.size)
            elif arr.size != dim:
                raise LexiconError(
                    f"embedding for {token!r} has dimension {arr.size}, expected {dim}"
                )
            if not np.all(np.isfinite(arr)):
                raise LexiconError(f"embedding for {token!r} has non-finite values")
            if token in vectors:
                raise LexiconError(f"duplicate embedding token {token!r}")
            arr.setflags(write=False)
            vectors[token] = arr
        if not vectors:
            raise LexiconError("embedding table is empty")
        return cls(vectors=vectors, dim=dim)

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        """Parse ``token v1 v2 ... vD`` lines; a leading ``count dim`` header
        (a line of exactly two integers) is detected and skipped."""
        pairs: list[tuple[str, list[float]]] = []
        with open(path, encoding="utf-8") as fh:
            first = True
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                if first:
                    first = False
                    if len(parts) == 2 and _all_ints(parts):
                        continue
                try:
                    values = [float(v) for v in parts[1:]]
                except ValueError as exc:
                    raise LexiconError(f"{path}:{lineno}: bad vector component: {exc}") from exc
                if not values:
                    raise LexiconError(f"{path}:{lineno}: token without vector")
                pairs.append((parts[0], values))
        try:
            return cls.from_pairs(pairs)
        except LexiconError as exc:
            raise LexiconError(f"{path}: {exc}") from exc

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __getitem__(self, token: str) -> np.ndarray:
        return self.vectors[token]

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(sorted(self.vectors))

    @cached_property
    def rows(self) -> tuple[dict[str, int], np.ndarray]:
        """(token -> row index, stacked read-only vectors), built on first use."""
        index = {t: i for i, t in enumerate(self.vectors)}
        matrix = np.stack(list(self.vectors.values()))
        matrix.setflags(write=False)
        return index, matrix


def _all_ints(parts: list[str]) -> bool:
    try:
        for p in parts:
            int(p)
    except ValueError:
        return False
    return True


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; zero if either vector has zero norm."""
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


@dataclass(frozen=True)
class SynonymDict:
    """Word to synonym-set map ``S_w``; symmetric and self-inclusive."""

    sets: Mapping[str, frozenset[str]]
    rejected: tuple[str, ...] = ()

    def synonyms(self, word: str) -> frozenset[str]:
        return self.sets.get(word, frozenset((word,)))

    @property
    def vocab(self) -> tuple[str, ...]:
        return tuple(sorted(self.sets))


@dataclass(frozen=True)
class PerturbDict:
    """Word to perturbation-set map ``T_w``.

    ``sets[w]`` is ordered nearest-first and always starts with ``w`` when
    built by :func:`build_perturb_dict`. ``perturbable[w]`` is False for
    words whose perturbation set collapsed to the singleton ``{w}``.
    """

    sets: Mapping[str, tuple[str, ...]]
    j_size: int
    perturbable: Mapping[str, bool]

    def perturb_set(self, word: str) -> tuple[str, ...]:
        return self.sets.get(word, (word,))

    def is_perturbable(self, word: str) -> bool:
        return self.perturbable.get(word, False)


OverlapTable = dict[str, float]

# Similarities computed at once by the synonym search: 2**20 float64 values
# (8 MB) per block of rows, whatever the vocabulary size.
_BLOCK_SIMILARITIES = 1 << 20


def build_synonym_dict(emb: EmbeddingTable, tau: float = 0.8) -> SynonymDict:
    """Threshold the pairwise cosine-similarity graph at ``tau``.

    ``S_w = {w} union {w' : cosine(emb[w], emb[w']) >= tau}``. Zero-norm
    vectors are rejected from similarity search (their words keep the
    singleton set ``{w}``) and recorded on the result.

    The search runs over blocks of rows of the unit-vector matrix: each
    block is multiplied by the whole matrix and thresholded in numpy, and
    only the pairs ``a < b`` it finds are read, each added to both sets.
    That is O(V^2 * dim) arithmetic in all, but a block holds at most
    ``_BLOCK_SIMILARITIES`` similarities (8 MB), so the V x V matrix is
    never formed and memory beyond the vectors and the sets stays flat.
    """
    if not 0.0 < tau < 1.0:
        raise LexiconError(f"tau must be in (0, 1), got {tau}")
    if len(emb) == 0:
        raise LexiconError("cannot build synonyms from an empty embedding table")

    tokens = sorted(emb.vectors)
    mat = np.stack([emb.vectors[t] for t in tokens])
    norms = np.linalg.norm(mat, axis=1)
    rejected = tuple(t for t, n in zip(tokens, norms) if n == 0.0)
    for t in rejected:
        logger.warning("zero-norm embedding for %r; excluded from synonym search", t)

    sets: dict[str, set[str]] = {t: {t} for t in tokens}
    valid = np.flatnonzero(norms > 0.0)
    if valid.size:
        unit = mat[valid] / norms[valid, None]
        rows = max(1, _BLOCK_SIMILARITIES // len(valid))
        for start in range(0, len(valid), rows):
            hits_a, hits_b = np.nonzero(unit[start:start + rows] @ unit.T >= tau)
            hits_a += start
            upper = hits_a < hits_b
            for a, b in zip(valid[hits_a[upper]].tolist(), valid[hits_b[upper]].tolist()):
                sets[tokens[a]].add(tokens[b])
                sets[tokens[b]].add(tokens[a])

    return SynonymDict(
        sets={w: frozenset(s) for w, s in sets.items()},
        rejected=rejected,
    )


def build_perturb_dict(syn: SynonymDict, emb: EmbeddingTable, j: int) -> PerturbDict:
    """Keep the ``j`` nearest synonyms of each word as its perturbation set.

    ``w`` itself counts as the nearest member (similarity 1), so ``w`` is in
    ``T_w`` whenever the word is perturbable. Words with fewer than ``j``
    synonyms become non-perturbable singletons, and a fixpoint pass demotes
    any word whose perturbation-set size disagrees with one of its synonyms
    until the equal-size invariant holds.

    Ties in cosine similarity are broken by lexicographic token order.
    """
    if j < 1:
        raise LexiconError(f"j must be >= 1, got {j}")

    sets: dict[str, tuple[str, ...]] = {}
    for w in sorted(syn.sets):
        members = syn.sets[w]
        if len(members) >= j:
            others = sorted(
                (m for m in members if m != w),
                key=lambda m: (-cosine(emb[w], emb[m]), m),
            )
            sets[w] = (w, *others[: j - 1])
        else:
            sets[w] = (w,)

    # Singleton sets admit only the identity perturbation, so they are not
    # perturbable regardless of how they arose (covers j == 1 uniformly).
    perturbable = {w: len(t) >= 2 for w, t in sets.items()}

    for _ in range(len(sets) + 1):
        changed = False
        for w in sorted(sets):
            if not perturbable[w]:
                continue
            size = len(sets[w])
            for w2 in syn.sets[w]:
                if len(sets.get(w2, (w2,))) != size:
                    sets[w] = (w,)
                    perturbable[w] = False
                    changed = True
                    break
        if not changed:
            break

    return PerturbDict(sets=sets, j_size=j, perturbable=perturbable)


def overlap(pert: PerturbDict, syn: SynonymDict, word: str) -> float:
    """Minimum perturbation-set overlap of ``word`` with its synonyms.

    Returns ``min over w' in S_w of |T_w intersect T_w'| / |T_w|``;
    non-perturbable words score 1 (they contribute no slack).
    """
    if word not in pert.sets:
        raise LexiconError(f"unknown word {word!r}")
    if not pert.is_perturbable(word):
        return 1.0
    t_w = pert.sets[word]
    t_set = set(t_w)
    best = 1.0
    for w2 in sorted(syn.synonyms(word)):
        t_2 = pert.perturb_set(w2)
        ratio = len(t_set.intersection(t_2)) / len(t_w)
        if ratio < best:
            best = ratio
    return best


def overlap_table(pert: PerturbDict, syn: SynonymDict) -> OverlapTable:
    return {w: overlap(pert, syn, w) for w in pert.sets}


def validate_lexicon(pert: PerturbDict, syn: SynonymDict) -> list[str]:
    """Report every violated lexicon invariant; an empty list means the
    lexicon is admissible for certification."""
    problems: list[str] = []
    for w in sorted(syn.sets):
        members = syn.sets[w]
        if w not in members:
            problems.append(f"missing-self: {w!r} not in its own synonym set")
        for w2 in sorted(members):
            if w2 not in syn.sets:
                problems.append(f"unknown-member: {w2!r} in synonyms of {w!r} is not in vocabulary")
            elif w not in syn.sets[w2]:
                problems.append(f"asymmetry: {w2!r} in synonyms of {w!r} but not conversely")

    for w in sorted(pert.sets):
        t_w = pert.sets[w]
        if w not in t_w:
            problems.append(f"missing-self: {w!r} not in its own perturbation set")
        if len(set(t_w)) != len(t_w):
            problems.append(f"duplicate-member: perturbation set of {w!r} repeats tokens")
        extra = set(t_w) - set(syn.synonyms(w))
        if extra:
            problems.append(
                f"not-a-synonym: perturbation set of {w!r} contains {sorted(extra)!r} "
                "outside its synonym set"
            )
        if pert.is_perturbable(w):
            for w2 in sorted(syn.synonyms(w)):
                if len(pert.perturb_set(w2)) != len(t_w):
                    problems.append(
                        f"size-mismatch: |T_{w}| = {len(t_w)} but |T_{w2}| = "
                        f"{len(pert.perturb_set(w2))} for synonym {w2!r}"
                    )
        elif t_w != (w,):
            problems.append(f"bad-singleton: non-perturbable {w!r} has T = {t_w!r}")
    return problems


@dataclass(frozen=True)
class Lexicon:
    """Validated bundle of synonym sets, perturbation sets, and overlaps."""

    synonyms: SynonymDict
    perturb: PerturbDict
    overlaps: Mapping[str, float] = field(repr=False)

    @classmethod
    def build(cls, emb: EmbeddingTable, tau: float = 0.8, j: int = 4) -> "Lexicon":
        syn = build_synonym_dict(emb, tau)
        pert = build_perturb_dict(syn, emb, j)
        return cls.from_parts(syn, pert)

    @classmethod
    def from_parts(cls, syn: SynonymDict, pert: PerturbDict) -> "Lexicon":
        return cls(synonyms=syn, perturb=pert, overlaps=overlap_table(pert, syn))

    @property
    def j_size(self) -> int:
        return self.perturb.j_size

    @property
    def vocab(self) -> tuple[str, ...]:
        return tuple(sorted(self.perturb.sets))

    def perturb_set(self, word: str) -> tuple[str, ...]:
        """``T_w``; out-of-vocabulary words get the singleton ``(w,)``."""
        return self.perturb.perturb_set(word)

    def is_perturbable(self, word: str) -> bool:
        return self.perturb.is_perturbable(word)

    def attack_set(self, word: str) -> tuple[str, ...]:
        """Words an attacker may substitute for ``word`` (includes ``word``).

        Non-perturbable and out-of-vocabulary words are unattackable
        singletons, matching the assumption the certificate relies on.
        """
        if not self.perturb.is_perturbable(word):
            return (word,)
        return tuple(sorted(self.synonyms.synonyms(word)))

    def overlap_of(self, word: str) -> float:
        """``o_w``; 1.0 for non-perturbable and out-of-vocabulary words."""
        return self.overlaps.get(word, 1.0)

    def space_size(self, tokens: Iterable[str]) -> int:
        """Number of joint perturbations of a token sequence."""
        size = 1
        for w in tokens:
            size *= len(self.perturb_set(w))
        return size

    def validate(self) -> list[str]:
        return validate_lexicon(self.perturb, self.synonyms)

    def to_json_dict(self) -> dict:
        return {
            "J": self.perturb.j_size,
            "synonyms": {w: sorted(s) for w, s in sorted(self.synonyms.sets.items())},
            "perturb": {w: list(t) for w, t in sorted(self.perturb.sets.items())},
            "perturbable": {w: bool(b) for w, b in sorted(self.perturb.perturbable.items())},
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "Lexicon":
        syn = SynonymDict(sets={w: frozenset(s) for w, s in payload["synonyms"].items()})
        pert = PerturbDict(
            sets={w: tuple(t) for w, t in payload["perturb"].items()},
            j_size=int(payload["J"]),
            perturbable={w: bool(b) for w, b in payload["perturbable"].items()},
        )
        return cls.from_parts(syn, pert)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))
