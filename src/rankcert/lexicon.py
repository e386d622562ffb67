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
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

logger = logging.getLogger(__name__)


class LexiconError(ValueError):
    """Malformed embeddings or an invalid lexicon construction request."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Token to dense-vector table with one fixed dimension.

    The vectors are held once, as the rows of a read-only ``matrix`` in
    sorted-token order, with ``index`` mapping each token to its row.
    """

    index: Mapping[str, int]
    matrix: np.ndarray = field(repr=False)

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
            vectors[token] = arr
        if not vectors:
            raise LexiconError("embedding table is empty")
        tokens = sorted(vectors)
        matrix = np.stack([vectors[t] for t in tokens])
        matrix.setflags(write=False)
        return cls(index={t: i for i, t in enumerate(tokens)}, matrix=matrix)

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
        return token in self.index

    def __getitem__(self, token: str) -> np.ndarray:
        return self.matrix[self.index[token]]

    def __len__(self) -> int:
        return len(self.index)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self.index)


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


# Similarities computed at once by the synonym search: 2**20 float64 values
# (8 MB) per block of rows, whatever the vocabulary size.
_BLOCK_SIMILARITIES = 1 << 20

# Violations named in the message of a lexicon file that fails to load.
_SHOWN_PROBLEMS = 10


def build_synonym_dict(emb: EmbeddingTable, tau: float = 0.8) -> dict[str, frozenset[str]]:
    """Threshold the pairwise cosine-similarity graph at ``tau``.

    ``S_w = {w} union {w' : cosine(emb[w], emb[w']) >= tau}``, symmetric and
    self-inclusive. Zero-norm vectors are excluded from similarity search
    with a warning; their words keep the singleton set ``{w}``.

    The search runs over blocks of rows of the unit-vector matrix: each
    block is multiplied by the whole matrix and thresholded in numpy, and
    only the pairs ``a < b`` it finds are read, each added to both sets.
    That is O(V^2 * dim) arithmetic in all, but a block holds at most
    ``_BLOCK_SIMILARITIES`` similarities (8 MB), so the V x V matrix is
    never formed and memory beyond the vectors and the sets stays flat.
    """
    if not 0.0 < tau < 1.0:
        raise LexiconError(f"tau must be in (0, 1), got {tau}")

    tokens = emb.tokens
    norms = np.linalg.norm(emb.matrix, axis=1)
    for t, n in zip(tokens, norms):
        if n == 0.0:
            logger.warning("zero-norm embedding for %r; excluded from synonym search", t)

    sets: dict[str, set[str]] = {t: {t} for t in tokens}
    valid = np.flatnonzero(norms > 0.0)
    if valid.size:
        unit = emb.matrix[valid] / norms[valid, None]
        rows = max(1, _BLOCK_SIMILARITIES // len(valid))
        for start in range(0, len(valid), rows):
            hits_a, hits_b = np.nonzero(unit[start:start + rows] @ unit.T >= tau)
            hits_a += start
            upper = hits_a < hits_b
            for a, b in zip(valid[hits_a[upper]].tolist(), valid[hits_b[upper]].tolist()):
                sets[tokens[a]].add(tokens[b])
                sets[tokens[b]].add(tokens[a])
    return {w: frozenset(s) for w, s in sets.items()}


def build_perturb_dict(
    synonyms: Mapping[str, frozenset[str]], emb: EmbeddingTable, j: int
) -> dict[str, tuple[str, ...]]:
    """Keep the ``j`` nearest synonyms of each word as its perturbation set.

    ``w`` itself counts as the nearest member (similarity 1), so every set
    starts with ``w``. Words with fewer than ``j`` synonyms become
    non-perturbable singletons, and a fixpoint pass demotes any perturbable
    word whose perturbation-set size disagrees with one of its synonyms
    until the equal-size invariant holds. Singletons admit only the identity
    perturbation, so ``j == 1`` makes every word non-perturbable.

    Ties in cosine similarity are broken by lexicographic token order.
    """
    if j < 1:
        raise LexiconError(f"j must be >= 1, got {j}")

    sets: dict[str, tuple[str, ...]] = {}
    for w in sorted(synonyms):
        members = synonyms[w]
        if len(members) >= j:
            others = sorted(
                (m for m in members if m != w),
                key=lambda m: (-cosine(emb[w], emb[m]), m),
            )
            sets[w] = (w, *others[: j - 1])
        else:
            sets[w] = (w,)

    for _ in range(len(sets) + 1):
        changed = False
        for w in sorted(sets):
            size = len(sets[w])
            if size >= 2 and any(len(sets.get(w2, (w2,))) != size for w2 in synonyms[w]):
                sets[w] = (w,)
                changed = True
        if not changed:
            break
    return sets


@dataclass(frozen=True)
class Lexicon:
    """Synonym sets ``S_w``, perturbation sets ``T_w`` built for size ``j``,
    and the overlaps ``o_w``, computed once from the two.

    A word is perturbable when ``|T_w| >= 2``. Words outside the vocabulary
    get ``S_w = {w}`` and ``T_w = (w,)``. The constructor does not check the
    invariants the certificate relies on; :meth:`validate` lists their
    violations and :meth:`load` refuses a file that has any.
    """

    synonyms: Mapping[str, frozenset[str]]
    perturb: Mapping[str, tuple[str, ...]]
    j: int
    overlaps: Mapping[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "overlaps", {w: self._overlap(w) for w in self.perturb})

    @classmethod
    def build(cls, emb: EmbeddingTable, tau: float = 0.8, j: int = 4) -> "Lexicon":
        synonyms = build_synonym_dict(emb, tau)
        return cls(synonyms=synonyms, perturb=build_perturb_dict(synonyms, emb, j), j=j)

    @property
    def vocab(self) -> tuple[str, ...]:
        return tuple(sorted(self.perturb))

    def synonym_set(self, word: str) -> frozenset[str]:
        """``S_w``; out-of-vocabulary words get the singleton ``{w}``."""
        return self.synonyms.get(word, frozenset((word,)))

    def perturb_set(self, word: str) -> tuple[str, ...]:
        """``T_w``; out-of-vocabulary words get the singleton ``(w,)``."""
        return self.perturb.get(word, (word,))

    def is_perturbable(self, word: str) -> bool:
        return len(self.perturb_set(word)) >= 2

    def attack_set(self, word: str) -> tuple[str, ...]:
        """Words an attacker may substitute for ``word`` (includes ``word``).

        Non-perturbable and out-of-vocabulary words are unattackable
        singletons, matching the assumption the certificate relies on.
        """
        if not self.is_perturbable(word):
            return (word,)
        return tuple(sorted(self.synonym_set(word)))

    def _overlap(self, word: str) -> float:
        """``min over w' in S_w of |T_w intersect T_w'| / |T_w|``; 1.0 for
        non-perturbable words (they contribute no slack)."""
        t_w = self.perturb_set(word)
        if len(t_w) < 2:
            return 1.0
        t_set = set(t_w)
        ratios = (len(t_set.intersection(self.perturb_set(w2))) / len(t_w)
                  for w2 in self.synonym_set(word))
        return min(ratios, default=1.0)

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
        """Report every violated lexicon invariant; an empty list means the
        lexicon is admissible for certification."""
        problems: list[str] = []
        for w in sorted(self.synonyms):
            members = self.synonyms[w]
            if w not in members:
                problems.append(f"missing-self: {w!r} not in its own synonym set")
            for w2 in sorted(members):
                if w2 not in self.synonyms:
                    problems.append(f"unknown-member: {w2!r} in synonyms of {w!r} is not in vocabulary")
                elif w not in self.synonyms[w2]:
                    problems.append(f"asymmetry: {w2!r} in synonyms of {w!r} but not conversely")

        for w in sorted(self.perturb):
            t_w = self.perturb[w]
            if w not in t_w:
                problems.append(f"missing-self: {w!r} not in its own perturbation set")
            if len(set(t_w)) != len(t_w):
                problems.append(f"duplicate-member: perturbation set of {w!r} repeats tokens")
            extra = set(t_w) - self.synonym_set(w)
            if extra:
                problems.append(
                    f"not-a-synonym: perturbation set of {w!r} contains {sorted(extra)!r} "
                    "outside its synonym set"
                )
            if len(t_w) >= 2:
                for w2 in sorted(self.synonym_set(w)):
                    if len(self.perturb_set(w2)) != len(t_w):
                        problems.append(
                            f"size-mismatch: |T_{w}| = {len(t_w)} but |T_{w2}| = "
                            f"{len(self.perturb_set(w2))} for synonym {w2!r}"
                        )
        return problems

    def to_json_dict(self) -> dict:
        return {
            "J": self.j,
            "synonyms": {w: sorted(s) for w, s in sorted(self.synonyms.items())},
            "perturb": {w: list(t) for w, t in sorted(self.perturb.items())},
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "Lexicon":
        return cls(
            synonyms={w: frozenset(s) for w, s in payload["synonyms"].items()},
            perturb={w: tuple(t) for w, t in payload["perturb"].items()},
            j=int(payload["J"]),
        )

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        """Read a lexicon file and validate it.

        Raises :class:`LexiconError` when a key is missing or malformed,
        and one listing the violations when the file breaks an invariant or
        carries the older ``perturbable`` flags and one of them disagrees
        with ``|T_w| >= 2``.
        """
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        try:
            lexicon = cls.from_json_dict(payload)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise LexiconError(f"{path}: malformed lexicon file: {exc!r}") from exc
        problems = lexicon.validate()
        for w, flag in sorted(payload.get("perturbable", {}).items()):
            if bool(flag) != lexicon.is_perturbable(w):
                problems.append(
                    f"perturbable-flag: {w!r} is marked {bool(flag)} but "
                    f"|T_{w}| = {len(lexicon.perturb_set(w))}"
                )
        if problems:
            shown = "; ".join(problems[:_SHOWN_PROBLEMS])
            more = len(problems) - _SHOWN_PROBLEMS
            raise LexiconError(
                f"{path}: lexicon fails validation with {len(problems)} violation(s): {shown}"
                + (f"; and {more} more" if more > 0 else "")
            )
        return lexicon
