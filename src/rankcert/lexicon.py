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

import functools
import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import json_field, numbered_lines, read_text

logger = logging.getLogger(__name__)


class LexiconError(ValueError):
    """Malformed embeddings or an invalid lexicon construction request."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Token to dense-vector table with one fixed dimension.

    The vectors are held once, as the rows of a read-only ``vectors``
    array in sorted-token order, with ``index`` mapping each token to its
    row. One more row follows them, the +0.0 vector, at index
    ``len(table)``: a scorer gathering the rows of a document's words
    points a word without a vector there. ``matrix`` is the view of the
    tokens' rows alone.

    Building a table fills the rows, in input order, into float64 blocks of
    ``_BLOCK_ROWS`` rows, then scatters the blocks into ``vectors``: the
    transient memory is about one more copy of the table.
    """

    index: Mapping[str, int]
    vectors: np.ndarray = field(repr=False)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """``vectors`` without its +0.0 row."""
        return self.vectors[:-1]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Iterable[float]]]) -> "EmbeddingTable":
        def rows() -> Iterator[tuple[str, np.ndarray]]:
            for token, values in pairs:
                arr = np.asarray(list(values), dtype=float)
                if arr.ndim != 1 or arr.size == 0:
                    raise LexiconError(f"embedding for {token!r} is not a non-empty vector")
                yield token, arr

        return cls._from_rows(rows(), lambda i: "")

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        """Parse ``token v1 v2 ... vD`` lines; a leading ``count dim`` header
        (a line of exactly two integers) is detected and skipped. Each
        line's D fields are converted by ``float()``'s rules straight into
        a row of a float64 block, never held as Python floats, so loading
        holds about two copies of the table. Errors name the file and the
        line: a token without a vector, a bad component or a byte that is
        not UTF-8 at once, in file order, and after the whole file is read,
        the first line whose dimension differs from the first line's, whose
        values are not all finite, or whose token came before."""
        linenos: list[int] = []

        def rows() -> Iterator[tuple[str, list[str]]]:
            first = True
            for lineno, line in numbered_lines(path, LexiconError):
                parts = line.split()
                if not parts:
                    continue
                if first:
                    first = False
                    if len(parts) == 2 and _all_ints(parts):
                        continue
                if len(parts) == 1:
                    raise LexiconError(f"{path}:{lineno}: token without vector")
                linenos.append(lineno)
                yield parts[0], parts[1:]
            if not linenos:
                raise LexiconError(f"{path}: embedding table is empty")

        return cls._from_rows(rows(), lambda i: f"{path}:{linenos[i]}: ")

    @classmethod
    def _from_rows(
        cls, rows: Iterable[tuple[str, Sequence]], where: Callable[[int], str]
    ) -> "EmbeddingTable":
        """The table of the non-empty ``(token, values)`` ``rows``, whose
        values are floats or strings that ``float()`` reads. Raises for a
        bad value at once, and after the last row for the first row, in
        order, whose dimension differs from the first row's, whose values
        are not all finite, or whose token came before; ``where(i)``
        prefixes the message for row ``i``."""
        tokens: list[str] = []
        blocks: list[np.ndarray] = []
        dim = bad_dim = bad_width = 0
        for i, (token, values) in enumerate(rows):
            dim = dim or len(values)
            row = i % _BLOCK_ROWS
            if not row:
                blocks.append(np.empty((_BLOCK_ROWS, dim)))
            try:
                if len(values) == dim:
                    blocks[-1][row] = values
                else:  # parsed only so that a bad value on it is raised first
                    np.asarray(values, dtype=float)
                    if not bad_width:
                        bad_dim, bad_width = i, len(values)
            except ValueError as exc:
                raise LexiconError(f"{where(i)}bad vector component: {exc}") from exc
            tokens.append(token)
        n = len(tokens)
        if not n:
            raise LexiconError("embedding table is empty")
        if not bad_width:
            bad_dim = n
        finite = np.concatenate([np.isfinite(block).all(axis=1) for block in blocks])
        non_finite = np.flatnonzero(~finite[:bad_dim])
        bad_value = int(non_finite[0]) if non_finite.size else n
        bad_token = n
        if len(set(tokens)) < n:
            seen: set[str] = set()
            for bad_token, token in enumerate(tokens):
                if token in seen:
                    break
                seen.add(token)
        first = min(bad_dim, bad_value, bad_token)
        if first < n:
            token = tokens[first]
            if first == bad_dim:
                problem = f"embedding for {token!r} has dimension {bad_width}, expected {dim}"
            elif first == bad_value:
                problem = f"embedding for {token!r} has non-finite values"
            else:
                problem = f"duplicate embedding token {token!r}"
            raise LexiconError(where(first) + problem)
        order = sorted(range(n), key=tokens.__getitem__)
        dest = np.empty(n, dtype=np.intp)
        dest[order] = np.arange(n)
        vectors = np.zeros((n + 1, dim))
        for start, block in zip(range(0, n, _BLOCK_ROWS), blocks):
            vectors[dest[start:start + _BLOCK_ROWS]] = block[:n - start]
        vectors.setflags(write=False)
        return cls(index={tokens[i]: row for row, i in enumerate(order)}, vectors=vectors)

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


# Rows per float64 block that an embedding table is read into before its
# rows are scattered into sorted-token order: 1,024 rows of 300 values are
# 2.4 MB, and a table holds at most one partly filled block.
_BLOCK_ROWS = 1 << 10

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

    The search runs over blocks of rows of the unit-vector matrix: the block
    of rows ``[s, e)`` is multiplied only by rows ``s`` onwards, the ones it
    can pair with as ``a < b``, and thresholded in numpy; each pair ``a < b``
    found is added to both sets. That is O(V^2 * dim / 2) arithmetic in all,
    and a block holds at most ``_BLOCK_SIMILARITIES`` similarities (8 MB),
    so the V x V matrix is never formed and memory beyond the vectors and
    the sets stays flat.
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
            block = unit[start:start + rows] @ unit[start:].T
            hits_a, hits_b = np.divmod(np.flatnonzero(block >= tau), block.shape[1])
            upper = hits_a < hits_b
            hits_a, hits_b = hits_a[upper] + start, hits_b[upper] + start
            for a, b in zip(valid[hits_a].tolist(), valid[hits_b].tolist()):
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

    Ties in cosine similarity are broken by lexicographic token order; a
    zero-norm vector has cosine 0 to every word. Each similarity is one
    ``np.dot`` of two rows over norms computed once per row, never a
    matrix-vector product, whose last bit can differ and reorder exact ties.
    """
    if j < 1:
        raise LexiconError(f"j must be >= 1, got {j}")

    rows = list(emb.matrix)
    norms = [math.sqrt(float(np.dot(v, v))) for v in rows]

    def cosine(a: int, b: int) -> float:
        if norms[a] == 0.0 or norms[b] == 0.0:
            return 0.0
        return float(np.dot(rows[a], rows[b])) / (norms[a] * norms[b])

    sets: dict[str, tuple[str, ...]] = {}
    for w in sorted(synonyms):
        members = synonyms[w]
        if len(members) >= j:
            iw = emb.index[w]
            others = sorted(
                (m for m in members if m != w),
                key=lambda m: (-cosine(iw, emb.index[m]), m),
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
    and the overlaps ``o_w``, each computed from the two on its first read.

    A word is perturbable when ``|T_w| >= 2``. Words outside the vocabulary
    get ``S_w = {w}`` and ``T_w = (w,)``. The constructor does not check the
    invariants the certificate relies on; :meth:`validate` lists their
    violations and :meth:`load` refuses a file that has any.
    """

    synonyms: Mapping[str, frozenset[str]]
    perturb: Mapping[str, tuple[str, ...]]
    j: int
    _overlaps: dict[str, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
        """``min over w' in S_w of |T_w intersect T_w'| / |T_w|`` for a
        perturbable ``word``."""
        t_w = self.perturb_set(word)
        t_set = set(t_w)
        ratios = (len(t_set.intersection(self.perturb_set(w2))) / len(t_w)
                  for w2 in self.synonym_set(word))
        return min(ratios, default=1.0)

    def overlap_of(self, word: str) -> float:
        """``o_w``; 1.0 for non-perturbable and out-of-vocabulary words
        (they contribute no slack). A perturbable word's overlap is computed
        on its first read and kept: only a certificate reads overlaps, and
        only its tail documents' words. Concurrent first reads of one word
        may both compute it; they store equal values."""
        if not self.is_perturbable(word):
            return 1.0
        overlap = self._overlaps.get(word)
        if overlap is None:
            overlap = self._overlaps[word] = self._overlap(word)
        return overlap

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
        """The lexicon of :meth:`to_json_dict`'s payload; ``J`` must be a
        JSON integer >= 1, as :func:`build_perturb_dict` requires, and every
        ``synonyms`` and ``perturb`` entry a JSON list of strings. Each word
        is one string object, as a key and in every set that holds it:
        ``json`` shares equal keys but makes a new string for every list
        member."""
        j = json_field(payload, "J", int)
        if j < 1:
            raise ValueError(f"field 'J' must be >= 1, got {j}")
        words: dict[str, str] = {}
        shared = words.setdefault
        return cls(
            synonyms={shared(w, w): frozenset(map(shared, s, s))
                      for w, s in _word_lists(payload, "synonyms").items()},
            perturb={shared(w, w): tuple(map(shared, t, t))
                     for w, t in _word_lists(payload, "perturb").items()},
            j=j,
        )

    def save(self, path: str | Path) -> None:
        """Write :meth:`to_json_dict` as ``indent=2``, ``sort_keys``,
        ASCII-escaped JSON with a final newline: the bytes of
        ``json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)``
        followed by ``"\\n"``, the same for the same lexicon on every build."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_lexicon_text(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Lexicon":
        """Read a lexicon file and validate it.

        Raises :class:`LexiconError` naming the line of a byte that is not
        UTF-8, when the file is not JSON or a key is missing or malformed,
        and one listing the violations when the file breaks an invariant.
        Keys other than ``J``, ``synonyms`` and ``perturb`` are ignored,
        the ``perturbable`` flags of older files among them: ``|T_w| >= 2``
        alone makes a word perturbable.
        """
        text = read_text(path, LexiconError)
        try:
            lexicon = cls.from_json_dict(json.loads(text))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise LexiconError(f"{path}: malformed lexicon file: {exc!r}") from exc
        problems = lexicon.validate()
        if problems:
            shown = "; ".join(problems[:_SHOWN_PROBLEMS])
            more = len(problems) - _SHOWN_PROBLEMS
            raise LexiconError(
                f"{path}: lexicon fails validation with {len(problems)} violation(s): {shown}"
                + (f"; and {more} more" if more > 0 else "")
            )
        return lexicon


def _word_lists(payload: Mapping, name: str) -> Mapping[str, list[str]]:
    """``payload[name]``, each of whose values must be a JSON list of
    strings, so that a string is not split into letters and a ``null`` or a
    number does not reach :meth:`Lexicon.validate`."""
    entries = payload[name]
    values = entries.values()
    if not (set(map(type, values)) <= {list}
            and set(map(type, itertools.chain.from_iterable(values))) <= {str}):
        word, members = next((w, m) for w, m in entries.items()
                             if type(m) is not list or not all(type(x) is str for x in m))
        raise ValueError(f"entry {word!r} of {name!r} must be a JSON list of strings, "
                         f"got {members!r}")
    return entries


def _lexicon_text(payload: Mapping) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"`` for a payload
    shaped like :meth:`Lexicon.to_json_dict`: each value a number or a
    mapping from word to a list of words. Strings go through the C
    ``encode_basestring_ascii`` that the pure-Python indenting encoder also
    calls, and each word's entry is joined in one piece."""

    def value(v) -> str:
        if not isinstance(v, Mapping):
            return json.dumps(v)
        entries = []
        for w, members in sorted(v.items()):
            body = ",\n      ".join(map(encode_basestring_ascii, members))
            entries.append(f"    {encode_basestring_ascii(w)}: "
                           + (f"[\n      {body}\n    ]" if members else "[]"))
        return "{\n" + ",\n".join(entries) + "\n  }" if entries else "{}"

    fields = (f"  {encode_basestring_ascii(k)}: {value(v)}" for k, v in sorted(payload.items()))
    return "{\n" + ",\n".join(fields) + "\n}\n"
