"""Corpus, query, run, and qrels I/O with deterministic tokenization."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

logger = logging.getLogger(__name__)

_NON_WORD = re.compile(r"[^\w\s]+")


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, strip punctuation, split on whitespace."""
    return tuple(_NON_WORD.sub(" ", text.lower()).split())


@dataclass(frozen=True, slots=True)
class Document:
    """A tokenized document ``(w_1, ..., w_M)`` with at least one token."""

    id: str
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError(f"document {self.id!r} has no tokens")

    @property
    def length(self) -> int:
        return len(self.tokens)

    def with_tokens(self, tokens: Iterable[str]) -> "Document":
        """Copy of this document with replaced token sequence."""
        return Document(self.id, tuple(tokens))


@dataclass(frozen=True, slots=True)
class Query:
    id: str
    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError(f"query {self.id!r} has no tokens")


@dataclass(frozen=True, slots=True)
class RankEntry:
    doc_id: str
    score: float


@dataclass(frozen=True)
class RankedList:
    """Ordered candidate list for one query, best score first.

    Rank positions are 1-based. Scores must be non-increasing and doc ids
    unique; use :func:`make_ranked` to build one from unsorted pairs.
    """

    query_id: str
    entries: tuple[RankEntry, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        prev = None
        for e in self.entries:
            if e.doc_id in seen:
                raise ValueError(
                    f"duplicate doc id {e.doc_id!r} in ranked list for query "
                    f"{self.query_id!r}"
                )
            seen.add(e.doc_id)
            if prev is not None and e.score > prev:
                raise ValueError(
                    f"scores not non-increasing in ranked list for query "
                    f"{self.query_id!r}"
                )
            prev = e.score

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(e.doc_id for e in self.entries)

    def rank_of(self, doc_id: str) -> int:
        """1-based rank of ``doc_id``; raises ``KeyError`` if absent."""
        for i, e in enumerate(self.entries, start=1):
            if e.doc_id == doc_id:
                return i
        raise KeyError(doc_id)

    def entry_at(self, rank: int) -> RankEntry:
        """Entry at 1-based ``rank``."""
        if not 1 <= rank <= len(self.entries):
            raise IndexError(f"rank {rank} out of range 1..{len(self.entries)}")
        return self.entries[rank - 1]

    def tail(self, k: int) -> tuple[RankEntry, ...]:
        """Entries ranked strictly below position ``k``."""
        return self.entries[k:]


def make_ranked(query_id: str, scored: Iterable[tuple[str, float]]) -> RankedList:
    """Canonical ranked list: score descending, ties by doc id ascending."""
    entries = tuple(
        RankEntry(doc_id, float(score))
        for doc_id, score in sorted(scored, key=lambda p: (-p[1], p[0]))
    )
    return RankedList(query_id, entries)


def load_corpus(path: str | Path) -> dict[str, Document]:
    """Load a JSONL corpus of ``{"id": ..., "text": ...}`` objects.

    ``text`` must be a JSON string and ``id`` a JSON string or integer (an
    integer id ``7`` is the doc id ``"7"``); any other value is an error
    naming the line and the field. Equal words share one string object
    across the whole corpus, so memory holds one pointer per token plus
    the vocabulary, not a string per occurrence."""
    docs: dict[str, Document] = {}
    words: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
                raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict) or "id" not in obj or "text" not in obj:
                raise ValueError(f"{path}:{lineno}: expected object with 'id' and 'text'")
            raw_id, text = obj["id"], obj["text"]
            if type(raw_id) not in (str, int):
                raise ValueError(f"{path}:{lineno}: field 'id' must be a JSON string or "
                                 f"integer, got {raw_id!r}")
            if type(text) is not str:
                raise ValueError(f"{path}:{lineno}: field 'text' must be a JSON string, "
                                 f"got {text!r}")
            doc_id = str(raw_id)
            if doc_id in docs:
                raise ValueError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
            tokens = tokenize(text)
            if not tokens:
                raise ValueError(f"{path}:{lineno}: document {doc_id!r} tokenizes to nothing")
            docs[doc_id] = Document(doc_id, tuple(map(words.setdefault, tokens, tokens)))
    return docs


def load_queries(path: str | Path) -> dict[str, Query]:
    """Load TSV queries, one ``qid<TAB>text`` per line."""
    queries: dict[str, Query] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'qid<TAB>text'")
            qid, text = parts
            if qid in queries:
                raise ValueError(f"{path}:{lineno}: duplicate query id {qid!r}")
            tokens = tokenize(text)
            if not tokens:
                raise ValueError(f"{path}:{lineno}: query {qid!r} tokenizes to nothing")
            queries[qid] = Query(qid, tokens)
    return queries


def load_run(path: str | Path) -> dict[str, RankedList]:
    """Load a 6-column run file: ``qid Q0 docid rank score tag``.

    Entries are re-sorted by score descending (doc id breaks ties) and rank
    positions re-derived from the sorted order. Input rank fields that
    disagree with the score order trigger a warning, not an error; a score
    that is NaN or infinite is an error, since it has no place in that order,
    and so is a document listed twice for one query.
    """
    rows: dict[str, list[tuple[str, int, float]]] = {}
    first_line: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 columns, got {len(parts)}")
            qid, _, doc_id, rank_s, score_s, _tag = parts
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad rank/score: {exc}") from exc
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: score {score_s!r} is not finite")
            first = first_line.setdefault((qid, doc_id), lineno)
            if first != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate document {doc_id!r} for query "
                                 f"{qid!r} (first on line {first})")
            rows.setdefault(qid, []).append((doc_id, rank, score))

    run: dict[str, RankedList] = {}
    for qid, entries in rows.items():
        by_input_rank = sorted(entries, key=lambda r: r[1])
        scores_in_rank_order = [r[2] for r in by_input_rank]
        if any(a < b for a, b in zip(scores_in_rank_order, scores_in_rank_order[1:])):
            logger.warning("run %s query %s: input ranks disagree with scores, re-sorting", path, qid)
        run[qid] = make_ranked(qid, [(doc_id, score) for doc_id, _, score in entries])
    return run


def write_run(run: Mapping[str, RankedList], path: str | Path, tag: str = "rankcert") -> None:
    """Write ranked lists in canonical 6-column run format, sorted by query id,
    each score by ``repr`` so that ``load_run`` reads back the same list."""
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(run):
            for rank, e in enumerate(run[qid].entries, start=1):
                fh.write(f"{qid} Q0 {e.doc_id} {rank} {e.score!r} {tag}\n")


def load_qrels(path: str | Path) -> dict[str, frozenset[str]]:
    """Load 4-column qrels ``qid 0 docid rel``; relevant means rel > 0."""
    rel: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
            qid, _, doc_id, rel_s = parts
            try:
                grade = int(rel_s)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad relevance grade: {exc}") from exc
            if grade > 0:
                rel.setdefault(qid, set()).add(doc_id)
            else:
                rel.setdefault(qid, set())
    return {qid: frozenset(ids) for qid, ids in rel.items()}


def json_field(
    payload: Mapping, name: str, kind: type[bool] | type[int] | type[float] | type[str]
) -> bool | int | float | str:
    """``payload[name]``, which must be a JSON boolean (``kind=bool``),
    integer (``kind=int``), number (``kind=float``, returned as a
    ``float``) or string (``kind=str``); a boolean is neither an integer nor
    a number. Anything else, such as ``"false"``, ``2.7`` for an integer,
    ``true`` for a number or ``null`` for a string, raises a ``ValueError``
    naming the field instead of being coerced."""
    value = payload[name]
    if kind is float and type(value) in (int, float):
        return float(value)
    if type(value) is not kind:
        what = {bool: "boolean", int: "integer", float: "number", str: "string"}[kind]
        raise ValueError(f"field {name!r} must be a JSON {what}, got {value!r}")
    return value


def corpus_fingerprint(corpus: Mapping[str, Document]) -> str:
    """Stable hash of a corpus, for cache keying."""
    h = hashlib.sha256()
    for doc_id in sorted(corpus):
        h.update(doc_id.encode("utf-8"))
        h.update(b"\x00")
        h.update(" ".join(corpus[doc_id].tokens).encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()
