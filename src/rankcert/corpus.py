"""Corpus, query, run, and qrels I/O with deterministic tokenization."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Container, Iterable, Iterator, Mapping, Sequence

logger = logging.getLogger(__name__)

_NON_WORD = re.compile(r"[^\w\s]+")

# The rule of tokenize for one ASCII character: A-Z lowered, a character
# that is neither a word character nor whitespace made a space. str.lower is
# per-character on ASCII text only, so the table serves ASCII text alone.
_ASCII_FOLD = {c: " " if _NON_WORD.match(chr(c)) else chr(c).lower() for c in range(128)}


def tokenize(text: str) -> tuple[str, ...]:
    """The words of ``text``: ``text.lower()`` with every run of characters
    that are neither word characters (``\\w``) nor whitespace replaced by a
    space, split on whitespace, so ``"Don't"`` gives ``("don", "t")``. ASCII
    text takes one ``str.translate`` by the same rule; any other text the
    regular expression."""
    if text.isascii():
        return tuple(text.translate(_ASCII_FOLD).split())
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


@dataclass(frozen=True)
class CorpusStats:
    """What BM25 needs from every document of a corpus: the number of
    documents, their total length in tokens, and for each word the number
    of documents that hold it."""

    n_docs: int
    total_len: int
    doc_freq: dict[str, int]

    @classmethod
    def count(cls, token_seqs: Iterable[Sequence[str]]) -> "CorpusStats":
        """The statistics of the documents whose tokens ``token_seqs``
        gives, counted in order."""
        df: Counter[str] = Counter()
        n_docs = total_len = 0
        for tokens in token_seqs:
            n_docs += 1
            total_len += len(tokens)
            df.update(set(tokens))
        return cls(n_docs=n_docs, total_len=total_len, doc_freq=dict(df))


class Corpus(dict[str, Document]):
    """The documents :func:`load_corpus` kept, by id, and in ``stats`` the
    statistics of every document it read, kept or not."""

    __slots__ = ("stats",)
    stats: CorpusStats


def load_corpus(path: str | Path, keep: Container[str] | None = None) -> Corpus:
    """Load a JSONL corpus of ``{"id": ..., "text": ...}`` objects, holding
    the documents whose ids are in ``keep`` (every document when ``keep`` is
    ``None``) and counting the :class:`CorpusStats` of all of them.

    Every line is checked, kept or not: ``text`` must be a JSON string that
    tokenizes to something and ``id`` a unique JSON string or integer (an
    integer id ``7`` is the doc id ``"7"``); anything else is an error
    naming the line and the field. Equal words share one string object
    across the held documents, so memory holds one pointer per token plus
    their vocabulary, not a string per occurrence; a document that is not
    held is counted from its own tokens and dropped."""
    docs = Corpus()
    seen: set[str] = set()
    words: dict[str, str] = {}

    def documents() -> Iterator[tuple[str, ...]]:
        for lineno, line in numbered_lines(path):
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
            if doc_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate document id {doc_id!r}")
            seen.add(doc_id)
            tokens = tokenize(text)
            if not tokens:
                raise ValueError(f"{path}:{lineno}: document {doc_id!r} tokenizes to nothing")
            if keep is None or doc_id in keep:
                tokens = tuple(map(words.setdefault, tokens, tokens))
                docs[doc_id] = Document(doc_id, tokens)
            yield tokens

    docs.stats = CorpusStats.count(documents())
    return docs


def load_queries(path: str | Path) -> dict[str, Query]:
    """Load TSV queries, one ``qid<TAB>text`` per line."""
    queries: dict[str, Query] = {}
    for lineno, line in numbered_lines(path):
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
    for lineno, line in numbered_lines(path):
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
    for lineno, line in numbered_lines(path):
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


def numbered_lines(
    path: str | Path, error: type[ValueError] = ValueError
) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for every line of the UTF-8 text file
    ``path``, numbered from 1 as a text-mode read splits them. A byte that
    does not decode raises ``error`` naming its line (see :func:`_utf8`)."""
    with open(path, encoding="utf-8") as fh, _utf8(path, error):
        yield from enumerate(fh, start=1)


def read_text(path: str | Path, error: type[ValueError] = ValueError) -> str:
    """The text of the UTF-8 file ``path``, as a text-mode read gives it. A
    byte that does not decode raises ``error`` naming its line (see
    :func:`_utf8`)."""
    with open(path, encoding="utf-8") as fh, _utf8(path, error):
        return fh.read()


@contextmanager
def _utf8(path: str | Path, error: type[ValueError]) -> Iterator[None]:
    """Re-raise a ``UnicodeDecodeError`` met while reading ``path`` as
    ``error``, ``<path>:<line>: not UTF-8 text: ...``, naming the line and
    column of the file's first byte that does not decode: only then are the
    file's bytes read, and ``\\n``, ``\\r\\n`` and ``\\r`` each end a line
    there, as they do in a text-mode read."""
    try:
        yield
    except UnicodeDecodeError as exc:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as first:
            lines = (data[:first.start] + b"x").splitlines()
            raise error(f"{path}:{len(lines)}: not UTF-8 text: byte "
                        f"{data[first.start]:#04x} at column {len(lines[-1])}: "
                        f"{first.reason}") from exc
        raise


def corpus_fingerprint(corpus: Mapping[str, Document]) -> str:
    """Stable hash of a corpus, for cache keying."""
    h = hashlib.sha256()
    for doc_id in sorted(corpus):
        h.update(doc_id.encode("utf-8"))
        h.update(b"\x00")
        h.update(" ".join(corpus[doc_id].tokens).encode("utf-8"))
        h.update(b"\x01")
    return h.hexdigest()
