"""Random word-substitution smoothing and its Monte Carlo estimation.

A document ``d = (w_1, ..., w_M)`` induces a product perturbation
distribution: every position ``i`` is resampled independently and uniformly
from its perturbation set ``T_{w_i}``. The smoothed score of a base model
``f`` is the expectation of ``f(q, R)`` over that distribution, estimated
either exactly (full enumeration of small spaces) or by Monte Carlo with a
Hoeffding confidence radius per estimate.

A :class:`SmoothedModel` is one smoothed ranker and the only holder of the
smoothing settings: the base model, the lexicon, ``n`` (``None`` for exact
enumeration), ``alpha``, the root seed and the Hoeffding radius they give,
all checked once at construction. :func:`smoothed_score_mc`,
:func:`smooth_rank` and ``certify.certify_topk`` take the model and read
every setting from it.

Randomness is derived, never shared: a root seed plus hashes of the query
id, document id, and token sequence seed one generator per estimate. The
estimate draws its ``n`` samples from it with one ``integers`` call, as an
``(n, M)`` matrix of picks; that call gives the same values, and leaves the
generator in the same state, as ``n`` one-row draws in order. One
``SmoothedModel`` helper applies that rule for the per-draw and the batched
estimates alike. An estimate runs on one thread, so estimates are
reproducible and safe to compute concurrently across queries and documents.

Base scores must lie in [0, 1], the range the Hoeffding radius assumes; exact
and Monte Carlo smoothing both reject a score outside it, NaN included, with
a ``ValueError`` naming the query and the document.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Document, Query, RankedList
from .lexicon import Lexicon
from .rankers import ScoreModel, rank

ENUMERATION_CAP = 10**6
"""Largest perturbation space the exact estimator enumerates; a larger one
needs Monte Carlo estimation."""

_SEED_MASK = (1 << 64) - 1

# Sample rows that SmoothedModel.score_many scores in one score_batch call:
# the stacked draws of 256 // n estimates, or of one when n >= 256.
_BLOCK_ROWS = 256

# Draws whose words smoothed_score_mc gathers with one fancy index. A small
# block keeps the gathered word lists, one per token of each draw, to a few
# thousand pointers; gathering all n draws at once raised the peak memory
# of a 200-token, n=500 certify run by about 2 MB.
_GATHER_ROWS = 64


def hoeffding_radius(n: int, alpha: float) -> float:
    """Two-sided Hoeffding deviation bound for a mean of [0, 1] samples:
    ``sqrt(ln(2 / alpha) / (2 n))`` holds with probability >= 1 - alpha."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@dataclass(frozen=True)
class SmoothedScore:
    """A smoothed-score estimate with its confidence radius."""

    mean: float
    n: int
    radius: float

    @classmethod
    def exact(cls, mean: float) -> "SmoothedScore":
        return cls(mean=mean, n=0, radius=0.0)


def _entropy(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def token_fingerprint(tokens: Sequence[str]) -> int:
    return _entropy("\x00".join(tokens))


def derive_streams(
    root_seed: int, query_id: str, doc_id: str, tokens: Sequence[str]
) -> np.random.Generator:
    """The generator of one estimate, reproducible from the (root seed,
    query id, doc id, token sequence) tuple; the estimate draws all its
    samples from it in order."""
    return np.random.default_rng(
        np.random.SeedSequence(
            [root_seed & _SEED_MASK, _entropy(query_id), _entropy(doc_id), token_fingerprint(tokens)]
        )
    )


@dataclass(frozen=True)
class PerturbationSampler:
    """Draws documents from the product perturbation distribution.

    :meth:`table` flattens the perturbation sets of a token sequence, once
    per sequence, into an object array of their member words with the int32
    set sizes and offsets. :meth:`picks` draws many samples as rows of
    indices into those members with one ``integers`` call; indexing the
    members with a row gathers the draw's words, and :meth:`sample` makes
    them its document.
    """

    lexicon: Lexicon
    _tables: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def table(self, tokens: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(the member words of every ``T_w`` of ``tokens`` in order, as an
        object array; the int32 set sizes; the int32 set offsets into the
        members), built from ``lexicon.perturb_set`` on the first call for
        a token tuple."""
        table = self._tables.get(tokens)
        if table is None:
            sets = list(map(self.lexicon.perturb_set, tokens))
            sizes = np.fromiter(map(len, sets), dtype=np.int32, count=len(sets))
            ends = np.cumsum(sizes, dtype=np.int32)
            members = np.array(list(itertools.chain.from_iterable(sets)), dtype=object)
            table = self._tables[tokens] = (members, sizes, ends - sizes)
        return table

    def picks(self, doc: Document, rng: np.random.Generator, n: int) -> np.ndarray:
        """An ``(n, M)`` int32 matrix whose row ``i`` holds the indices of
        draw ``i`` into the members of ``table(doc.tokens)``. Its values,
        and the state it leaves ``rng`` in, are those of ``n`` calls to
        ``rng.integers(0, sizes)`` in order."""
        _, sizes, offsets = self.table(doc.tokens)
        picks = rng.integers(0, sizes, size=(n, len(sizes)), dtype=np.int32)
        picks += offsets
        return picks

    def sample(self, doc: Document, words: Iterable[str]) -> Document:
        """The draw of ``doc`` whose words ``words`` are, in order: one row of
        :meth:`picks` for ``doc`` gathered from ``table(doc.tokens)``'s
        members."""
        return doc.with_tokens(words)


def enumerate_perturbations(doc: Document, lexicon: Lexicon) -> Iterator[tuple[str, ...]]:
    """All joint perturbations of ``doc`` as token tuples, in a fixed order."""
    size = lexicon.space_size(doc.tokens)
    if size > ENUMERATION_CAP:
        raise ValueError(
            f"perturbation space of {doc.id!r} has {size} outcomes, above the cap "
            f"of {ENUMERATION_CAP}; use Monte Carlo estimation instead"
        )
    return itertools.product(*(lexicon.perturb_set(w) for w in doc.tokens))


def smoothed_score_mc(smoothed: SmoothedModel, query: Query, doc: Document) -> SmoothedScore:
    """Monte Carlo estimate of the smoothed score of ``smoothed``, a model
    with ``n`` set, from its ``n`` i.i.d. draws: one pick matrix from the
    estimate's one derived stream, and per draw, in order, one ``sample``
    and one base ``score`` call. The words of ``_GATHER_ROWS`` draws at a
    time are gathered from the document's members with one index.

    The sample scores are reduced in a fixed order, so the result is
    bit-stable regardless of how callers parallelize across documents.
    """
    if smoothed.n is None:
        raise ValueError("smoothed_score_mc needs a Monte Carlo SmoothedModel, got n=None")
    sampler = PerturbationSampler(smoothed.lexicon)
    members = sampler.table(doc.tokens)[0]
    picks = smoothed._picks(sampler, query, doc)

    def draws() -> Iterator[float]:
        for start in range(0, len(picks), _GATHER_ROWS):
            for words in members[picks[start:start + _GATHER_ROWS]].tolist():
                yield smoothed.base.score(query, sampler.sample(doc, words))

    scores = np.fromiter(draws(), dtype=float, count=smoothed.n)
    (mean,) = _run_means(scores, query, [doc])
    return SmoothedScore(mean=mean, n=smoothed.n, radius=smoothed.radius)


def _run_means(scores: np.ndarray, query: Query, docs: Sequence[Document]) -> list[float]:
    """The mean of each document's run of ``len(scores) // len(docs)``
    consecutive scores, after rejecting any score outside [0, 1] (NaN
    included) with an error naming the first document that has one."""
    outside = np.flatnonzero(~((scores >= 0.0) & (scores <= 1.0)))
    if outside.size:
        first = int(outside[0])
        raise _out_of_range(float(scores[first]), query, docs[first // (len(scores) // len(docs))])
    return scores.reshape(len(docs), -1).mean(axis=1).tolist()


def _out_of_range(score: float, query: Query, doc: Document) -> ValueError:
    return ValueError(
        f"base score {score!r} for query {query.id!r}, document {doc.id!r} is outside "
        "[0, 1]; the smoothed score and its confidence bound need scores in [0, 1]"
    )


class SmoothedModel(ScoreModel):
    """The smoothed ranker: a base model, the lexicon it is smoothed over,
    and how its scores are estimated, with the smoothed score as ``score``.

    With ``n=None`` the expectation is exact: the in-order sum of the base
    scores of every equally likely outcome of ``enumerate_perturbations``
    (at most ``ENUMERATION_CAP``) over the size of the space, each base
    score memoized per query by its token tuple. Otherwise it is estimated
    by Monte Carlo from ``n`` draws of per-document derived streams seeded
    by ``root_seed``, each with the Hoeffding radius ``radius`` at level
    ``alpha`` (``n`` and ``alpha`` are checked here; ``radius`` is 0.0 when
    exact). Results are memoized by (query id, doc id, token tuple),
    the same inputs the Monte Carlo streams derive from; concurrent readers
    may race on the memos but always write identical values.
    """

    def __init__(
        self,
        base: ScoreModel,
        lexicon: Lexicon,
        n: int | None,
        alpha: float = 0.05,
        root_seed: int = 0,
    ) -> None:
        self.radius = 0.0 if n is None else hoeffding_radius(n, alpha)
        self.base = base
        self.lexicon = lexicon
        self.n = n
        self.alpha = alpha
        self.root_seed = root_seed
        self._memo: dict[tuple[str, str, tuple[str, ...]], float] = {}
        self._base_scores: dict[str, dict[tuple[str, ...], float]] = {}

    def _picks(self, sampler: PerturbationSampler, query: Query, doc: Document) -> np.ndarray:
        """The ``(n, M)`` pick matrix of the estimate of ``doc`` for
        ``query``, drawn from that estimate's one derived stream."""
        rng = derive_streams(self.root_seed, query.id, doc.id, doc.tokens)
        return sampler.picks(doc, rng, self.n)

    def substitution_key(self, word: str) -> tuple[str, ...]:
        """``T_w`` as a sorted tuple, the multiset of draws at the word's
        position: the smoothed score sees a word only through it, so words
        with equal multisets give documents with the same distribution."""
        return tuple(sorted(self.lexicon.perturb_set(word)))

    def score(self, query: Query, doc: Document) -> float:
        key = (query.id, doc.id, doc.tokens)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if self.n is None:
            # Each base score is range-checked before the per-query memo
            # stores it, so a rejected score is never read back.
            base_scores = self._base_scores.setdefault(query.id, {})
            total = 0.0
            for tokens in enumerate_perturbations(doc, self.lexicon):
                s = base_scores.get(tokens)
                if s is None:
                    s = self.base.score(query, Document(doc.id, tokens))
                    if not 0.0 <= s <= 1.0:
                        raise _out_of_range(s, query, doc)
                    base_scores[tokens] = s
                total += s
            value = total / self.lexicon.space_size(doc.tokens)
        else:
            value = smoothed_score_mc(self, query, doc).mean
        self._memo[key] = value
        return value

    def score_many(self, query: Query, docs: Sequence[Document]) -> list[float]:
        """``score`` of each document, in order, filling the same memo.

        Each Monte Carlo estimate draws the same pick matrix from the same
        stream as ``smoothed_score_mc``. The estimates a call misses, a
        repeated document once, are cut in ``docs`` order into consecutive
        runs of one document id and length, as a greedy step's trials come,
        and each run into blocks of ``_BLOCK_ROWS // n`` estimates (one when
        ``n >= _BLOCK_ROWS``). A block's member tables are concatenated, each
        estimate's picks shifted by where its table starts, and the stacked
        rows scored with one ``base.score_batch`` call; each estimate's mean
        is taken over its own ``n`` rows, which gives the same mean as
        scoring it alone. The memo is filled in ``docs`` order. A base score
        outside [0, 1] raises naming its document; no estimate of its block
        is memoized.
        """
        if self.n is None:
            return super().score_many(query, docs)
        misses = dict.fromkeys(d for d in docs if (query.id, d.id, d.tokens) not in self._memo)
        per_block = max(1, _BLOCK_ROWS // self.n)
        sampler = PerturbationSampler(self.lexicon)
        for _, same_doc in itertools.groupby(misses, key=lambda d: (d.id, d.length)):
            run = list(same_doc)
            for start in range(0, len(run), per_block):
                block = run[start:start + per_block]
                members = [sampler.table(doc.tokens)[0] for doc in block]
                offsets = itertools.accumulate(map(len, members), initial=0)
                rows = [self._picks(sampler, query, doc) + offset
                        for doc, offset in zip(block, offsets)]
                scores = self.base.score_batch(query, block[0], np.concatenate(members),
                                               np.concatenate(rows))
                for doc, mean in zip(block, _run_means(scores, query, block)):
                    self._memo[(query.id, doc.id, doc.tokens)] = mean
        return [self._memo[(query.id, doc.id, doc.tokens)] for doc in docs]


def smooth_rank(smoothed: SmoothedModel, query: Query, docs: Sequence[Document]) -> RankedList:
    """Rank candidates by the smoothed score of ``smoothed``. Ties break by
    doc id ascending."""
    return rank(smoothed, query, docs)
