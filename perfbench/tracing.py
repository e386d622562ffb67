"""In-memory span tracing of rankcert's layers, installed from outside.

Nothing under ``src/`` knows about tracing. :func:`install` replaces the
public functions and methods of each rankcert module with wrappers that
record a span per call. A module-level function is replaced in every
rankcert module that holds a binding to it (``rankcert.cli.smooth_rank`` and
``rankcert.smoothing.smooth_rank`` are separate names for one function, and
the CLI looks up the first); methods are replaced on their class.

A span is ``(id, parent id, name, query id, thread id, start, end, key)``.
The parent is the innermost open span of the same thread, and a span with
no query id of its own inherits its parent's. Spans stay in memory until
:meth:`Tracer.write` is called.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from typing import Callable

Span = tuple  # (id, parent, name, qid, thread, start, end, key)

_ID, _PARENT, _NAME, _QID, _THREAD, _START, _END, _KEY = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, qid_of: Callable | None = None,
             key_of: Callable | None = None) -> Callable:
        """``fn`` recording one span named ``name`` per call. ``qid_of`` and
        ``key_of`` map ``(args, kwargs)`` to the span's query id and key."""
        spans, ids, local = self.spans, self._ids, self._local
        clock, thread_id = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent_id, qid = stack[-1] if stack else (0, None)
            if qid_of is not None:
                qid = qid_of(args, kwargs) or qid
            key = key_of(args, kwargs) if key_of is not None else None
            sid = next(ids)
            stack.append((sid, qid))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent_id, name, qid, thread_id(), start, end, key))

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module_name: str, attr: str, name: str, **kw) -> None:
        """Wrap ``module.attr`` and rebind it in every rankcert module that
        holds the same function object."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = self.wrap(name, original, **kw)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "rankcert" or mod_name.startswith("rankcert."):
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, binding, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(self.wrap(name, raw.__func__, **kw)))
        else:
            self._set(cls, attr, self.wrap(name, raw, **kw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------

    def write(self, path, origin: float) -> None:
        """Write every span as a TSV row, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tquery_id\tthread\tstart_s\tend_s\n")
            for s in sorted(self.spans, key=lambda s: s[_START]):
                fh.write(f"{s[_ID]}\t{s[_PARENT]}\t{s[_NAME]}\t{s[_QID] or ''}\t{s[_THREAD]}\t"
                         f"{s[_START] - origin:.9f}\t{s[_END] - origin:.9f}\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every rankcert layer the CLI uses."""
    import rankcert.cli as cli
    from rankcert.corpus import Document, Query
    from rankcert.lexicon import EmbeddingTable, Lexicon
    from rankcert.rankers import Bm25Model, LinearEmbedScorer
    from rankcert.smoothing import PerturbationSampler, SmoothedModel

    def query_id(args, kwargs):
        for value in itertools.chain(args, kwargs.values()):
            if isinstance(value, Query):
                return value.id
        return None

    def estimate_key(args, kwargs):
        """(query id, document tokens) of a ``smoothed_score_mc`` call."""
        doc = next(v for v in itertools.chain(args, kwargs.values()) if isinstance(v, Document))
        return (query_id(args, kwargs), doc.tokens)

    q = {"qid_of": query_id}
    tracer.patch_method(EmbeddingTable, "load", "lexicon.embeddings_load")
    tracer.patch_method(Lexicon, "build", "lexicon.build")
    tracer.patch_method(Lexicon, "validate", "lexicon.validate")
    tracer.patch_method(Lexicon, "save", "lexicon.save")
    tracer.patch_method(Lexicon, "load", "lexicon.load")
    tracer.patch_function("rankcert.corpus", "load_corpus", "corpus.load_corpus")
    tracer.patch_function("rankcert.corpus", "load_queries", "corpus.load_queries")
    tracer.patch_function("rankcert.corpus", "load_run", "corpus.load_run")
    tracer.patch_function("rankcert.corpus", "corpus_fingerprint", "corpus.fingerprint")
    tracer.patch_method(LinearEmbedScorer, "score", "rankers.score")
    tracer.patch_method(Bm25Model, "score", "rankers.score")
    tracer.patch_method(Bm25Model, "from_corpus", "rankers.bm25_from_corpus")
    tracer.patch_method(Bm25Model, "calibrated", "rankers.bm25_calibrated")
    tracer.patch_function("rankcert.smoothing", "derive_streams", "smoothing.derive_streams")
    tracer.patch_method(PerturbationSampler, "sample", "smoothing.sample")
    tracer.patch_function("rankcert.smoothing", "smoothed_score_mc", "smoothing.mc",
                          key_of=estimate_key, **q)
    tracer.patch_function("rankcert.smoothing", "smooth_rank", "smoothing.smooth_rank", **q)
    tracer.patch_method(SmoothedModel, "score", "smoothing.smoothed_model_score", **q)
    tracer.patch_function("rankcert.certify", "certify_topk", "certify.topk", **q)
    tracer.patch_function("rankcert.attack", "greedy_attack", "attack.greedy", **q)

    # The CLI fans queries out with ``pool.map(work, qids)``; a pool whose
    # map wraps ``work`` gives one span per query.
    base_pool = cli.ThreadPoolExecutor

    class TracedPool(base_pool):
        def map(self, fn, *iterables, **kwargs):
            wrapped = tracer.wrap("cli.query", fn, qid_of=lambda a, k: a[0])
            return super().map(wrapped, *iterables, **kwargs)

    tracer._set(cli, "ThreadPoolExecutor", TracedPool)


# -- aggregation -------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def tail_percentile(count: int) -> float | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it, or
    None when ``count`` supports none of them."""
    best = None
    for per_mille in (500, 900, 990, 999):
        if count * (1000 - per_mille) >= 10_000:
            best = per_mille / 10
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def query_latencies(spans: list[Span]) -> list[float]:
    return [s[_END] - s[_START] for s in spans if s[_NAME] == "cli.query"]


def layer_metrics(spans: list[Span], jobs: int) -> dict[str, float]:
    """Per-layer counts, busy times, self times and ratios of one traced
    command. Self time is a span's duration minus the part of it that its
    child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s[_PARENT]].append(s)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s[_NAME]].append(s)

    def total(name: str) -> float:
        return sum(s[_END] - s[_START] for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(
            (s[_END] - s[_START]) - _union_length([(c[_START], c[_END]) for c in children[s[_ID]]])
            for s in by_name[name]
        )

    def child_count(name: str, child_names: set[str]) -> int:
        return sum(1 for s in by_name[name] for c in children[s[_ID]] if c[_NAME] in child_names)

    command = total("cli.command")
    mc = by_name["smoothing.mc"]
    model_calls = by_name["smoothing.smoothed_model_score"]
    memo_hits = sum(
        1 for s in model_calls if not any(c[_NAME] == "smoothing.mc" for c in children[s[_ID]])
    )
    queries = query_latencies(spans)
    return {
        "lexicon.build_s": total("lexicon.build"),
        "lexicon.load_s": total("lexicon.load"),
        "corpus.load_s": total("corpus.load_corpus") + total("corpus.load_queries") + total("corpus.load_run"),
        "corpus.fingerprint_s": total("corpus.fingerprint"),
        "rankers.score_calls": len(by_name["rankers.score"]),
        "rankers.score_s": total("rankers.score"),
        "rankers.score_share": total("rankers.score") / command if command else 0.0,
        "rankers.bm25_fit_s": total("rankers.bm25_from_corpus") + total("rankers.bm25_calibrated"),
        "smoothing.mc_calls": len(mc),
        "smoothing.mc_s": total("smoothing.mc"),
        "smoothing.mc_self_s": self_time("smoothing.mc"),
        "smoothing.streams_s": total("smoothing.derive_streams"),
        "smoothing.sample_s": total("smoothing.sample"),
        "smoothing.samples": len(by_name["smoothing.sample"]),
        "smoothing.unique_estimate_ratio": len({s[_KEY] for s in mc}) / len(mc) if mc else 0.0,
        "smoothing.memo_hit_ratio": memo_hits / len(model_calls) if model_calls else 0.0,
        "certify.topk_s": total("certify.topk"),
        "certify.topk_self_s": self_time("certify.topk"),
        "certify.reestimate_calls": child_count("certify.topk", {"smoothing.mc"}),
        "attack.greedy_s": total("attack.greedy"),
        "attack.greedy_self_s": self_time("attack.greedy"),
        "attack.trials": child_count("attack.greedy", {"smoothing.smoothed_model_score", "rankers.score"}),
        "cli.jobs_efficiency": sum(queries) / (jobs * command) if command else 0.0,
        "cli.command_s": command,
    }
