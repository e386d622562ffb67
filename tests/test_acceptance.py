"""Acceptance suite: every shipped guarantee, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
on success). The randomized criteria use fixed master seeds, so results are
reproducible run to run.
"""

import functools
import json
import time

import numpy as np
import pytest

from rankcert import (
    AttackOutcome,
    Bm25Model,
    CertificateReport,
    Document,
    Query,
    SmoothedModel,
    certified_upper_bound,
    certify_topk,
    cond_sr,
    crq,
    doc_overlap_bound,
    hoeffding_radius,
    make_ranked,
    mrr,
    smooth_rank,
    smoothed_score_mc,
    sr,
)
from rankcert import EmbeddingTable, Lexicon, LinearEmbedScorer, TrainConfig, TrainingTriple, train

from conftest import (
    TokenTableModel,
    hand_lexicon,
    make_query,
    random_doc,
    random_linear_model,
    random_token_model,
    random_world,
)
from oracles import (
    bound_attaining_ranker,
    brute_force_attack,
    enumerate_sd,
    excess_mass_by_enumeration,
    excess_mass_closed_form,
    optimal_adversary,
)


def criterion(label: str):
    """Print one pass/fail line per acceptance criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {label}: FAIL")
                raise
            print(f"criterion {label}: PASS" + (f" ({detail})" if detail else ""))

        return wrapper

    return deco


def _random_model(rng, world, docs, query):
    """Mix of scorer families so the certificates face varied score shapes."""
    kind = rng.random()
    if kind < 0.6:
        return random_linear_model(rng, world.emb)
    if kind < 0.8:
        return Bm25Model.from_corpus(docs, k1=0.9, b=0.4).calibrated(
            [(query, d) for d in docs.values()]
        )
    return random_token_model(rng, world, list(docs.values()))


@criterion("1 certification soundness")
def test_certified_lists_withstand_exhaustive_attack():
    """No document beyond rank K of a certified list can be promoted into
    the top K by any admissible substitution (exact smoothing, delta = 1)."""
    rng = np.random.default_rng(20240501)
    started = time.monotonic()
    instances = certified = attacked = violations = 0
    for trial in range(200):
        world = random_world(rng, max_vocab=30)
        docs = {
            f"d{i}": random_doc(rng, world, f"d{i}", min_len=3, max_len=8)
            for i in range(10)
        }
        query = Query(
            f"q{trial}",
            tuple(str(t) for t in rng.choice(world.vocab, size=int(rng.integers(2, 4)))),
        )
        model = _random_model(rng, world, docs, query)
        k = int(rng.choice([1, 3]))
        smoothed = SmoothedModel(model, world.lexicon, n=None)
        ranked = smooth_rank(smoothed, query, list(docs.values()))
        report = certify_topk(smoothed, query, ranked, docs, k=k, delta=1.0)
        instances += 1
        if not report.certified:
            continue
        certified += 1
        for entry in ranked.tail(k):
            outcome = brute_force_attack(
                smoothed, query, docs[entry.doc_id], ranked, 1.0, world.lexicon
            )
            attacked += 1
            if outcome.best_rank_after <= k:
                violations += 1
    elapsed = time.monotonic() - started
    assert instances >= 200
    assert certified >= 10, "generator must produce a meaningful certified pool"
    assert violations == 0
    assert elapsed < 120.0
    return (
        f"{certified}/{instances} certified, {attacked} tail documents attacked, "
        f"0 promotions, {elapsed:.1f}s"
    )


@criterion("2 bound dominance and tightness")
def test_upper_bound_dominates_and_is_attained():
    """The certified upper bound is never beaten by exhaustive search, and
    the constructed worst-case ranker attains it within 1e-9."""
    rng = np.random.default_rng(20240502)
    q = make_query("q", "probe")
    dominance_checks = tightness_checks = 0
    for trial in range(50):
        world = random_world(rng)
        doc = random_doc(rng, world, f"d{trial}", min_len=2, max_len=5)
        docs = {doc.id: doc}
        model = _random_model(rng, world, docs, q)
        delta = float(rng.choice([0.5, 1.0]))

        smoothed = SmoothedModel(model, world.lexicon, n=None)
        fbar = smoothed.score(q, doc)
        od = doc_overlap_bound(doc, world.lexicon, delta)
        bound = certified_upper_bound(fbar, od)
        exhaustive = max(
            smoothed.score(q, cand) for cand in enumerate_sd(doc, delta, world.lexicon)
        )
        assert exhaustive <= bound + 1e-12
        dominance_checks += 1

        p_r = float(rng.random())
        ranker = bound_attaining_ranker(doc, q, p_r, world.lexicon, delta=delta)
        smoothed_ranker = SmoothedModel(ranker, world.lexicon, n=None)
        achieved = smoothed_ranker.score(q, doc)
        assert achieved == pytest.approx(ranker.achieved_p, abs=1e-9)
        best = max(
            smoothed_ranker.score(q, cand) for cand in enumerate_sd(doc, delta, world.lexicon)
        )
        assert best == pytest.approx(min(ranker.achieved_p + ranker.od, 1.0), abs=1e-9)
        tightness_checks += 1
    assert dominance_checks == 50 and tightness_checks == 50
    return f"{dominance_checks} dominance + {tightness_checks} tightness instances"


@criterion("3 clipped-mass identity")
def test_closed_form_mass_equals_enumeration():
    """The closed form of the clipped measure-difference mass agrees with
    full enumeration within 1e-12."""
    rng = np.random.default_rng(20240503)
    checks = 0
    for trial in range(30):
        world = random_world(rng)
        doc = random_doc(rng, world, f"d{trial}", min_len=2, max_len=4)
        adv = Document(
            doc.id,
            tuple(str(rng.choice(world.lexicon.attack_set(w))) for w in doc.tokens),
        )
        for lam in (0.0, 0.5, 1.0, 2.0):
            closed = excess_mass_closed_form(doc, adv, lam, world.lexicon)
            enumerated = excess_mass_by_enumeration(doc, adv, lam, world.lexicon)
            assert abs(closed - enumerated) <= 1e-12
            checks += 1
    assert checks >= 100
    return f"{checks} (document, substitution, lambda) triples within 1e-12"


@criterion("4 worst-case substitution optimality")
def test_optimal_adversary_attains_enumeration_maximum():
    """The constructed worst-case substitution attains the exact maximum of
    the enumeration objective over the whole substitution set."""
    rng = np.random.default_rng(20240504)
    checks = 0
    for trial in range(20):
        world = random_world(rng)
        doc = random_doc(rng, world, f"d{trial}", min_len=2, max_len=4)
        dstar = optimal_adversary(doc, 1.0, world.lexicon)
        for lam in (0.5, 1.0, 2.0):
            best = max(
                excess_mass_by_enumeration(doc, cand, lam, world.lexicon)
                for cand in enumerate_sd(doc, 1.0, world.lexicon)
            )
            attained = excess_mass_by_enumeration(doc, dstar, lam, world.lexicon)
            assert attained == best
            checks += 1
    assert checks >= 50
    return f"{checks} instances, optimum value matched exactly"


@criterion("5 Monte Carlo error budget")
def test_estimation_error_and_coverage():
    """Total two-estimate error at n=1000, alpha=0.05 reproduces 0.086, and
    the per-estimate radius covers the exact value in >= 95% of trials."""
    radius = hoeffding_radius(1000, 0.05)
    assert abs(2 * radius - 0.086) < 0.0005

    lex = hand_lexicon(
        {
            "p": {"p", "p2"}, "p2": {"p", "p2"},
            "q": {"q", "q2", "q3"}, "q2": {"q", "q2", "q3"}, "q3": {"q", "q2", "q3"},
        },
        {
            "p": ("p", "p2"), "p2": ("p2", "p"),
            "q": ("q", "q2", "q3"), "q2": ("q2", "q", "q3"), "q3": ("q3", "q", "q2"),
        },
        j=3,
    )
    doc = Document("d", ("p", "q", "p2"))  # 12 enumerable outcomes
    rng = np.random.default_rng(20240505)
    import itertools

    table = {
        tokens: float(rng.random())
        for tokens in itertools.product(("p", "p2"), ("q", "q2", "q3"), ("p2", "p"))
    }
    model = TokenTableModel(table)
    query = make_query("q1", "x")
    exact = SmoothedModel(model, lex, n=None).score(query, doc)
    hits = 0
    trials = 200
    for seed in range(trials):
        est = smoothed_score_mc(SmoothedModel(model, lex, n=1000, alpha=0.05, root_seed=seed),
                                query, doc)
        if abs(est.mean - exact) <= radius:
            hits += 1
    assert hits / trials >= 0.95
    return f"2r = {2 * radius:.6f} vs 0.086; coverage {hits}/{trials}"


@criterion("6 monotonicity")
def test_slack_and_mrr_monotonicity():
    """Document slack grows with the attack budget; MRR grows with cutoff."""
    rng = np.random.default_rng(20240506)
    deltas = [x / 10 for x in range(1, 11)]
    docs_checked = 0
    while docs_checked < 100:
        world = random_world(rng)
        for i in range(5):
            doc = random_doc(rng, world, f"d{i}")
            ods = [doc_overlap_bound(doc, world.lexicon, delta) for delta in deltas]
            assert all(a <= b + 1e-15 for a, b in zip(ods, ods[1:]))
            docs_checked += 1

    run = {}
    qrels = {}
    for qi in range(10):
        docs = [(f"d{qi}_{i}", float(rng.random())) for i in range(20)]
        run[f"q{qi}"] = make_ranked(f"q{qi}", docs)
        qrels[f"q{qi}"] = frozenset({f"d{qi}_{rng.integers(0, 20)}"})
    values = [mrr(run, qrels, cutoff) for cutoff in range(1, 21)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    return f"{docs_checked} documents over 10 budgets; 20 MRR cutoffs"


def _noise_benefit_world():
    """Synthetic retrieval task where term-identity features break under
    word-substitution noise but the embedding-cosine feature does not, and
    the evaluation lists contain competitors never seen in training."""
    rng = np.random.default_rng(123)
    n_queries, dim = 6, 24
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    pairs, clusters, bi = [], {}, 0
    for c in range(n_queries * 3):
        u = basis[bi]
        bi += 1
        clusters[c] = []
        for m in range(4):
            name = f"c{c}m{m}"
            pairs.append((name, u + rng.normal(scale=0.002, size=dim)))
            clusters[c].append(name)
    pairs.append(("stay", basis[bi])); bi += 1
    pairs.append(("junk", basis[bi])); bi += 1
    u_fill = basis[bi]
    for m in range(4):
        pairs.append((f"fill{m}", u_fill + rng.normal(scale=0.002, size=dim)))
    emb = EmbeddingTable.from_pairs(pairs)
    lexicon = Lexicon.build(emb, tau=0.9, j=4)

    queries, corpus, triples, lists, qrels = {}, {}, [], {}, {}
    for qi in range(n_queries):
        qid = f"q{qi}"
        roots = [clusters[qi * 3 + k][0] for k in range(3)]
        queries[qid] = Query(qid, (*roots, "stay"))
        fillers = ["fill0"] * (1 + qi % 2)
        rel = Document(f"{qid}_rel", (*roots, "stay", *fillers))
        x1 = Document(f"{qid}_x1", ("stay", "stay", "stay"))
        x2 = Document(f"{qid}_x2", ("stay", "stay", "stay", "junk"))
        n1 = Document(f"{qid}_n1", ("junk", "fill1"))
        n2 = Document(f"{qid}_n2", ("fill2", "fill3"))
        for d in (rel, x1, x2, n1, n2):
            corpus[d.id] = d
        triples += [TrainingTriple(qid, rel.id, n1.id), TrainingTriple(qid, rel.id, n2.id)]
        lists[qid] = [rel, x1, x2, n1, n2]
        qrels[qid] = frozenset({rel.id})
    return emb, lexicon, queries, corpus, triples, lists, qrels


@criterion("7 noise-augmentation benefit")
def test_noise_training_preserves_smoothed_ranking_quality():
    """Training on perturbed documents must keep the smoothed ranker's
    MRR@10 at or above the clean-trained one in at least 8 of 10 seeds."""
    emb, lexicon, queries, corpus, triples, lists, qrels = _noise_benefit_world()
    init = LinearEmbedScorer.initial(emb)

    def smoothed_mrr(model) -> float:
        run = {
            qid: smooth_rank(SmoothedModel(model, lexicon, n=None), queries[qid], lists[qid])
            for qid in queries
        }
        return mrr(run, qrels, 10)

    wins = 0
    pairs = []
    for seed in range(10):
        noised = train(
            init, triples, corpus, queries, lexicon,
            TrainConfig(epochs=30, learning_rate=0.5, seed=seed, noise_enabled=True),
        ).model
        clean = train(
            init, triples, corpus, queries, lexicon,
            TrainConfig(epochs=30, learning_rate=0.5, seed=seed, noise_enabled=False),
        ).model
        m_noise = smoothed_mrr(noised)
        m_clean = smoothed_mrr(clean)
        pairs.append((m_noise, m_clean))
        if m_noise >= m_clean:
            wins += 1
    assert wins >= 8, pairs
    return f"{wins}/10 seeds, mean MRR@10 {np.mean([p[0] for p in pairs]):.3f} " \
           f"(noised) vs {np.mean([p[1] for p in pairs]):.3f} (clean)"


@criterion("8 metric arithmetic")
def test_metric_fixtures_match_hand_values():
    """CRQ / SR / CondSR reproduce hand-computed percentages exactly."""

    def report(qid, is_certified):
        return CertificateReport(
            query_id=qid, k=1, delta=1.0, n=1000, alpha=0.05, fbar_k=0.8,
            fbar_k1=0.5, radius=0.043, max_od=0.0,
            delta_lq=0.2 if is_certified else -0.1,
            certified=is_certified, per_doc_od=(),
        )

    def outcome(qid, doc_id, success):
        return AttackOutcome(
            query_id=qid, doc_id=doc_id, original_rank=5,
            best_rank_after=2 if success else 5,
            best_doc=Document(doc_id, ("w",)), best_score=0.5,
            success=success, substitutions=(),
        )

    assert crq([report(f"q{i}", i < 31) for i in range(200)]) == 15.5
    assert crq([report("q", False)]) == 0.0
    assert crq([report("q", True)]) == 100.0

    assert sr([outcome("q", "d", True)] * 4) == 100.0
    assert sr([outcome("q", f"d{i}", i > 0) for i in range(4)]) == 75.0

    reports = [report("q1", True), report("q2", True), report("q3", False)]
    outcomes = [outcome("q1", f"d{i}", i == 0) for i in range(5)]
    outcomes += [outcome("q2", f"e{i}", i < 3) for i in range(5)]
    outcomes += [outcome("q3", f"f{i}", True) for i in range(5)]
    assert cond_sr(reports, outcomes) == 40.0
    assert cond_sr([report("q1", False)], [outcome("q1", "d", True)]) is None
    return "CRQ 31/200 = 15.5, SR 3/4 = 75.0, CondSR (0.2, 0.6) = 40.0"


@criterion("9 determinism across workers")
def test_worker_count_does_not_change_reports(tmp_path):
    """Certify output is byte-identical for 1 and 8 workers and across
    repeated runs with the same seed."""
    from click.testing import CliRunner

    from rankcert.cli import main

    rng = np.random.default_rng(7)
    base = np.array([1.0, 0.0, 0.0, 0.0])
    lines = ["g%d %s" % (i, " ".join(f"{v:.6f}" for v in base + rng.normal(scale=0.002, size=4)))
             for i in range(4)]
    lines += ["h 0.0 1.0 0.0 0.0", "u 0.0 0.0 1.0 0.0", "j0 0.0 0.0 0.0 1.0"]
    (tmp_path / "embeddings.txt").write_text("\n".join(lines) + "\n")
    corpus = [
        {"id": "d1", "text": "h h"}, {"id": "d2", "text": "g0 g1"},
        {"id": "d3", "text": "u j0"}, {"id": "d4", "text": "j0 u"},
        {"id": "d5", "text": "g2 h"},
    ]
    (tmp_path / "corpus.jsonl").write_text("\n".join(json.dumps(d) for d in corpus) + "\n")
    (tmp_path / "queries.tsv").write_text("q1\th h\nq2\tg0 u\nq3\tu j0\n")
    run_lines = []
    for qid in ("q1", "q2", "q3"):
        for i, doc in enumerate(["d1", "d2", "d3", "d4", "d5"]):
            run_lines.append(f"{qid} Q0 {doc} {i + 1} {1.0 - i / 10:.3f} init")
    (tmp_path / "run.txt").write_text("\n".join(run_lines) + "\n")
    model = {"type": "linear", "features": ["embedding_cosine", "query_coverage", "match_density"],
             "weights": [2.0, 1.5, 1.0], "bias": -0.5}
    (tmp_path / "model.json").write_text(json.dumps(model) + "\n")
    (tmp_path / "lexicon.json").touch()

    runner = CliRunner()
    build = runner.invoke(main, [
        "build-lexicon", "--embeddings", str(tmp_path / "embeddings.txt"),
        "--tau", "0.8", "--j", "4", "--out", str(tmp_path / "lexicon.json")])
    assert build.exit_code == 0, build.output

    def run_certify(out_name, jobs):
        result = runner.invoke(main, [
            "certify",
            "--corpus", str(tmp_path / "corpus.jsonl"),
            "--queries", str(tmp_path / "queries.tsv"),
            "--run", str(tmp_path / "run.txt"),
            "--lexicon", str(tmp_path / "lexicon.json"),
            "--model", str(tmp_path / "model.json"),
            "--embeddings", str(tmp_path / "embeddings.txt"),
            "--k", "2", "--delta", "1.0", "--n-samples", "200",
            "--alpha", "0.05", "--seed", "11", "--jobs", str(jobs),
            "--out", str(tmp_path / out_name)])
        assert result.exit_code == 0, result.output
        return (tmp_path / out_name).read_bytes()

    first = run_certify("r1.jsonl", 1)
    again = run_certify("r1b.jsonl", 1)
    eight = run_certify("r8.jsonl", 8)
    assert first == again
    assert first == eight
    assert first  # reports actually produced
    return "3 queries x 5 docs, n=200: reports byte-identical at 1 and 8 workers"
