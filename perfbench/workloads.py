"""The benchmark's workloads: why each exists and which layer it loads.

Every workload is a closed-loop batch run from one process: the CLI works
through its queries and the benchmark starts the next command only after
the previous one has exited. None uses more worker threads than the 2
cores the benchmark was sized on.

Out of scope: ``train`` (the scorer's parameters are fixed in the generated
model file), the exact smoothing path (the CLI never reaches it; it always
passes ``--n-samples``) and ``evaluate``. None of them is on a ROADMAP
performance item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from perfbench.world import J, TAU, WorldFiles, WorldSpec

ALPHA = 0.05
"""Significance level passed as ``--alpha`` to every ``certify`` and ``attack`` command."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    world: WorldSpec
    command: str
    """``certify`` or ``attack``."""
    n_samples: int
    jobs: int
    delta: float
    budget: int = 0
    max_attacked: int = 0

    def __post_init__(self) -> None:
        # The attack budget stays within floor(delta * M) for every document,
        # so capping the greedy budget at the certificate's threat model
        # cannot change this workload's work.
        if self.command == "attack" and self.budget > math.floor(self.delta * self.world.doc_len[0]):
            raise ValueError(f"{self.name}: budget {self.budget} exceeds floor(delta * M)")

    def build_lexicon_args(self, files: WorldFiles, lexicon: Path) -> list[str]:
        return ["build-lexicon", "--embeddings", str(files.embeddings),
                "--tau", str(TAU), "--j", str(J), "--out", str(lexicon)]

    def command_args(self, files: WorldFiles, lexicon: Path, out: Path) -> list[str]:
        args = [self.command, "--corpus", str(files.corpus), "--queries", str(files.queries),
                "--run", str(files.run), "--lexicon", str(lexicon), "--model", str(files.model)]
        if self.world.model == "linear":
            args += ["--embeddings", str(files.embeddings)]
        args += ["--n-samples", str(self.n_samples), "--alpha", str(ALPHA), "--seed", "0",
                 "--k", str(self.world.k), "--delta", str(self.delta), "--jobs", str(self.jobs)]
        if self.command == "attack":
            args += ["--budget", str(self.budget), "--target", "smoothed",
                     "--max-attacked", str(self.max_attacked)]
        return args + ["--out", str(out)]

    def smoke(self) -> "Workload":
        """A seconds-long variant with the same shape, for tests."""
        world = replace(self.world, n_tight=12, n_loose=6, n_single=40, n_queries=3,
                        candidates=8, k=3, extra_docs=min(self.world.extra_docs, 20),
                        doc_len=(self.world.doc_len[0], self.world.doc_len[0] + 10))
        return replace(self, world=world, n_samples=24, max_attacked=min(self.max_attacked, 1))


WORKLOADS = {
    w.name: w
    for w in [
        # Loads rankers: LinearEmbedScorer.score is about half of the Monte
        # Carlo time, so a faster or batched scorer shows here first.
        Workload(
            name="certify-linear",
            why=(
                "certify with the embedding scorer: base scoring is about half of smoothing "
                "time, so a faster or batched scorer shows here first"
            ),
            world=WorldSpec(n_tight=110, n_loose=40, n_single=360, n_queries=2, candidates=20,
                            k=5, doc_len=(50, 100)),
            command="certify", n_samples=1000, jobs=1, delta=0.1,
        ),
        # Loads smoothing (derive_streams, PerturbationSampler.sample), the
        # thread pool, BM25 fit and calibration over a 1.6k-document corpus,
        # and lexicon build and load at 3k words. BM25 scoring is cheap, so a
        # threading or sampling change shows here and a scorer-only change
        # mostly does not.
        Workload(
            name="certify-bm25-jobs2",
            why=(
                "certify with cheap BM25 at --jobs 2 on long documents over a 3k-word lexicon: "
                "stream derivation, sampling and the thread pool dominate"
            ),
            world=WorldSpec(n_tight=330, n_loose=120, n_single=1080, n_queries=2, candidates=20,
                            k=5, doc_len=(100, 200), extra_docs=1500, model="bm25"),
            command="certify", n_samples=500, jobs=2, delta=0.1,
        ),
        # Loads attack: every greedy step scores all (position, synonym)
        # trials through SmoothedModel, and reverting a move hits its memo.
        # Trial batching, common random numbers and the memo show here; the
        # certificate path does not run. The scorer puts no weight on the
        # embedding cosine, so only substituting a query term's outlier moves
        # the smoothed score beyond Monte Carlo noise: every attack then takes
        # budget + 1 steps, and the work does not follow the seed.
        Workload(
            name="attack-smoothed",
            why=(
                "greedy attack on the smoothed ranker: each step smooths many near-duplicate "
                "documents through SmoothedModel; the certificate path does not run"
            ),
            world=WorldSpec(n_tight=110, n_loose=40, n_single=360, n_queries=2, candidates=20,
                            k=5, doc_len=(20, 40), attack_surface=True, cosine_weight=0.0),
            command="attack", n_samples=32, jobs=1, delta=0.15, budget=3, max_attacked=3,
        ),
    ]
}
