#!/usr/bin/env python3
"""Compare ``certify --jobs 2`` with ``--jobs 1`` on the certify-bm25-jobs2 inputs.

    python3 perfbench/jobs_scaling.py

For each of ``SEEDS``, runs the workload's ``certify`` command in fresh
processes, alternating ``--jobs 1`` and ``--jobs 2`` (``PAIRS`` times each,
starting side alternating by pair), checks that both write the same reports,
and prints each side's median command wall time and their ratio. The CLI fans
queries out over threads, so the ratio shows how much of the work the
interpreter lock lets overlap.
"""

from __future__ import annotations

import shutil
import statistics
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).resolve().parent.parent)]

from perfbench.checks import require  # noqa: E402
from perfbench.run import WORK, run_cli  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402
from perfbench.world import write_world  # noqa: E402

SEEDS = (1, 2, 3)
PAIRS = 3


def jobs_walls(workload: Workload, seed: int, work: Path, pairs: int) -> dict[int, list[float]]:
    """Command wall times of ``certify`` at ``--jobs 1`` and ``--jobs 2``,
    ``pairs`` runs each; fails a check unless both write the same reports."""
    files = write_world(workload.world, seed, work / "inputs")
    lexicon = work / "lexicon.json"
    run_cli(workload.build_lexicon_args(files, lexicon), work, "setup")
    walls: dict[int, list[float]] = {1: [], 2: []}
    reports: dict[int, bytes] = {}
    for pair in range(pairs):
        for jobs in ((1, 2) if pair % 2 == 0 else (2, 1)):
            out = work / f"reports-jobs{jobs}.jsonl"
            cli_args = workload.command_args(files, lexicon, out)
            cli_args[cli_args.index("--jobs") + 1] = str(jobs)
            walls[jobs].append(run_cli(cli_args, work, f"jobs{jobs}")["wall_s"])
            reports[jobs] = out.read_bytes()
    require(bool(reports[1]) and reports[1] == reports[2],
            f"seed {seed}: --jobs 1 and --jobs 2 wrote different reports")
    return walls


def main() -> int:
    workload = WORKLOADS["certify-bm25-jobs2"]
    ratios = []
    for seed in SEEDS:
        work = WORK / f"jobs-scaling-{seed}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        walls = jobs_walls(workload, seed, work, PAIRS)
        one, two = statistics.median(walls[1]), statistics.median(walls[2])
        ratios.append(two / one)
        print(f"seed {seed}: --jobs 1 median {one:.3f} s {[round(w, 3) for w in walls[1]]}, "
              f"--jobs 2 median {two:.3f} s {[round(w, 3) for w in walls[2]]}, "
              f"jobs2/jobs1 wall {two / one:.3f}")
        shutil.rmtree(work)
    print(f"median jobs2/jobs1 wall over {len(ratios)} seed(s): {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
