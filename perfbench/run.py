#!/usr/bin/env python3
"""The rankcert benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a rankcert checkout. The seed generates every input
(see ``perfbench/world.py``); the workload (``perfbench/workloads.py``)
names the CLI commands that run on them:

1. rounds, for about ``--seconds`` seconds, each running the set-up command
   ``rankcert build-lexicon`` for ``SETUP_ROUND_S`` seconds and then the
   workload's ``certify`` or ``attack`` command once, every command in a
   fresh process and followed by one pass of the calibration loop;
2. checks on every output (``perfbench/checks.py``); every repetition must
   also write the same bytes.

With ``--trace 0`` nothing is traced and the last line of standard output is
a JSON object whose metrics are the end-to-end ones: ``setup_s``
(``build-lexicon`` wall time), ``queries_per_s`` (queries completed per second
of command wall time, input loading included) and ``peak_rss_mb`` (peak RSS
of the command process); each is the median over the repetitions. The
medians are scaled to a reference host speed by the median time of a
calibration loop timed after every command
(``perfbench/speed.py``), because the host's own speed drifts over minutes;
the unscaled figures are printed as well. With
``--trace 1`` the repetitions alternate untraced and traced, and the metrics
are per-layer ones from the traced repetitions (``perfbench/tracing.py``)
plus ``trace.overhead_ratio``, traced over untraced median wall time.

Lines before the JSON report what the JSON has no room for: the failed
ratio, attacked documents per second, the certified-query rate (CRQ), the
attack success rate (SR) and hashes of the outputs. These can move with a
correct change, so nothing gates on them. Everything, including the
per-layer metrics no workload-independent name covers, is also written to
``.perfbench/results/``; the spans of the last traced repetition go to
``.perfbench/trace/<workload>.spans.tsv`` (``.setup.spans.tsv`` for
``build-lexicon``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_ROUND_S = 0.8
"""Seconds of ``build-lexicon`` runs per round: two or three runs of a
1k-word lexicon, one of a 3k-word one. Small lexicons build in a fraction of
a second, so a fixed time rather than a fixed count gives their set-up
median more samples, while most of a round goes to the measured command."""
CHILD_TIMEOUT_S = 150

class BenchError(RuntimeError):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(cli_args: list[str], work: Path, tag: str, spans: Path | None = None) -> dict:
    """Run one CLI command in a fresh interpreter; returns its result."""
    result_path = work / f"{tag}.result.json"
    argv = [sys.executable, "-m", "perfbench.child", str(result_path)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    proc = subprocess.run(argv + ["--"] + cli_args, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"`rankcert {' '.join(cli_args[:1])}` failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _median_layers(results: list[dict]) -> dict[str, float]:
    return {name: statistics.median(r["layers"][name] for r in results) for name in results[0]["layers"]}


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path, trace_dir: Path) -> dict:
    """Set up, measure and check one workload in ``work``; returns every
    figure taken. Traced runs leave their spans in ``trace_dir``."""
    from perfbench import checks
    from perfbench.speed import calibration_s, slowdown
    from perfbench.tracing import percentile, tail_percentile
    from perfbench.world import write_world

    files = write_world(workload.world, seed, work / "inputs")
    lexicon = work / "lexicon.json"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_path = trace_dir / f"{workload.name}.spans.tsv"
    setup_spans_path = trace_dir / f"{workload.name}.setup.spans.tsv"

    # Set-up and measurement interleave, so that both sample the machine over
    # the whole run rather than set-up catching one moment of it. The
    # calibration loop runs after every command, sampling the host's speed
    # over the run as well (see speed.py).
    setup: list[dict] = []
    lexicon_hashes = set()
    reps: list[tuple[bool, dict]] = []
    outputs: list[Path] = []
    calibration_s()  # warm-up
    calibrations = [calibration_s()]
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        while time.perf_counter() - began < SETUP_ROUND_S:
            setup.append(run_cli(workload.build_lexicon_args(files, lexicon), work, f"setup{len(setup)}",
                                 spans=setup_spans_path if trace else None))
            calibrations.append(calibration_s())
            lexicon_hashes.add(_sha256(lexicon))
        traced = trace and len(reps) % 2 == 1
        out = work / f"out{len(reps)}.jsonl"
        result = run_cli(workload.command_args(files, lexicon, out), work, f"rep{len(reps)}",
                         spans=spans_path if traced else None)
        calibrations.append(calibration_s())
        reps.append((traced, result))
        outputs.append(out)
        now = time.perf_counter()
        if trace and len(reps) < 2:
            continue
        # Another round of the same length would end past ``seconds`` by
        # more than half a round: stop, so runs end within half a round of it.
        if now - start + (now - began) / 2 > seconds:
            break

    checks.require(len(lexicon_hashes) == 1, "build-lexicon wrote different lexicons for one input")
    hashes = {_sha256(o) for o in outputs}
    checks.require(len(hashes) == 1, "repeated runs of one command wrote different outputs")
    if workload.command == "certify":
        attempted, failed, quality = checks.check_certify(outputs[0], files.run, workload)
        queries_done = attempted - failed
        docs_done = 0
    else:
        attempted, failed, quality = checks.check_attack(outputs[0], files.corpus, lexicon, workload)
        outcomes = [json.loads(line) for line in outputs[0].read_text(encoding="utf-8").splitlines()]
        queries_done = len({o["query_id"] for o in outcomes})
        docs_done = len(outcomes)

    plain = [r for t, r in reps if not t]
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    slow = slowdown(calibrations)
    raw_setup = statistics.median(r["wall_s"] for r in setup)
    raw_queries_per_s = statistics.median(queries_done / r["wall_s"] for r in plain)
    figures = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "jobs": workload.jobs,
        "repetitions": len(plain),
        "setup_repetitions": len(setup),
        "attempted": attempted * len(reps),
        "failed": failed * len(reps),
        "failed_ratio": failed / attempted,
        "quality_name": "crq_pct" if workload.command == "certify" else "sr_pct",
        "quality_pct": quality,
        "output_sha256": hashes.pop(),
        "lexicon_sha256": lexicon_hashes.pop(),
        "command_wall_s": plain_wall,
        "command_walls_s": [r["wall_s"] for r in plain],
        "setup_walls_s": [r["wall_s"] for r in setup],
        "calibrations_s": calibrations,
        "slowdown": slow,
        "setup_s": raw_setup / slow,
        "queries_per_s": raw_queries_per_s * slow,
        "attacked_docs_per_s": statistics.median(docs_done / r["wall_s"] for r in plain) * slow,
        "raw_setup_s": raw_setup,
        "raw_queries_per_s": raw_queries_per_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    if trace:
        traced_reps = [r for t, r in reps if t]
        layers = _median_layers(traced_reps)
        layers["lexicon.build_s"] = statistics.median(r["layers"]["lexicon.build_s"] for r in setup)
        latencies = [q for r in traced_reps for q in r["query_s"]]
        tail = tail_percentile(len(latencies))
        layers["cli.query_s_p50"] = statistics.median(latencies)
        layers["cli.query_s_tail"] = percentile(latencies, tail) if tail else max(latencies)
        layers["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced_reps) / plain_wall
        figures["layers"] = layers
        figures["query_samples"] = len(latencies)
        figures["query_tail"] = f"p{tail:g}" if tail else "max"
        figures["traced_repetitions"] = len(traced_reps)
        figures["spans_file"] = str(spans_path)
        figures["spans"] = traced_reps[-1]["spans"]
    return figures


def report(figures: dict) -> dict:
    """The JSON line: end-to-end metrics untraced, per-layer ones traced, as
    BENCHMARK.json names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, values = (spec["per_layer"], figures["layers"]) if figures["trace"] else (spec["end_to_end"], figures)
    return {
        "correct": True,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def _print_human(figures: dict) -> None:
    w = figures["workload"]
    print(f"{w} seed {figures['seed']}: {figures['repetitions']} untraced repetition(s), "
          f"jobs {figures['jobs']}")
    rows = [
        ("setup_s", figures["setup_s"], f"s  median of {figures['setup_repetitions']} build-lexicon runs"),
        ("queries_per_s", figures["queries_per_s"], "1/s"),
        ("peak_rss_mb", figures["peak_rss_mb"], "MB"),
        ("raw setup_s", figures["raw_setup_s"], "s  as measured, not scaled to the reference speed"),
        ("raw queries_per_s", figures["raw_queries_per_s"], "1/s  as measured, not scaled"),
        ("slowdown", figures["slowdown"], f"  median of {len(figures['calibrations_s'])} calibration passes"
                                          " over the reference time"),
        ("failed_ratio", figures["failed_ratio"], f"  ({figures['failed']}/{figures['attempted']})"),
    ]
    if figures["attacked_docs_per_s"]:
        rows.append(("attacked_docs_per_s", figures["attacked_docs_per_s"], "1/s"))
    rows.append((figures["quality_name"], figures["quality_pct"], "%  recorded, not gated"))
    for name, value, note in rows:
        print(f"  {name:32s} {value:12.6g} {note}")
    print(f"  {'output_sha256':32s} {figures['output_sha256']}")
    if figures["trace"]:
        print(f"  traced: {figures['traced_repetitions']} repetition(s), {figures['spans']} spans "
              f"in {figures['spans_file']}; cli.query_s_tail is the {figures['query_tail']} "
              f"of {figures['query_samples']} queries")
        for name, value in sorted(figures["layers"].items()):
            print(f"  {name:32s} {value:12.6g}")


def _run_one(workload, args) -> int:
    from perfbench.checks import CheckFailed

    work = WORK / f"run-{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        figures = run_workload(workload, args.seed, args.seconds, bool(args.trace), work, WORK / "trace")
    except CheckFailed as exc:
        print(f"output check failed: {exc} (outputs kept in {work})", file=sys.stderr)
        return 1
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc} (outputs kept in {work})", file=sys.stderr)
        return 1
    shutil.rmtree(work)

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(figures, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _print_human(figures)
    print(json.dumps(report(figures)))
    return 0


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn (one JSON line each)")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "rankcert" / "cli.py").is_file():
        print(f"rankcert sources not found under {SRC}; run from a rankcert checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        status = _run_one(WORKLOADS[name], args)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT)]
    sys.exit(main())
