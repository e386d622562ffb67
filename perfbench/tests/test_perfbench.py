"""Tests of the benchmark itself, at smoke size.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import checks, jobs_scaling, run, speed, tracing
from perfbench.workloads import WORKLOADS
from perfbench.world import write_world

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_every_workload():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One untraced and one traced smoke-size run of every workload."""
    out = {}
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
            out[name, trace] = run.run_workload(workload.smoke(), 7, 0.01, trace, work / "run", work / "trace")
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_named_metric(smoke_runs, name, trace):
    figures = smoke_runs[name, trace]
    line = run.report(figures)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    if trace:
        for extra in ("rankers.bm25_fit_s", "certify.topk_s", "certify.topk_self_s",
                      "attack.greedy_s", "attack.greedy_self_s"):
            assert extra in figures["layers"]
        spans = (run.ROOT / figures["spans_file"]).read_text(encoding="utf-8").splitlines()
        assert spans[0].split("\t") == ["id", "parent", "name", "query_id", "thread", "start_s", "end_s"]
        assert len(spans) - 1 == figures["spans"]
    # A time of a layer the workload does not run would read 0 on every run;
    # such times stay out of the JSON line.
    timed = line["metrics"].values() if not trace else [m for m in line["metrics"].values() if m["unit"] == "s"]
    assert all(m["value"] > 0 for m in timed)


def test_traced_layers_match_the_workload(smoke_runs):
    linear = smoke_runs["certify-linear", True]["layers"]
    bm25 = smoke_runs["certify-bm25-jobs2", True]["layers"]
    attack = smoke_runs["attack-smoothed", True]["layers"]
    queries = WORKLOADS["certify-linear"].smoke().world.n_queries
    assert linear["certify.reestimate_calls"] == 2 * queries
    assert linear["rankers.bm25_fit_s"] == 0 < bm25["rankers.bm25_fit_s"]
    assert linear["smoothing.samples"] == linear["rankers.score_calls"]
    assert attack["attack.trials"] > 0 and attack["certify.topk_s"] == 0
    assert 0 < attack["smoothing.memo_hit_ratio"] < 1
    assert linear["smoothing.unique_estimate_ratio"] < 1


def test_slowdown_is_the_median_calibration_over_the_reference():
    assert speed.slowdown([speed.REFERENCE_S] * 3) == 1.0
    assert speed.slowdown([speed.REFERENCE_S, 2 * speed.REFERENCE_S, 9.0]) == 2.0
    assert speed.calibration_s() > 0


def test_jobs_two_and_one_write_identical_reports(tmp_path):
    walls = jobs_scaling.jobs_walls(WORKLOADS["certify-bm25-jobs2"].smoke(), 11, tmp_path, pairs=1)
    assert len(walls[1]) == len(walls[2]) == 1


def test_tracer_rebinds_every_name_and_uninstalls():
    import rankcert.certify
    import rankcert.cli
    import rankcert.smoothing

    originals = (rankcert.cli.smooth_rank, rankcert.smoothing.smoothed_score_mc,
                 rankcert.smoothing.PerturbationSampler.sample)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert rankcert.cli.smooth_rank is rankcert.smoothing.smooth_rank is not originals[0]
        assert rankcert.certify.smoothed_score_mc is rankcert.smoothing.smoothed_score_mc is not originals[1]
    finally:
        tracer.uninstall()
    assert (rankcert.cli.smooth_rank, rankcert.smoothing.smoothed_score_mc,
            rankcert.smoothing.PerturbationSampler.sample) == originals
    assert rankcert.certify.smoothed_score_mc is originals[1]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, "certify.topk", "q", 1, 0.0, 10.0, None),
        (2, 1, "smoothing.mc", "q", 1, 1.0, 4.0, ("q", ("a",))),
        (3, 1, "smoothing.mc", "q", 1, 3.0, 6.0, ("q", ("a",))),
        (4, 0, "cli.command", None, 1, 0.0, 10.0, None),
    ]
    layers = tracing.layer_metrics(spans, jobs=1)
    assert layers["certify.topk_self_s"] == pytest.approx(5.0)
    assert layers["certify.reestimate_calls"] == 2
    assert layers["smoothing.unique_estimate_ratio"] == 0.5


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(19) is None
    assert tracing.tail_percentile(20) == 50.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(1000) == 99.0


def test_certify_check_rejects_a_wrong_decision(tmp_path):
    workload = WORKLOADS["certify-linear"].smoke()
    files = write_world(workload.world, 5, tmp_path / "inputs")
    lexicon, out = tmp_path / "lexicon.json", tmp_path / "reports.jsonl"
    run.run_cli(workload.build_lexicon_args(files, lexicon), tmp_path, "setup")
    run.run_cli(workload.command_args(files, lexicon, out), tmp_path, "certify")
    assert checks.check_certify(out, files.run, workload)[:2] == (workload.world.n_queries, 0)
    reports = [json.loads(line) for line in out.read_text().splitlines()]
    reports[0]["certified"] = not reports[0]["certified"]
    out.write_text("".join(json.dumps(r) + "\n" for r in reports))
    with pytest.raises(checks.CheckFailed, match="certified"):
        checks.check_certify(out, files.run, workload)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify-linear", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_attack_budget_stays_within_the_threat_model():
    attack = WORKLOADS["attack-smoothed"]
    assert attack.budget <= math.floor(attack.delta * attack.world.doc_len[0])
    with pytest.raises(ValueError, match="floor"):
        replace(attack, budget=attack.budget + 1)
