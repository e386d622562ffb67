"""The bytes of every command's outputs, pinned.

On the toy world of the CLI tests (``conftest.write_pipeline``), the
pipeline runs in-process: ``build-lexicon``, ``train`` (linear, with noise),
``certify`` with each scorer, ``attack`` on the smoothed ranker and
``evaluate``. At ``--j 4`` every perturbation set of the world's one
cluster is the whole cluster, so no substitution moves a smoothed score and
the attack prunes every trial; a second lexicon at ``--j 2`` gives an attack
that moves, and so scores its trials through ``SmoothedModel.score_many``.
Each output file must hash to the constant below. The ``.meta.json``
sidecars hold paths, so they are left out.

A change that alters some output's bytes by design updates its constant in
the same change, and gives the old and the new value in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

from rankcert.cli import main

from conftest import write_pipeline

EXPECTED_SHA256 = {
    "lexicon.json": "ebd37fe722df9360b54c9b18ddff2b98aad618533f9324c8b646d38bbc27f67e",
    "model.json": "eb31117b64a13c12c9128d99b6dc2664b858c61d6dda366c89aecead77b6587e",
    "loss.csv": "3de5ff7ebfb22720d389d086879392ca6ca159b3776899a8585789ec648db7a5",
    "linear.jsonl": "b9f9f9f10af64bc34be0826af51c36dfbea560e90ae036a922e1e28f55e13129",
    "linear.jsonl.smoothed.run": "b42ce4e6c2f737ffe96916a54b7612936bf5cbe601f63e068712f678442a25e2",
    "bm25.jsonl": "2033bc9492a2993f3dc7abe51e7872017a438e2a408822a1d3659993437512bd",
    "bm25.jsonl.smoothed.run": "a21c50143bb43c23d158d75b7051acbfa0720475c61de85f094389aff6b75e28",
    "outcomes.jsonl": "d5253ed2a6311c356c027dd56b0c29e603e41e94e1dc46fb7bc3048929afb92e",
    "lexicon_j2.json": "69446a1b272bebfdaa167dd0e6057e858e4868c5ae69f1641f6be9043d7ca9cf",
    "outcomes_j2.jsonl": "e60e61647789a7bb896d3f3298a7faae9e42a4a62c8a90b4a02c84bb7f6e1e8a",
    "summary.json": "0e5ffbe9df15e0c248f5de7619dfed20b93eb2cd9674c978e2c4af092c4f2d9c",
}


def _run(*args) -> None:
    result = CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    """The sha256 of each output file of one pass of the pipeline."""
    root = write_pipeline(tmp_path_factory.mktemp("golden"))
    (root / "bm25.json").write_text('{"type": "bm25"}\n')
    inputs = ["--corpus", root / "corpus.jsonl", "--queries", root / "queries.tsv"]

    def scoring(command, model, lexicon, out, *extra):
        _run(command, *inputs, "--run", root / "run.txt", "--lexicon", root / lexicon,
             "--model", root / model, "--embeddings", root / "embeddings.txt", "--k", "2",
             "--n-samples", "200", "--alpha", "0.05", "--seed", "1", *extra, "--out", root / out)

    for j, lexicon in (("4", "lexicon.json"), ("2", "lexicon_j2.json")):
        _run("build-lexicon", "--embeddings", root / "embeddings.txt", "--tau", "0.8", "--j", j,
             "--out", root / lexicon)
    _run("train", *inputs, "--triples", root / "triples.tsv",
         "--embeddings", root / "embeddings.txt", "--lexicon", root / "lexicon.json",
         "--epochs", "20", "--lr", "0.5", "--seed", "3", "--loss-trace", root / "loss.csv",
         "--out", root / "model.json")
    scoring("certify", "model.json", "lexicon.json", "linear.jsonl")
    scoring("certify", "bm25.json", "lexicon.json", "bm25.jsonl")
    scoring("attack", "model.json", "lexicon.json", "outcomes.jsonl", "--budget", "2")
    scoring("attack", "model.json", "lexicon_j2.json", "outcomes_j2.jsonl", "--budget", "2")
    _run("evaluate", "--reports", root / "linear.jsonl", "--outcomes", root / "outcomes.jsonl",
         "--run", root / "run.txt", "--qrels", root / "qrels.txt", "--out", root / "summary.json")
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in EXPECTED_SHA256}


@pytest.mark.parametrize("name", sorted(EXPECTED_SHA256))
def test_output_bytes_are_pinned(outputs, name):
    assert outputs[name] == EXPECTED_SHA256[name]
