"""The package's public names and the README's library example."""

from pathlib import Path

import pytest

import rankcert

# The analysis oracles live in tests/oracles.py; the package ships only what
# certifying, attacking and evaluating run.
ORACLES = [
    "BoundAttainingRanker",
    "bound_attaining_ranker",
    "brute_force_attack",
    "enumerate_sd",
    "excess_mass_by_enumeration",
    "excess_mass_closed_form",
    "optimal_adversary",
    "perturbation_prob",
    "sd_size",
]


def test_every_exported_name_resolves():
    missing = [name for name in rankcert.__all__ if not hasattr(rankcert, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert rankcert.__all__ == sorted(set(rankcert.__all__))


@pytest.mark.parametrize("name", ORACLES)
def test_oracles_are_not_shipped(name):
    assert not hasattr(rankcert, name)


# Every word of the README example. With two more words each, cheap and
# flights have four synonyms at tau = 0.8, so j = 4 makes them perturbable.
QUICK_START_EMBEDDINGS = """\
cheap 1.0 0.0 0.0
budget 0.95 0.1 0.0
inexpensive 0.95 0.0 0.1
affordable 0.9 0.1 0.1
flights 0.0 1.0 0.0
airfare 0.1 0.95 0.0
fares 0.0 0.95 0.1
tickets 0.1 0.9 0.1
online 0.0 0.0 1.0
deals 0.6 0.0 0.8
train -1.0 0.2 0.0
travel -0.2 -1.0 0.1
europe 0.0 -0.3 -1.0
"""


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "emb.txt").write_text(QUICK_START_EMBEDDINGS, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    certified, margin = capsys.readouterr().out.split()
    assert certified in {"True", "False"}
    float(margin)
