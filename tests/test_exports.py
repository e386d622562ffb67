"""The package's public names."""

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
