"""The package's import surface: every exported name resolves, and the
removed run wrappers, oracle forwarders, second step type and second
residual tolerance stay removed."""

import pytest

import spikequery
from spikequery import algorithms, oracle


def test_every_exported_name_resolves():
    assert len(set(spikequery.__all__)) == len(spikequery.__all__)
    missing = [name for name in spikequery.__all__ if not hasattr(spikequery, name)]
    assert missing == []


@pytest.mark.parametrize(
    "name",
    ["run_power", "run_lanczos", "run_random_nonadaptive", "RUNNERS",
     "query", "projected_view", "finalize", "ProjectedStep", "BREAKDOWN_TOL"],
)
def test_removed_names_are_gone(name):
    assert name not in spikequery.__all__
    assert not hasattr(spikequery, name)
    assert not hasattr(algorithms, name)
    assert not hasattr(oracle, name)

