"""The package's import surface: every exported name resolves, the
removed run wrappers, oracle forwarders, second step type, second
residual tolerance, Ritz-from-pairs function, test-only transcript
helpers, step-by-step candidate iterator, dense spectral helpers and
second instance constructor stay removed, and the runtime imports no
scipy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spikequery
from spikequery import algorithms, instances, oracle


def test_every_exported_name_resolves():
    assert len(set(spikequery.__all__)) == len(spikequery.__all__)
    missing = [name for name in spikequery.__all__ if not hasattr(spikequery, name)]
    assert missing == []


@pytest.mark.parametrize(
    "name",
    ["run_power", "run_lanczos", "run_random_nonadaptive", "RUNNERS",
     "query", "projected_view", "finalize", "ProjectedStep", "BREAKDOWN_TOL",
     "ritz_from_pairs", "transcript_rows", "_vector_hash", "reconstruct_raw_responses",
     "iterate_candidates", "spectrum", "SpectrumSummary", "rayleigh", "check_membership",
     "Membership", "SPECTRUM_DIM_CAP"],
)
def test_removed_names_are_gone(name):
    assert name not in spikequery.__all__
    assert not hasattr(spikequery, name)
    assert not hasattr(algorithms, name)
    assert not hasattr(oracle, name)
    assert not hasattr(instances, name)


def test_spiked_instance_has_one_construction_path():
    assert not hasattr(spikequery.SpikedInstance, "_trusted")


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: neither the package nor a CLI run
    # that scores a trial and solves norms above the dense cutoff loads it
    code = "\n".join([
        "import contextlib, io, sys",
        "import spikequery",
        "from spikequery import cli",
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "    assert cli.main(['simulate', '--alg', 'power', '--d', '300', '--lambda', '3',",
        "                     '--T', '3', '--trials', '1']) == 0",
        "    assert cli.main(['verify', '--check', 'kd', '--quick']) == 0",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
