"""The CLI comparison corpus of tools/cli_corpus.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_holds_168_distinct_calls():
    calls = _tool().corpus()
    assert len(calls) == 168
    assert len({tuple(argv) for argv in calls}) == 168
    assert sum(argv[0] == "simulate" for argv in calls) == 159
    assert sum(argv[0] == "simulate" and argv[5:7] == ["--lambda", "0"] for argv in calls) == 12


def test_a_small_call_digests_the_same_twice():
    tool = _tool()
    argv = "simulate --alg lanczos --d 30 --lambda 3 --T 40 --trials 3 --seed 1".split()
    first = tool.digest(argv)
    assert first["argv"] == argv and first["exit"] == 0
    assert len(first["stdout"]) == len(first["stderr"]) == 64
    assert tool.digest(argv) == first


def test_calls_digest_the_same_in_either_order():
    # the calls of one process share the CLI's parser
    tool = _tool()
    picks = [call.split() for call in (
        "verify --check conditional-law --n 1",
        "simulate --alg lanczos --d 30 --lambda 3 --T 40 --trials 3 --seed 1",
        "simulate --alg power --d 500 --lambda 3 --T 6 --trials 2 --seed 1",
    )]
    assert all(argv in tool.corpus() for argv in picks)
    forward = [tool.digest(argv) for argv in picks]
    backward = [tool.digest(argv) for argv in reversed(picks)]
    assert forward == backward[::-1]
    assert [d["exit"] for d in forward] == [2, 0, 0]
