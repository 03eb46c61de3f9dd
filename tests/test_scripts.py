"""The command lines of the scripts in scripts/."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "script, argv",
    [
        ("verify_classification", ["--max-n", "0"]),
        ("verify_classification", ["--count", "0"]),
        ("odd_cycle_powers", ["--max-n", "0"]),
        ("odd_cycle_powers", ["--lengths", "5", "0"]),
    ],
)
def test_counts_below_one_are_usage_errors(script, argv, capsys):
    with pytest.raises(SystemExit) as info:
        load(script).main(argv)
    assert info.value.code == 2
    assert "expected a value >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--max-vertices", "1"], "expected a value >= 2, got 1"),
        (["--max-vertices", "0"], "expected a value >= 2, got 0"),
        (["--max-weight", "0"], "expected a value >= 1, got 0"),
    ],
)
def test_graph_bounds_below_their_least_are_usage_errors(argv, message, capsys):
    """A graph needs two vertices for an edge, and a weight is at least 1."""
    with pytest.raises(SystemExit) as info:
        load("verify_classification").main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_small_runs_answer(capsys):
    assert load("verify_classification").main(["--count", "3"]) == 0
    assert load("odd_cycle_powers").main(["--lengths", "3", "--max-n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["3", "2", "2", "t1*t2*t3"]
