"""The command lines of the scripts in scripts/."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from monideal.graphs import WeightedOrientedGraph, classify

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


NINE_CYCLE = WeightedOrientedGraph.build(9, [(i, i % 9 + 1) for i in range(1, 10)])
# Vertex 2 is the 7-cycle's only sink and its only heavy vertex.
HEAVY_SINK_SEVEN_CYCLE = WeightedOrientedGraph.build(
    7, [(1, 2), (3, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 1)], {2: 2}
)


def sweep_over(monkeypatch, module, graphs):
    feed = iter(graphs)
    monkeypatch.setattr(module, "random_graph", lambda *args, **kwargs: next(feed))
    return module.main(["--count", str(len(graphs)), "--max-n", "3"])


def test_sweep_leaves_a_first_split_past_max_n_undecided(monkeypatch, capsys):
    """The 9-cycle first splits at n = 5 and the 7-cycle at n = 4, both
    past --max-n 3, so equal powers up to 3 contradict no prediction."""
    module = load("verify_classification")
    assert sweep_over(monkeypatch, module, [NINE_CYCLE, HEAVY_SINK_SEVEN_CYCLE]) == 0
    assert capsys.readouterr().out == (
        "2 graphs checked: 2 with equal squares, 0 with all powers equal "
        "(to n=3), 0 mismatches, 2 undecided\n"
    )


def test_sweep_still_fails_a_first_split_within_max_n(monkeypatch, capsys):
    """A square predicted to split at n = 2 <= 3 while it stays equal."""
    module = load("verify_classification")
    monkeypatch.setattr(
        module, "classify", lambda g: replace(classify(g), square=False)
    )
    assert sweep_over(monkeypatch, module, [NINE_CYCLE]) == 1
    out = capsys.readouterr().out
    assert out.startswith("--- mismatch at sample 0\n")
    assert out.endswith(", 1 mismatches\n")


def test_sweep_fails_a_cover_decomposition_that_differs(monkeypatch, capsys):
    """A cover that is not strong, swept in with the strong ones, is a
    mismatch even where the power comparison alone is undecided."""
    import monideal.graphs as graphs_module

    sweep_covers = graphs_module._strong_partitions
    monkeypatch.setattr(
        graphs_module,
        "_strong_partitions",
        lambda g, limit: sweep_covers(g, limit)
        + (graphs_module._partition(g, frozenset(range(1, g.num_vertices + 1))),),
    )
    module = load("verify_classification")
    assert sweep_over(monkeypatch, module, [NINE_CYCLE]) == 1
    out = capsys.readouterr().out
    assert out.startswith("--- mismatch at sample 0\n")
    assert "strong-cover decomposition differs" in out
    assert "predicted" not in out
    assert out.endswith(", 1 mismatches, 1 undecided\n")
