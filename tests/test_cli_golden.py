"""Golden CLI outputs: stdout (text and --json), stderr and exit code.

Every subcommand runs on the inputs of test_cli.py (plus an edgeless and a
triangle graph), in both output modes, and the results must match
``cli_golden.json`` byte for byte.  Error cases pin stderr too, except
where the message would name a temporary path.

After a deliberate change of output, rewrite the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from monideal.cli import main

from test_cli import EX51_IDEAL, EX52_IDEAL, EX55_GRAPH, EX55_IDEAL, VERTEX_BLOCK

GOLDEN = Path(__file__).with_name("cli_golden.json")

INPUTS = {
    "ex51.ideal": EX51_IDEAL,
    "ex52.ideal": EX52_IDEAL,
    "ex55.ideal": EX55_IDEAL,
    "ex55.graph": EX55_GRAPH,
    "block.in": VERTEX_BLOCK,
    # The same block, led by a comment and broken by blank lines and trailing
    # comments: poly-vertices still reads it as a constraint block.
    "commented-block.in": "# the 4-cycle's covering polyhedron\n\n"
    + "".join(f"{line}  # row {k}\n\n" for k, line in enumerate(VERTEX_BLOCK.splitlines())),
    "edgeless.graph": "vertices 3\nweights 1 2 1\n",
    "triangle.graph": "vertices 3\nweights 1 2 1\nedge 1 2\nedge 2 3\nedge 1 3\n",
    # Vertex 1 is a source of weight 5, which I(D) never reads.
    "heavy-source.graph": "vertices 4\nweights 5 3 2 1\nedge 1 2\nedge 2 3\nedge 1 4\n",
    "bad.ideal": "(t1*bad^^2)\n",
    "big.graph": "\n".join(["vertices 30"] + [f"edge {i} {i + 1}" for i in range(1, 30)]) + "\n",
    "wide.ideal": "t1, t2\n",
    # One exponent vector, whose parentheses are its own: the ideal (t1^2*t2).
    "lone-vector.ideal": "(2,1)\n",
    "c5.ideal": "t1*t2, t2*t3, t3*t4, t4*t5, t5*t1\n",
    "c9.ideal": ", ".join(f"t{i}*t{i % 9 + 1}" for i in range(1, 10)) + "\n",
    # The Alexander dual of a 5-vertex graph.  Q(I) has 26 vertices, so the
    # Newton description has 26 columns, more than the default limit of 24.
    "dual52.ideal": "t2*t3*t4*t5, t1^2*t2*t3*t5, t1^2*t3*t4*t5^2, t1^2*t2*t3*t4^3, t1^2*t2*t4^3*t5^2\n",
}

# (case id, argv); file names are resolved against the input directory.
# Each case also runs with --json.
CASES = [
    ("decompose-ex51", ["decompose", "ex51.ideal"]),
    ("decompose-ex52", ["decompose", "ex52.ideal"]),
    ("decompose-ex55", ["decompose", "ex55.ideal"]),
    ("decompose-lone-vector", ["decompose", "lone-vector.ideal"]),
    ("ass-ex51", ["ass", "ex51.ideal"]),
    ("ass-ex52", ["ass", "ex52.ideal"]),
    ("ass-ex55", ["ass", "ex55.ideal"]),
    ("symbolic-ex55-min", ["symbolic", "ex55.ideal", "--n", "1", "--min"]),
    ("symbolic-ex55-ass", ["symbolic", "ex55.ideal", "--n", "1", "--ass"]),
    ("symbolic-ex52-n2", ["symbolic", "ex52.ideal", "--n", "2"]),
    ("compare-ex52-n2", ["compare", "ex52.ideal", "--n", "2"]),
    ("compare-ex51-n2", ["compare", "ex51.ideal", "--n", "2"]),
    ("compare-ex55-n2", ["compare", "ex55.ideal", "--n", "2"]),
    ("ntf-ex55", ["ntf", "ex55.ideal", "--max-n", "2"]),
    ("ntf-ex52", ["ntf", "ex52.ideal", "--max-n", "2"]),
    ("wog-classify-ex55", ["wog-classify", "ex55.graph"]),
    ("wog-classify-edgeless", ["wog-classify", "edgeless.graph"]),
    ("wog-classify-triangle", ["wog-classify", "triangle.graph"]),
    ("wog-covers-ex55", ["wog-covers", "ex55.graph"]),
    ("wog-ideal-ex55", ["wog-ideal", "ex55.graph"]),
    ("wog-dual-ex55", ["wog-dual", "ex55.graph"]),
    ("wog-classify-heavy-source", ["wog-classify", "heavy-source.graph"]),
    ("wog-covers-heavy-source", ["wog-covers", "heavy-source.graph"]),
    ("wog-ideal-heavy-source", ["wog-ideal", "heavy-source.graph"]),
    ("wog-dual-heavy-source", ["wog-dual", "heavy-source.graph"]),
    ("poly-vertices-ex51", ["poly-vertices", "ex51.ideal"]),
    ("poly-vertices-block", ["poly-vertices", "block.in"]),
    ("poly-vertices-block-normaliz", ["poly-vertices", "block.in", "--normaliz-format"]),
    ("poly-vertices-commented-block", ["poly-vertices", "commented-block.in"]),
    ("newton-ex51", ["newton", "ex51.ideal"]),
    # 5 generators but 26 vertices of Q(I): the vertex test reads all 26
    # columns of the Newton description, beyond the column limit.
    ("newton-dual52", ["newton", "dual52.ideal"]),
    ("closure-ex51", ["closure", "ex51.ideal"]),
    ("closure-ex51-n2", ["closure", "ex51.ideal", "--n", "2"]),
    # A 19,683-point box, answered by the pruned search.
    ("closure-c9-n2", ["closure", "c9.ideal", "--n", "2", "--max-vars", "9"]),
    ("normal-ex51", ["normal", "ex51.ideal", "--power-bound", "2"]),
    ("normal-ex55", ["normal", "ex55.ideal", "--max-n", "2"]),
    ("thm41-ex51", ["thm41", "ex51.ideal", "--max-n", "2"]),
    ("thm41-ex52", ["thm41", "ex52.ideal", "--max-n", "2"]),
    ("thm41-ex55", ["thm41", "ex55.ideal", "--max-n", "2"]),
    # Equal up to n = 2 while (b) and (c) fail: the powers differ at n = 3.
    ("thm41-c5", ["thm41", "c5.ideal", "--max-n", "2"]),
    ("thm41-dual52", ["thm41", "dual52.ideal", "--max-n", "2"]),
    # Every fixture's checks: all 71 labels, their order and the summary line.
    ("examples-all", ["examples"]),
    ("examples-triangle-sink", ["examples", "triangle_sink"]),
    ("examples-list", ["examples", "--list"]),
    ("examples-show", ["examples", "seven_cycle", "--show"]),
    # Error cases whose messages name no file.
    ("error-parse", ["decompose", "bad.ideal"]),
    ("error-covers-limit", ["wog-covers", "big.graph"]),
    ("error-unknown-example", ["examples", "mystery_graph"]),
    ("error-unknown-example-show", ["examples", "mystery_graph", "--show"]),
    ("error-examples-show-unnamed", ["examples", "--show"]),
    ("error-examples-list-show", ["examples", "--list", "--show"]),
    ("error-examples-list-named", ["examples", "seven_cycle", "--list"]),
    ("error-dual-edgeless", ["wog-dual", "edgeless.graph"]),
    ("error-closure-wide", ["closure", "wide.ideal", "--vars", "9"]),
    ("error-thm41-constraints", ["thm41", "ex51.ideal", "--max-constraints", "3"]),
]


def write_inputs(directory: Path) -> Path:
    for name, text in INPUTS.items():
        (directory / name).write_text(text)
    return directory


def _resolve(argv, directory: Path):
    return [str(directory / a) if a in INPUTS else a for a in argv]


def run_case(argv, directory: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_resolve(argv, directory))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _all_cases():
    for case_id, argv in CASES:
        yield case_id, argv
        yield case_id + "-json", argv + ["--json"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id for case_id, _ in _all_cases())


@pytest.mark.parametrize("case_id, argv", list(_all_cases()), ids=[c for c, _ in _all_cases()])
def test_cli_output_matches_golden(case_id, argv, inputs, golden):
    assert run_case(argv, inputs) == golden[case_id]


def _write_golden():
    with tempfile.TemporaryDirectory() as name:
        directory = write_inputs(Path(name))
        data = {case_id: run_case(argv, directory) for case_id, argv in _all_cases()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    _write_golden()
