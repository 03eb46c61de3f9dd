"""Command line surface: byte-exact outputs, exit codes, JSON mode."""

import argparse
import io
import json
import re
import sys
import tracemalloc

import pytest

from monideal import cli, graphs, polyhedra
from monideal.cli import main

EX51_IDEAL = "t1*t2^2, t3*t2^2, t3*t4^2, t1*t4^2\n"
EX52_IDEAL = "(t1*t2^2, t2*t3^2, t3*t1^2)\n"
EX55_IDEAL = "t1*t2^2, t2*t3\n"
EX55_GRAPH = "vertices 3\nweights 1 2 1\nedge 1 2\nedge 2 3\n"

VERTEX_BLOCK = (
    "amb_space 4\n"
    "constraints 8\n"
    "0 1 0 0 >= 0\n"
    "1 0 0 0 >= 0\n"
    "0 0 1 0 >= 0\n"
    "0 0 0 1 >= 0\n"
    "1 2 0 0 >= 1\n"
    "0 2 1 0 >= 1\n"
    "0 0 1 2 >= 1\n"
    "1 0 0 2 >= 1\n"
    "SupportHyperplanes\n"
    "ExtremeRays\n"
    "VerticesOfPolyhedron\n"
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "ex51.ideal").write_text(EX51_IDEAL)
    (tmp_path / "ex52.ideal").write_text(EX52_IDEAL)
    (tmp_path / "ex55.ideal").write_text(EX55_IDEAL)
    (tmp_path / "ex55.graph").write_text(EX55_GRAPH)
    (tmp_path / "block.in").write_text(VERTEX_BLOCK)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_output(workdir, capsys):
    code, out, err = run(capsys, "decompose", str(workdir / "ex51.ideal"))
    assert code == 0 and err == ""
    assert out == "(t1, t3)\n(t2^2, t4^2)\n"


def test_ass_output(workdir, capsys):
    code, out, _ = run(capsys, "ass", str(workdir / "ex51.ideal"))
    assert code == 0
    assert out == "minimal (t1, t3)\nminimal (t2, t4)\n"


def test_compare_output(workdir, capsys):
    code, out, _ = run(capsys, "compare", str(workdir / "ex52.ideal"), "--n", "2")
    assert code == 0
    assert out == (
        "n: 2\n"
        "I^n: (t2^2*t3^4, t1*t2^3*t3^2, t1^2*t2*t3^3, t1^2*t2^4, t1^3*t2^2*t3, t1^4*t3^2)\n"
        "I<n>: (t2^2*t3^4, t1*t2^3*t3^2, t1^2*t2*t3^3, t1^2*t2^4, t1^3*t2^2*t3, t1^4*t3^2)\n"
        "I^(n): (t1*t2^2*t3^2, t1^2*t2*t3^2, t1^2*t2^2*t3, t2^2*t3^4, t1^2*t2^4, t1^4*t3^2)\n"
        "equal_min: false\n"
        "equal_ass: true\n"
        "witnesses:\n"
        "  t1*t2^2*t3^2\n"
        "  t1^2*t2*t3^2\n"
        "  t1^2*t2^2*t3\n"
    )


def test_symbolic_min_vs_ass(workdir, capsys):
    path = str(workdir / "ex55.ideal")
    code, out, _ = run(capsys, "symbolic", path, "--n", "1", "--min")
    assert (code, out) == (0, "(t2*t3, t1*t2)\n")
    code, out, _ = run(capsys, "symbolic", path, "--n", "1", "--ass")
    assert (code, out) == (0, "(t2*t3, t1*t2^2)\n")


def test_ntf_verdict_exit_zero(workdir, capsys):
    code, out, _ = run(capsys, "ntf", str(workdir / "ex55.ideal"), "--max-n", "2")
    assert code == 0
    assert out == (
        "ass: (t2); (t1, t3); (t2, t3)\n"
        "n=1: stable\n"
        "n=2: stable\n"
        "holds: true\n"
    )


def test_wog_commands(workdir, capsys):
    path = str(workdir / "ex55.graph")
    code, out, _ = run(capsys, "wog-classify", path)
    assert code == 0
    assert out == (
        "square: false\n"
        "all_powers: false\n"
        "ntf: none\n"
        "all_heavy_are_sinks: false\n"
        "heavy_non_sinks: 2\n"
        "has_triangle: false\n"
        "is_bipartite: true\n"
        "odd_girth: none\n"
        "has_embedded_primes: true\n"
    )
    code, out, _ = run(capsys, "wog-covers", path)
    assert code == 0
    assert out == (
        "{2} L1={2} L2={} L3={} ideal=(t2)\n"
        "{1,3} L1={1} L2={3} L3={} ideal=(t1, t3)\n"
        "{2,3} L1={} L2={2} L3={3} ideal=(t2^2, t3)\n"
    )
    code, out, _ = run(capsys, "wog-ideal", path)
    assert (code, out) == (0, "(t2*t3, t1*t2^2)\n")
    code, out, _ = run(capsys, "wog-dual", path)
    assert code == 0
    assert out == "J: (t2^2, t1*t3, t1*t2)\ncomponents:\n  (t2, t3)\n  (t1, t2^2)\n"


def test_wog_covers_sweeps_through_strong_covers_once(workdir, capsys, monkeypatch):
    """`wog-covers` reaches the cover sweep through the public
    `graphs.strong_covers`, so a wrapper that rebinds every binding of it in
    the `monideal` modules, as the benchmark's tracer does, sees the sweep."""
    real = graphs.strong_covers
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("monideal") and module is not None:
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counting)
    code, _, _ = run(capsys, "wog-covers", str(workdir / "ex55.graph"))
    assert code == 0 and len(calls) == 1


def test_newton_enumerates_q_once(tmp_path, capsys, monkeypatch):
    """`newton` enumerates the vertices of Q(I) once, for the description,
    and reads the Newton vertices off the rows tight at each generator."""
    real = polyhedra._vertex_certificates
    calls = []

    def counting(poly):
        calls.append(poly)
        return real(poly)

    monkeypatch.setattr(polyhedra, "_vertex_certificates", counting)
    path = tmp_path / "q.ideal"
    path.write_text("t1*t2, t2*t3^2, t3*t4, t4*t1^3\n")
    code, _, _ = run(capsys, "newton", str(path))
    assert code == 0 and len(calls) == 1


def test_polyhedron_commands(workdir, capsys):
    path = str(workdir / "ex51.ideal")
    code, out, _ = run(capsys, "poly-vertices", path)
    assert (code, out) == (0, "(0,1/2,0,1/2)\n(1,0,1,0)\n")
    code, out, _ = run(capsys, "newton", path)
    assert (code, out) == (0, "t3*t4^2\nt2^2*t3\nt1*t4^2\nt1*t2^2\n")
    code, out, _ = run(capsys, "closure", path)
    assert (code, out) == (
        0,
        "(t3*t4^2, t2*t3*t4, t2^2*t3, t1*t4^2, t1*t2*t4, t1*t2^2)\n",
    )
    code, out, _ = run(capsys, "normal", path, "--power-bound", "2")
    assert code == 0
    assert out == (
        "n=1: not closed (t2*t3*t4 joins)\n"
        "n=2: not closed (t2*t3^2*t4^3 joins)\n"
        "normal: false\n"
    )
    code, out, _ = run(capsys, "thm41", path, "--max-n", "2")
    assert code == 0
    assert out == (
        "bound: 2\n"
        "powers_equal: true\n"
        "minimal_decomposition: true\n"
        "closure_intersections: true (n=1 true, n=2 true)\n"
        "newton_equals_irreducible: true\n"
        "vertices_are_component_inverses: true\n"
        "consistent: true\n"
    )


def test_vertex_block_round_trip(workdir, capsys):
    code, out, _ = run(
        capsys, "poly-vertices", str(workdir / "block.in"), "--normaliz-format"
    )
    assert code == 0
    assert out.endswith("VerticesOfPolyhedron 2\n0 1/2 0 1/2\n1 0 1 0\n")
    assert out.startswith("amb_space 4\nconstraints 8\n")


def test_stdin_input(workdir, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(EX51_IDEAL))
    code, out, _ = run(capsys, "decompose", "-")
    assert (code, out) == (0, "(t1, t3)\n(t2^2, t4^2)\n")


def test_json_mode_is_sorted_and_stable(workdir, capsys):
    path = str(workdir / "ex55.graph")
    code, first, _ = run(capsys, "wog-classify", path, "--json")
    assert code == 0
    payload = json.loads(first)
    assert payload["heavy_non_sinks"] == [2]
    assert payload["ntf"] is None
    assert list(payload) == sorted(payload)
    _, second, _ = run(capsys, "wog-classify", path, "--json")
    assert first == second


def test_examples_command(capsys):
    code, out, _ = run(capsys, "examples", "triangle_sink")
    assert code == 0
    assert out.endswith("7 passed, 0 failed\n")
    assert "[triangle_sink] decomposition: PASS" in out
    code, out, _ = run(capsys, "examples", "--list")
    assert code == 0 and out.startswith("four_cycle_sinks:")
    code, out, _ = run(capsys, "examples", "seven_cycle", "--show")
    assert code == 0 and out.startswith("vertices 7\n")


def test_missing_file_is_a_usage_error(workdir, capsys):
    code, _, err = run(capsys, "decompose", str(workdir / "nope.ideal"))
    assert code == 2
    assert err.startswith("error:")


def test_missing_file_message_is_the_open_error(workdir, capsys):
    path = workdir / "nope.ideal"
    with pytest.raises(OSError) as info:
        open(path, encoding="utf-8")
    code, out, err = run(capsys, "ass", str(path))
    assert (code, out, err) == (2, "", f"error: {info.value}\n")


def test_undecodable_file_is_a_usage_error(workdir, capsys):
    bad = workdir / "latin1.ideal"
    bad.write_bytes(b"t1*t2, \xff\n")
    code, out, err = run(capsys, "decompose", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_parse_error_reporting(workdir, capsys):
    bad = workdir / "bad.ideal"
    bad.write_text("(t1*bad^^2)\n")
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 2
    assert "malformed monomial factor" in err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("wog-classify", "vertices 2\nedge 1 1\n", "line 2: self loop at vertex 1"),
        ("poly-vertices", "amb_space 2\n1 1 >= 2\n", "line 2: right-hand side must be 0 or 1, got 2"),
    ],
    ids=["graph", "constraint-block"],
)
def test_graph_and_constraint_block_refusals_exit_two(command, text, message, workdir, capsys):
    bad = workdir / "bad.in"
    bad.write_text(text)
    assert run(capsys, command, str(bad)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("decompose", "t1*t\u0663\n", "'\u0663'"),
        ("wog-classify", "vertices \u00b2\nedge 1 2\n", "line 1: '\u00b2'"),
        ("poly-vertices", "amb_space \u0663\n", "line 1: '\u0663'"),
    ],
    ids=["ideal", "graph", "constraint-block"],
)
def test_non_ascii_digits_exit_two_naming_the_token(command, text, message, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, command, "-")
    assert (code, out) == (2, "")
    assert err == f"error: {message} is not written in ASCII digits 0-9\n"


def test_resource_limit_exit_code(workdir, capsys):
    lines = ["vertices 30"] + [f"edge {i} {i+1}" for i in range(1, 30)]
    big = workdir / "big.graph"
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "wog-covers", str(big))
    assert code == 3
    assert "--max-covers" in err


def test_absurd_variable_count_is_a_resource_limit(monkeypatch, capsys):
    """`echo t100000000 | monideal decompose -` is refused before parsing
    builds a vector of 10^8 entries."""
    monkeypatch.setattr("sys.stdin", io.StringIO("t100000000\n"))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "decompose", "-")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert (code, out) == (3, "")
    assert err == "error: 100000000 variables exceed the parser's limit 100000\n"


LONG_DIGITS = "9" * 5000  # past int(str)'s default limit of 4,300 digits


@pytest.mark.parametrize(
    "command, text, where",
    [
        ("decompose", f"t{LONG_DIGITS}\n", ""),
        ("decompose", f"t1^{LONG_DIGITS}\n", ""),
        ("wog-classify", f"vertices {LONG_DIGITS}\nedge 1 2\n", "line 1: "),
        ("poly-vertices", f"amb_space {LONG_DIGITS}\n", "line 1: "),
        ("poly-vertices", f"amb_space 2\nconstraints {LONG_DIGITS}\n1 1 >= 1\n", "line 2: "),
    ],
    ids=["index", "exponent", "vertices", "amb_space", "constraints"],
)
def test_over_long_integers_are_format_errors(command, text, where, monkeypatch, capsys):
    """One short stderr line, without the digits, and no traceback."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, command, "-")
    assert (code, out) == (2, "")
    assert err == f"error: {where}an integer of 5000 digits is too long\n"


def test_thm41_passes_its_limits_to_the_closure(workdir, capsys):
    """--max-vars reaches every vertex enumeration, the closures' included."""
    wide = workdir / "wide.ideal"
    wide.write_text("t1, t2\n")
    code, out, err = run(
        capsys, "thm41", str(wide), "--vars", "9", "--max-n", "2", "--max-vars", "9"
    )
    assert (code, err) == (0, "")
    assert out.startswith("bound: 2\npowers_equal: true\n")


def test_unknown_example_name(capsys):
    code, _, err = run(capsys, "examples", "mystery_graph")
    assert code == 2
    assert "mystery_graph" in err


def test_unknown_example_stderr_is_exact(capsys):
    code, out, err = run(capsys, "examples", "mystery_graph", "--show")
    assert (code, out) == (2, "")
    assert err == (
        "error: no fixture named 'mystery_graph' (known: four_cycle_sinks, "
        "triangle_cycle, triangle_nonsink, triangle_sink, path_middle, seven_cycle)\n"
    )


def test_internal_key_error_is_not_a_usage_error(workdir, monkeypatch):
    """Only typed errors map to exit 2; a stray KeyError is a bug and propagates."""
    import monideal.cli as cli

    def broken(ideal):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "irreducible_decomposition", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["decompose", str(workdir / "ex51.ideal")])


def test_internal_os_error_is_not_a_usage_error(workdir, monkeypatch):
    """Only opening or decoding the input maps to exit 2; an OSError raised
    while computing (say a TimeoutError) propagates."""
    import monideal.cli as cli

    def broken(ideal):
        raise TimeoutError("internal")

    monkeypatch.setattr(cli, "irreducible_decomposition", broken)
    with pytest.raises(TimeoutError, match="internal"):
        main(["decompose", str(workdir / "ex51.ideal")])


def test_bad_flag_value_exits_two(workdir, capsys):
    with pytest.raises(SystemExit) as info:
        main(["compare", str(workdir / "ex52.ideal"), "--n", "0"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith("argument --n: expected a value >= 1, got 0\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1_0", "expected an integer, got '1_0'"),
        ("+1", "expected an integer, got '+1'"),
        (" 2", "expected an integer, got ' 2'"),
        ("\u0662", "'\u0662' is not written in ASCII digits 0-9"),
    ],
    ids=["underscore", "plus", "space", "arabic-indic"],
)
def test_flags_take_ascii_digits_only(text, message, workdir, capsys):
    """A flag's integer follows the text formats' digit rule; int() read
    these as 10, 1, 2 and 2."""
    with pytest.raises(SystemExit) as info:
        main(["compare", str(workdir / "ex52.ideal"), "--n", text])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"argument --n: {message}\n")


# The usage line of each command, as the parser built every sub-parser up
# front printed it.
USAGE_LINES = {
    "decompose": "[-h] [--json] [--vars VARS] path",
    "ass": "[-h] [--json] [--vars VARS] path",
    "symbolic": "[-h] [--json] [--vars VARS] [--n N] [--min | --ass] path",
    "compare": "[-h] [--json] [--vars VARS] [--n N] path",
    "ntf": "[-h] [--json] [--vars VARS] [--max-n MAX_N] path",
    "wog-classify": "[-h] [--json] path",
    "wog-covers": "[-h] [--json] [--max-covers MAX_COVERS] path",
    "wog-ideal": "[-h] [--json] path",
    "wog-dual": "[-h] [--json] path",
    "poly-vertices": "[-h] [--json] [--vars VARS] [--max-vars MAX_VARS] "
    "[--max-constraints MAX_CONSTRAINTS] [--normaliz-format] path",
    "newton": "[-h] [--json] [--vars VARS] [--max-vars MAX_VARS] "
    "[--max-constraints MAX_CONSTRAINTS] path",
    "closure": "[-h] [--json] [--vars VARS] [--n N] [--max-vars MAX_VARS] "
    "[--max-constraints MAX_CONSTRAINTS] path",
    "normal": "[-h] [--json] [--vars VARS] [--max-n MAX_N] [--max-vars MAX_VARS] "
    "[--max-constraints MAX_CONSTRAINTS] path",
    "thm41": "[-h] [--json] [--vars VARS] [--max-n MAX_N] [--max-vars MAX_VARS] "
    "[--max-constraints MAX_CONSTRAINTS] path",
    "examples": "[-h] [--json] [--list] [--show] [name]",
}


@pytest.mark.parametrize("command", USAGE_LINES)
def test_each_command_parses_its_own_arguments(command, capsys, monkeypatch):
    """Each sub-parser is built when its command is parsed, with the
    arguments and handler of that command."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"usage: monideal {command} {USAGE_LINES[command]}"
    )
    args = cli.build_parser().parse_args([command, "x"] if command != "examples" else [command])
    assert args.command == command and args.json is False
    assert args.handler is getattr(cli, "_cmd_" + command.replace("-", "_"))


def test_top_level_help_lists_the_commands_in_order(capsys, monkeypatch):
    """The command table's rows give the order of the top-level help."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = re.findall(r"^    (\S+) +\S", capsys.readouterr().out, flags=re.M)
    assert listed == list(USAGE_LINES)


def test_main_builds_only_the_named_sub_parser(workdir, capsys, monkeypatch):
    """The top-level help lists every command from its name and help text,
    so a call builds two parsers: the top level and its own command's."""
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, "compare", str(workdir / "ex52.ideal"), "--n", "3")[0] == 0
    assert built == ["monideal", "monideal compare"]
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert all(name in out for name in USAGE_LINES), out
