"""Command-line interface.

Every library capability is exposed as a subcommand working on ideal or
graph files (``-`` reads stdin).  Output is deterministic plain text, or a
machine-readable mirror with stable key order under ``--json``.  Each
handler collects the items of its answer in one pass over the library's
result and builds both mirrors from that list.

Exit codes: 0 success, 1 failed check or internal consistency violation,
2 parse/validation error, 3 refused resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .decomposition import (
    IrreducibleIdeal,
    MonomialPrime,
    associated_primes,
    irreducible_decomposition,
    minimal_primes,
)
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    DomainError,
    FormatError,
    ResourceLimitExceeded,
)
from .graphs import (
    DEFAULT_COVER_VERTEX_LIMIT,
    alexander_dual,
    classify,
    edge_ideal,
    format_graph,
    parse_graph,
    strong_covers,
)
from .ideals import _directives, format_ideal, format_monomial, parse_ideal
from .polyhedra import (
    DEFAULT_CONSTRAINT_LIMIT,
    DEFAULT_DIMENSION_LIMIT,
    _generators_at_vertices,
    closure_gaps,
    covering_polyhedron,
    emit_constraint_block,
    enumerate_vertices,
    format_fraction_vector,
    integral_closure_power,
    newton_hrep,
    parse_constraint_block,
    polyhedral_conditions_check,
)
from .symbolic import (
    compare_powers,
    is_ntf_up_to,
    powers_equal_up_to,
    symbolic_power_ass,
    symbolic_power_min,
)


def _at_least(low: int):
    """The argparse type of an integer option whose least value is `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a value >= {low}, got {value}")
        return value

    return parse


_positive = _at_least(1)


def _read(path: str) -> str:
    """The input text; an input that cannot be opened or decoded is refused."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(str(exc)) from exc


def _load_ideal(args):
    return parse_ideal(_read(args.path), num_vars=args.vars)


def _load_graph(args):
    return parse_graph(_read(args.path))


def _limits(args) -> dict:
    """The vertex enumeration limits given by the `poly_limits` options."""
    return {"max_dim": args.max_vars, "max_constraints": args.max_constraints}


def _flag(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value) or "none"
    return str(value)


def _flag_lines(verdicts, **notes) -> list[str]:
    """One `key: flag` line per verdict, with an optional note per key."""
    return [f"{k}: {_flag(v)}{notes.get(k, '')}" for k, v in verdicts.items()]


def _set_text(vertices) -> str:
    return "{" + ",".join(str(v) for v in sorted(vertices)) + "}"


def _primes(primes) -> list:
    return sorted(primes, key=MonomialPrime.sort_key)


def _ideal_result(ideal, **fields):
    """Payload and text line of a command whose answer is one ideal."""
    text = format_ideal(ideal)
    payload = {**fields, "gens": [list(g) for g in ideal.gens], "text": text}
    return payload, [text], 0


def _components(dec) -> list[dict]:
    """JSON entries of a decomposition's components; "text" is the text line."""
    return [{"alpha": list(c.alpha), "text": str(c)} for c in dec.components]


# ------------------------------------------------------------ subcommands


def _cmd_decompose(args):
    dec = irreducible_decomposition(_load_ideal(args))
    components = _components(dec)
    payload = {"num_vars": dec.num_vars, "components": components}
    return payload, [c["text"] for c in components], 0


def _cmd_ass(args):
    ideal = _load_ideal(args)
    minimal = minimal_primes(ideal)
    items = [
        ("minimal" if p in minimal else "embedded", p)
        for p in _primes(associated_primes(ideal))
    ]
    payload = {
        "primes": [
            {"support": sorted(p.support), "kind": kind, "text": str(p)}
            for kind, p in items
        ]
    }
    return payload, [f"{kind} {p}" for kind, p in items], 0


def _cmd_symbolic(args):
    ideal = _load_ideal(args)
    power = (symbolic_power_ass if args.ass else symbolic_power_min)(ideal, args.n)
    return _ideal_result(power, n=args.n, kind="ass" if args.ass else "min")


def _cmd_compare(args):
    report = compare_powers(_load_ideal(args), args.n)
    rows = (
        ("ordinary", "I^n", report.ordinary),
        ("symbolic_ass", "I<n>", report.symbolic_ass),
        ("symbolic_min", "I^(n)", report.symbolic_min),
    )
    verdicts = {"equal_min": report.equal_min, "equal_ass": report.equal_ass}
    payload = {
        "n": report.n,
        **{key: [list(g) for g in ideal.gens] for key, _, ideal in rows},
        **verdicts,
        "witnesses": [list(w) for w in report.witnesses],
    }
    lines = [
        f"n: {report.n}",
        *(f"{label}: {format_ideal(ideal)}" for _, label, ideal in rows),
        *_flag_lines(verdicts),
        "witnesses:" if report.witnesses else "witnesses: none",
        *(f"  {format_monomial(w)}" for w in report.witnesses),
    ]
    return payload, lines, 0


def _cmd_ntf(args):
    report = is_ntf_up_to(_load_ideal(args), args.max_n)
    base = report.ass_by_power[0][1]
    ordered = _primes(base)
    changes = [
        (n, {"gained": _primes(ass_n - base), "lost": _primes(base - ass_n)})
        for n, ass_n in report.ass_by_power
    ]
    lines = ["ass: " + "; ".join(map(str, ordered))]
    for n, change in changes:
        parts = [f"{k} " + "; ".join(map(str, ps)) for k, ps in change.items() if ps]
        lines.append(f"n={n}: " + (", ".join(parts) or "stable"))
    lines += _flag_lines({"holds": report.holds})
    payload = {
        "bound": report.bound,
        "holds": report.holds,
        "ass": [sorted(p.support) for p in ordered],
        "per_n": [
            {
                "n": n,
                "stable": not any(change.values()),
                **{k: [sorted(p.support) for p in ps] for k, ps in change.items()},
            }
            for n, change in changes
        ],
    }
    return payload, lines, 0


def _cmd_wog_classify(args):
    payload = asdict(classify(_load_graph(args)))
    return payload, _flag_lines(payload), 0


def _cmd_wog_covers(args):
    graph = _load_graph(args)
    entries = []
    lines = []
    for part in strong_covers(graph, args.max_covers):
        ideal = IrreducibleIdeal(graph.num_vertices, part.alpha)
        entries.append(
            {
                "cover": sorted(part.cover),
                "l1": sorted(part.l1),
                "l2": sorted(part.l2),
                "l3": sorted(part.l3),
                "ideal": str(ideal),
                "alpha": list(part.alpha),
            }
        )
        lines.append(
            f"{_set_text(part.cover)} L1={_set_text(part.l1)} L2={_set_text(part.l2)} "
            f"L3={_set_text(part.l3)} ideal={ideal}"
        )
    if not lines:
        lines = ["no strong covers"]
    return {"covers": entries}, lines, 0


def _cmd_wog_ideal(args):
    ideal = edge_ideal(_load_graph(args))
    return _ideal_result(ideal, num_vars=ideal.num_vars)


def _cmd_wog_dual(args):
    dual = alexander_dual(_load_graph(args))
    text = format_ideal(dual.ideal)
    components = _components(dual.decomposition)
    payload = {
        "ideal": text,
        "gens": [list(g) for g in dual.ideal.gens],
        "components": components,
    }
    lines = [f"J: {text}", "components:", *(f"  {c['text']}" for c in components)]
    return payload, lines, 0


def _looks_like_constraints(text: str) -> bool:
    return next((fields[0] == "amb_space" for _, fields in _directives(text)), False)


def _cmd_poly_vertices(args):
    text = _read(args.path)
    if _looks_like_constraints(text):
        poly = parse_constraint_block(text)
    else:
        poly = covering_polyhedron(parse_ideal(text, num_vars=args.vars))
    vertices = enumerate_vertices(poly, **_limits(args))
    payload = {
        "num_vars": poly.num_vars,
        "columns": [[str(x) for x in c] for c in poly.columns],
        "vertices": [[str(x) for x in v] for v in vertices],
    }
    if args.normaliz_format:
        block = emit_constraint_block(poly, vertices)
        return payload, block.rstrip("\n").split("\n"), 0
    return payload, [format_fraction_vector(v) for v in vertices], 0


def _cmd_newton(args):
    ideal = _load_ideal(args)
    hrep = newton_hrep(ideal, **_limits(args))
    verts = _generators_at_vertices(ideal, hrep)
    payload = {
        "vertices": [list(v) for v in verts],
        "hrep_columns": [[str(x) for x in c] for c in hrep.columns],
    }
    return payload, [format_monomial(v) for v in verts], 0


def _cmd_closure(args):
    closure = integral_closure_power(_load_ideal(args), args.n, **_limits(args))
    return _ideal_result(closure, n=args.n)


def _cmd_normal(args):
    ideal = _load_ideal(args)
    gaps = list(enumerate(closure_gaps(ideal, args.max_n, **_limits(args)), start=1))
    normal = not any(joins for _, joins in gaps)
    payload = {
        "bound": args.max_n,
        "normal": normal,
        "per_n": [
            {"n": n, "closed": not joins, "joins": [list(g) for g in joins]}
            for n, joins in gaps
        ],
    }
    lines = [
        f"n={n}: "
        + (f"not closed ({format_monomial(joins[0])} joins)" if joins else "closed")
        for n, joins in gaps
    ]
    lines += _flag_lines({"normal": normal})
    return payload, lines, 0


def _cmd_thm41(args):
    ideal = _load_ideal(args)
    report = polyhedral_conditions_check(
        ideal,
        args.max_n,
        powers_equal=powers_equal_up_to(ideal, args.max_n),
        **_limits(args),
    )
    per_power = report.closure_per_power or ()
    verdicts = {
        "bound": report.bound,
        "powers_equal": report.powers_equal,
        "minimal_decomposition": report.minimal,
        "closure_intersections": report.closure_intersections,
        "newton_equals_irreducible": report.newton_equals_irreducible,
        "vertices_are_component_inverses": report.vertices_are_component_inverses,
        # Equality is only known up to the bound, so a failing condition
        # means the powers differ later, not that the implication fails.
        "consistent": None if report.consistent is False else report.consistent,
    }
    details = ", ".join(f"n={n} {_flag(ok)}" for n, ok in per_power) or "skipped"
    lines = _flag_lines(verdicts, closure_intersections=f" ({details})")
    payload = {
        **verdicts,
        "closure_per_power": [{"n": n, "holds": ok} for n, ok in per_power],
    }
    return payload, lines, 0


def _cmd_examples(args):
    # Only this command reads the fixtures, so only it imports them.
    from .fixtures import ALL_FIXTURES, fixture, fixture_checks

    if args.list and (args.show or args.name is not None):
        raise DomainError("--list takes no fixture name and no --show")
    if args.list:
        payload = {
            "fixtures": [
                {"name": f.name, "summary": f.summary} for f in ALL_FIXTURES
            ]
        }
        return payload, [f"{f.name}: {f.summary}" for f in ALL_FIXTURES], 0
    if args.show:
        if args.name is None:
            raise DomainError("--show needs a fixture name")
        named = fixture(args.name)
        text = format_graph(named.graph)
        return (
            {"name": named.name, "graph": text},
            text.rstrip("\n").split("\n"),
            0,
        )
    names = [args.name] if args.name else [f.name for f in ALL_FIXTURES]
    lines = []
    results = []
    passed = failed = 0
    for name in names:
        for label, ok in fixture_checks(name):
            results.append({"fixture": name, "check": label, "ok": ok})
            lines.append(f"[{name}] {label}: {'PASS' if ok else 'FAIL'}")
            if ok:
                passed += 1
            else:
                failed += 1
    lines.append(f"{passed} passed, {failed} failed")
    payload = {"checks": results, "passed": passed, "failed": failed}
    return payload, lines, 1 if failed else 0


# ---------------------------------------------------------------- wiring


def _ideal_arg(p):
    p.add_argument("path", help="ideal file, or - for stdin")
    p.add_argument(
        "--vars",
        type=_positive,
        default=None,
        help="number of variables (default: inferred)",
    )


def _graph_arg(p):
    p.add_argument("path", help="graph file, or - for stdin")


def _n_arg(p):
    p.add_argument("--n", type=_positive, default=1, help="power (default 1)")


def _bound_arg(p):
    p.add_argument(
        "--max-n",
        "--power-bound",
        dest="max_n",
        type=_positive,
        default=4,
        help="largest power checked (default 4)",
    )


def _poly_limits(p):
    p.add_argument(
        "--max-vars",
        type=_positive,
        default=DEFAULT_DIMENSION_LIMIT,
        help=f"dimension limit for vertex enumeration (default {DEFAULT_DIMENSION_LIMIT})",
    )
    p.add_argument(
        "--max-constraints",
        type=_positive,
        default=DEFAULT_CONSTRAINT_LIMIT,
        help=f"constraint limit for vertex enumeration (default {DEFAULT_CONSTRAINT_LIMIT})",
    )


def _symbolic_mode(p):
    mode = p.add_mutually_exclusive_group()
    mode.add_argument(
        "--min", action="store_true", help="intersect over minimal primes (default)"
    )
    mode.add_argument(
        "--ass", action="store_true", help="intersect over maximal associated primes"
    )


def _max_covers(p):
    p.add_argument(
        "--max-covers",
        type=_positive,
        default=DEFAULT_COVER_VERTEX_LIMIT,
        help=f"vertex limit for cover enumeration (default {DEFAULT_COVER_VERTEX_LIMIT})",
    )


def _normaliz_format(p):
    p.add_argument(
        "--normaliz-format",
        action="store_true",
        help="emit the solver exchange block instead of bare vertices",
    )


def _examples_args(p):
    p.add_argument("name", nargs="?", help="run a single fixture")
    p.add_argument(
        "--list", action="store_true", help="list fixture names and summaries"
    )
    p.add_argument(
        "--show", action="store_true", help="print the named fixture's graph file"
    )


# One row per command, in the order the top-level help lists them: name,
# handler, argument adders (after --json, which every command takes), help.
_COMMANDS = (
    ("decompose", _cmd_decompose, (_ideal_arg,),
     "irreducible decomposition"),
    ("ass", _cmd_ass, (_ideal_arg,),
     "associated primes, minimal/embedded"),
    ("symbolic", _cmd_symbolic, (_ideal_arg, _n_arg, _symbolic_mode),
     "symbolic power I^(n) or I<n>"),
    ("compare", _cmd_compare, (_ideal_arg, _n_arg),
     "ordinary vs symbolic powers with witnesses"),
    ("ntf", _cmd_ntf, (_ideal_arg, _bound_arg),
     "stability of Ass(I^n) up to a bound"),
    ("wog-classify", _cmd_wog_classify, (_graph_arg,),
     "power-equality classification"),
    ("wog-covers", _cmd_wog_covers, (_graph_arg, _max_covers),
     "strong vertex covers with partitions"),
    ("wog-ideal", _cmd_wog_ideal, (_graph_arg,),
     "edge ideal of a graph"),
    ("wog-dual", _cmd_wog_dual, (_graph_arg,),
     "dual edge ideal and its components"),
    ("poly-vertices", _cmd_poly_vertices, (_ideal_arg, _poly_limits, _normaliz_format),
     "vertices of a covering-form polyhedron (ideal file or constraint block)"),
    ("newton", _cmd_newton, (_ideal_arg, _poly_limits),
     "generators lying on vertices of the Newton polyhedron"),
    ("closure", _cmd_closure, (_ideal_arg, _n_arg, _poly_limits),
     "integral closure of I^n"),
    ("normal", _cmd_normal, (_ideal_arg, _bound_arg, _poly_limits),
     "compare each I^n with its integral closure"),
    ("thm41", _cmd_thm41, (_ideal_arg, _bound_arg, _poly_limits),
     "polyhedral conditions accompanying power equality"),
    ("examples", _cmd_examples, (_examples_args,),
     "run the built-in fixtures"),
)


class _Subcommand:
    """The sub-parser of one command, built only when that command is parsed.

    The top-level help needs only the commands' names and help texts, and
    building all fifteen sub-parsers (about 0.1 ms each) was most of the
    parser's cost.  argparse calls only `parse_known_args` on this class.
    """

    def __init__(self, handler, arguments, **kwargs):
        self.handler, self.arguments, self.kwargs = handler, arguments, kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self.kwargs)
        parser.add_argument(
            "--json", action="store_true", help="emit a JSON mirror of the report"
        )
        for add in self.arguments:
            add(parser)
        parser.set_defaults(handler=self.handler)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monideal",
        description=(
            "exact computations with monomial ideals, edge ideals of weighted "
            "oriented graphs, and their polyhedra"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, handler, arguments, help_text in _COMMANDS:
        sub.add_parser(name, help=help_text, handler=handler, arguments=arguments)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, lines, code = args.handler(args)
    except (FormatError, DomainError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency violation: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
