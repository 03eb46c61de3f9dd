"""Shared strategies and reporting hooks for the test suite."""

import random

import hypothesis.strategies as st
from hypothesis import settings

from monideal.ideals import MonomialIdeal
from monideal.random_instances import random_graph

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")


def random_ideal(
    rng: random.Random,
    num_vars: int,
    max_gens: int = 6,
    max_exp: int = 3,
) -> MonomialIdeal:
    """A proper nonzero monomial ideal with exponents in 0..max_exp."""
    count = rng.randint(1, max_gens)
    gens = []
    while len(gens) < count:
        v = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        if any(v):
            gens.append(v)
    return MonomialIdeal.from_gens(gens, num_vars)


@st.composite
def ideals(draw, max_vars: int = 4, max_gens: int = 5, max_exp: int = 3):
    """Proper nonzero monomial ideals in up to `max_vars` variables."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    rng = random.Random(seed)
    return random_ideal(rng, num_vars, max_gens=max_gens, max_exp=max_exp)


@st.composite
def graphs(draw, max_vertices: int = 5, max_weight: int = 3):
    """Weighted oriented graphs with at least one edge."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    num_vertices = draw(st.integers(min_value=2, max_value=max_vertices))
    rng = random.Random(seed)
    return random_graph(rng, num_vertices, max_weight=max_weight)


# One human-readable verdict line per acceptance criterion, printed after the
# normal pytest summary.  Keys are test function names in test_acceptance.py.

ACCEPTANCE_LABELS = {
    "test_c01_four_cycle_worked_example": "criterion 1 (4-cycle with sink weights: ideal, decomposition, powers, closure, vertices, dual)",
    "test_c02_triangle_cycle_embedded_prime": "criterion 2 (weighted 3-cycle: decomposition, irrelevant associated prime, symbolic powers)",
    "test_c03_triangle_non_sink_heavy": "criterion 3 (triangle with heavy non-sink: squares differ, cause reported)",
    "test_c04_triangle_sink_heavy": "criterion 4 (triangle with heavy sink: squares still differ via the odd cycle)",
    "test_c05_path_heavy_middle": "criterion 5 (path with heavy middle: localizations and power comparisons)",
    "test_c06_square_classification_population": "criterion 6 (random population: I^(2) = I^2 matches sink/triangle classification)",
    "test_c07_all_powers_classification_population": "criterion 7 (random population: all powers match sink/bipartite classification; 7-cycle splits at 4)",
    "test_c08_polyhedral_conditions": "criterion 8 (polyhedral conditions (a)(b)(c) on the 4-cycle ideal and its dual)",
    "test_c09_randomized_oracles": "criterion 9 (randomized oracle battery: decomposition, Ass, localization, closure, covers)",
    "test_c10_cli_parity": "criterion 10 (CLI reproduces the reference vertex block and witness output)",
}


def pytest_terminal_summary(terminalreporter):
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            if getattr(report, "when", "call") != "call":
                continue
            name = report.nodeid.rsplit("::", 1)[-1]
            if name in ACCEPTANCE_LABELS:
                verdict = "PASS" if outcome == "passed" else "FAIL"
                lines.append((name, f"{ACCEPTANCE_LABELS[name]}: {verdict}"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
