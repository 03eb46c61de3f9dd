"""The built-in worked examples must pass every one of their frozen checks."""

import json

import pytest

from monideal import fixtures
from monideal.cli import main
from monideal.errors import DomainError, UnknownFixture
from monideal.fixtures import ALL_FIXTURES, fixture, fixture_checks


@pytest.mark.parametrize("named", ALL_FIXTURES, ids=lambda n: n.name)
def test_fixture_checks_all_pass(named):
    results = fixture_checks(named.name)
    failures = [label for label, ok in results if not ok]
    assert not failures, f"{named.name}: {failures}"
    assert len(results) >= 5


def test_fixture_registry_is_consistent():
    names = [n.name for n in ALL_FIXTURES]
    assert len(names) == len(set(names)) == 6
    for name in names:
        assert fixture(name).name == name


def test_unknown_fixture_is_a_typed_lookup_error():
    with pytest.raises(UnknownFixture) as info:
        fixture("no_such_graph")
    assert isinstance(info.value, DomainError)
    assert isinstance(info.value, KeyError)
    assert str(info.value).startswith("no fixture named 'no_such_graph' (known: ")
    with pytest.raises(UnknownFixture):
        fixture_checks("no_such_graph")


def test_each_fact_is_computed_at_most_once_per_call(monkeypatch):
    """The rows of a fixture share its facts: one edge ideal, decomposition,
    report, dual, closure and power walk per `fixture_checks` call."""
    calls = []

    def counted(name, build):
        def fact(facts):
            calls.append(name)
            return build(facts)

        return fact

    for name, build in list(fixtures._FACTS.items()):
        monkeypatch.setitem(fixtures._FACTS, name, counted(name, build))
    for named in ALL_FIXTURES:
        calls.clear()
        assert all(ok for _, ok in fixture_checks(named.name))
        assert len(calls) == len(set(calls)), (named.name, calls)
        assert {"ideal", "powers"} <= set(calls)


def test_a_failing_check_reaches_the_summary_and_the_exit_code(monkeypatch, capsys):
    """One row whose expected value no longer holds prints FAIL, is counted
    in both output modes and makes `examples` exit 1."""
    max_n, rows = fixtures._TABLE["triangle_sink"]
    label, probe, args, _ = rows[4]
    assert label == "heavy vertex is a sink"
    wrong = rows[:4] + ((label, probe, args, ((1, 1, 1), True)),) + rows[5:]
    monkeypatch.setitem(fixtures._TABLE, "triangle_sink", (max_n, wrong))

    code = main(["examples"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "[triangle_sink] heavy vertex is a sink: FAIL" in lines
    assert sum(line.endswith(": FAIL") for line in lines) == 1
    assert lines[-1] == "70 passed, 1 failed"

    code = main(["examples", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (payload["passed"], payload["failed"]) == (70, 1)
