"""The built-in worked examples must pass every one of their frozen checks."""

import pytest

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
