"""The package re-exports each library module's `__all__`: no name is
claimed by two modules, and every exported name resolves."""

from collections import Counter

import pytest

import equibundle
from equibundle import action_model, congruence, cyclotomic, exact_arith, moduli, series

LIBRARY = (exact_arith, cyclotomic, series, action_model, congruence, moduli)


def test_no_name_is_exported_by_two_modules():
    owners = Counter(name for mod in LIBRARY for name in mod.__all__)
    assert [name for name, count in owners.items() if count > 1] == []


def test_package_all_has_no_duplicates_and_every_entry_resolves():
    assert len(equibundle.__all__) == len(set(equibundle.__all__))
    assert [name for name in equibundle.__all__ if not hasattr(equibundle, name)] == []


@pytest.mark.parametrize("mod", LIBRARY, ids=lambda mod: mod.__name__)
def test_every_name_in_all_is_defined(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
