"""The package's public names are exactly the names its library modules
list in `__all__`."""

import types

import pytest

import equibundle
from equibundle import action_model, congruence, cyclotomic, exact_arith, moduli, series

LIBRARY = (exact_arith, cyclotomic, series, action_model, congruence, moduli)


def test_package_exports_the_union_of_the_library_modules_all():
    public = {
        name
        for name, value in vars(equibundle).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for mod in LIBRARY for name in mod.__all__}


@pytest.mark.parametrize("mod", LIBRARY, ids=lambda mod: mod.__name__)
def test_every_name_in_all_is_defined(mod):
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
