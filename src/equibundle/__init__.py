"""Exact arithmetic for cyclic group actions on four-manifolds:
G-signature sums, rotation-number congruences, equivariant bundle
realizability, lens space rho invariants and invariant instanton
moduli dimensions.  Everything is integer or Fraction arithmetic; no
float is computed at runtime.

The public names are those the library modules list in `__all__`.
They load on first use (PEP 562): `import equibundle` runs no library
module, and the first read of a public name, `__all__` or `dir()`
imports all six.  A submodule import loads only what it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("exact_arith", "cyclotomic", "series", "action_model", "congruence", "moduli")


def __getattr__(name: str):
    if "__all__" not in globals():
        modules = [import_module(f".{modname}", __name__) for modname in _MODULES]
        globals().update((n, getattr(mod, n)) for mod in modules for n in mod.__all__)
        globals()["__all__"] = [n for mod in modules for n in mod.__all__]
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        __getattr__("__all__")
    return sorted(globals())
