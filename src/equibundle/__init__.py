"""Exact arithmetic for cyclic group actions on four-manifolds:
G-signature sums, rotation-number congruences, equivariant bundle
realizability, lens space rho invariants and invariant instanton
moduli dimensions.  Everything is integer or Fraction arithmetic;
floating point appears only as a cross-check oracle.

The public names are those the library modules list in `__all__`.
"""

from .exact_arith import *
from .cyclotomic import *
from .series import *
from .action_model import *
from .congruence import *
from .moduli import *

__all__ = (
    exact_arith.__all__
    + cyclotomic.__all__
    + series.__all__
    + action_model.__all__
    + congruence.__all__
    + moduli.__all__
)

__version__ = "0.1.0"
