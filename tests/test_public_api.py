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


# the public surface, name by name: a name added or dropped fails here until
# this list and CHANGES.md say so
PUBLIC_NAMES = [
    "BadWeights",
    "CongruenceReport",
    "CycloNum",
    "DenominatorDivisible",
    "DimensionReport",
    "DocumentError",
    "FixedSphere",
    "GroupAction",
    "IncompatiblePoints",
    "IncompatibleSpheres",
    "InconsistentCounts",
    "IsolatedPoint",
    "LineIsotropy",
    "MissingChernSquare",
    "ModulusMismatch",
    "NonIntegerDimension",
    "NotAUnit",
    "NotCoprime",
    "NotCoprimeRotation",
    "NotInvertible",
    "NotInvolution",
    "NotRational",
    "NotSolvable",
    "Overdetermined",
    "ParityError",
    "PowerSeries",
    "Rational",
    "RelationRecord",
    "Residue",
    "ShapeMismatch",
    "Su2Isotropy",
    "Underdetermined",
    "ZeroRotation",
    "ZeroSelfIntersection",
    "action_from_dict",
    "action_to_dict",
    "boundary_chern_data",
    "check_line_bundle",
    "check_rotation_relations",
    "check_su2",
    "connected_sum_points",
    "connected_sum_spheres",
    "crt_solve",
    "defect_terms",
    "dim_invariant_moduli",
    "dim_involution",
    "dim_nonequivariant",
    "eval_point_term",
    "eval_sphere_term",
    "expand_boundary_term",
    "expand_point_term",
    "expand_sphere_term",
    "expand_su2_point_term",
    "expand_su2_sphere_term",
    "flat_chern_class",
    "galois_sum",
    "gsign_value",
    "gsignature_check",
    "is_prime",
    "line_isotropy_from_dict",
    "line_isotropy_to_dict",
    "linear_cp2",
    "linear_cp2_bar",
    "linear_s4",
    "linking_form",
    "quotient_invariants",
    "rational_mod",
    "reverse_orientation",
    "rho_lens",
    "rho_surface",
    "search_realizable",
    "series_invert_unit",
    "series_mul",
    "signed_rep",
    "sin2_term",
    "solve_theorem_a",
    "su2_isotropy_from_dict",
    "su2_isotropy_to_dict",
    "theorem_a_condition",
    "triple_cp2_bar_action",
    "validate",
    "zeta_minus_one_inv",
]


def test_the_public_surface_is_the_listed_one():
    assert sorted(equibundle.__all__) == PUBLIC_NAMES
