"""Walk through the headline computation: two invariant instanton strata.

The manifold is the double connected sum of reversed projective planes
with a projective plane, carrying a Z/5 action with three isolated
fixed points and one fixed sphere of self-intersection -2.  Two
different SU(2) lifts of the same action give charge-1 strata of
dimensions 1 and 3 inside the 5-dimensional ambient moduli space.

Run:  python3 demos/dimension_walkthrough.py
"""

from equibundle import (
    Su2Isotropy,
    check_rotation_relations,
    dim_invariant_moduli,
    dim_nonequivariant,
    gsignature_check,
    quotient_invariants,
    triple_cp2_bar_action,
    validate,
)

act = triple_cp2_bar_action()

print("fixed point data")
print("  points :", ", ".join(pt.display() for pt in act.points))
print("  spheres:", ", ".join(s.display() for s in act.spheres))
print("  Sign = %d, chi = %d, b2 = %d" % (act.signature, act.euler, act.b2))
print()

# sanity: the data closes up (validate raises InconsistentCounts if
# not) and satisfies every congruence it must
validate(act)
assert gsignature_check(act).ok
assert check_rotation_relations(act).ok
chi_q, sign_q = quotient_invariants(act)
print("orbit space invariants: chi = %s, Sign = %s" % (chi_q, sign_q))
print("ambient moduli dimension (k=1):", dim_nonequivariant(1, act.euler, act.signature))
print()

lifts = {
    "lift 1 (weights 1, -3, 1; untwisted sphere)": Su2Isotropy((1, -3, 1), (1,), (0,), c2=1),
    "lift 2 (weights all 1; sphere twisting -1)": Su2Isotropy((1, 1, 1), (1,), (-1,), c2=1),
}

for label, iso in lifts.items():
    rep = dim_invariant_moduli(act, iso)
    print(label)
    for name, value in rep.terms:
        print("    %-24s %s" % (name, value))
    print("    dimension = %d" % rep.dimension)
    print()
