"""Tour of the congruence machinery on small linear models.

Covers the rotation-number battery, the line bundle existence
condition and its one-unknown solver, the SU(2) analogues, and the
boundary gluing data at a fixed sphere.

Run:  python3 demos/congruence_tour.py
"""

from equibundle import (
    FixedSphere,
    GroupAction,
    IsolatedPoint,
    LineIsotropy,
    Su2Isotropy,
    boundary_chern_data,
    check_line_bundle,
    check_rotation_relations,
    check_su2,
    linear_cp2,
    linear_cp2_bar,
    linear_s4,
    search_realizable,
    solve_theorem_a,
    validate,
)

print("== rotation battery ==")
for act in [linear_cp2(7, 1, 3), linear_cp2_bar(7, 2), linear_s4(7, 2, 3)]:
    rep = check_rotation_relations(act)
    kinds = "%d points, %d spheres" % (len(act.points), len(act.spheres))
    print("  p=7  Sign=%+d  %-22s -> %s" % (act.signature, kinds, "ok" if rep.ok else "FAIL"))

# perturb one rotation number by one unit: some relation must break
base = linear_cp2(5, 1, 2)
pts = [[pt.a, pt.b] for pt in base.points]
pts[1][0] += 1
bad = GroupAction(
    5,
    tuple(IsolatedPoint(5, a, b) for a, b in pts),
    (),
    base.signature,
    base.euler,
    base.b2,
)
validate(bad)  # the counts still close up: validate raises InconsistentCounts if not
bad_report = check_rotation_relations(bad)
print("  perturbed model  ->",
      "FAIL expected, got ok" if bad_report.ok else "fails %d relations" % len(bad_report.failures()))
print()

print("== line bundle condition ==")
act = linear_cp2(7, 1, 3)
iso = LineIsotropy((2, 3, 5), (), (), c1_squared=1)
print("  canonical 3-point data:", "ok" if check_line_bundle(act, iso).ok else "FAIL")

flat = linear_cp2(5, 1, 0)
partial = LineIsotropy((2,), (1,), (None,))
done = solve_theorem_a(flat, partial)
print("  solve twisting on the fixed line: m =", done.m_spheres[0])

three = solve_theorem_a(act, LineIsotropy((2, 3, None), (), ()))
print("  solve third fiber weight: lambda_2 =", three.lambda_points[2], "(= lambda + b mod 7)")
print()

print("== su(2) lifts ==")
s4 = linear_s4(7, 1, 3)
print("  standard sphere lift:", "ok" if check_su2(s4, Su2Isotropy((1, 2), (), (), c2=1)).ok else "FAIL")
bar = linear_cp2_bar(5, 1)
for label, iso2 in [("untwisted", Su2Isotropy((1,), (0,), (0,), c2=1)),
                    ("twisted", Su2Isotropy((3,), (3,), (-1,), c2=1))]:
    print("  reversed plane, %s lift:" % label, "ok" if check_su2(bar, iso2).ok else "FAIL")
print()

print("== boundary data at a fixed sphere ==")
sphere = FixedSphere(5, 1, -2)
r = boundary_chern_data(sphere, 1, 0)
print("  alpha=-2, lambda=1, m=0  ->", r)

print()
print("== search: which rotation data close up? ==")
for found in search_realizable(5, 1, 1, [1], 1, 3, 1):
    print("  ", "; ".join(pt.display() for pt in found.points),
          "|", "; ".join(s.display() for s in found.spheres))
