"""End-to-end acceptance battery.

Each test here pins one headline guarantee of the package: the worked
moduli dimensions, the pinned rho invariants, exactness of the
signature sums, the congruence batteries over large prime ranges, the
displayed series coefficients, solver soundness against brute force,
the boundary gluing congruences, and the closure property of the
sphere connected sum.  Everything is exact rational arithmetic; the
only tolerance anywhere is the 1e-9 of the test-side float oracle on
rho values.
"""

import itertools
import random
import time
from fractions import Fraction

from equibundle.action_model import (
    FixedSphere,
    GroupAction,
    IsolatedPoint,
    LineIsotropy,
    Su2Isotropy,
    connected_sum_points,
    connected_sum_spheres,
    linear_cp2,
    linear_cp2_bar,
    linear_s4,
    reverse_orientation,
    triple_cp2_bar_action,
)
from equibundle.congruence import (
    NotSolvable,
    check_line_bundle,
    check_rotation_relations,
    check_su2,
    gsign_value,
    solve_theorem_a,
    theorem_a_condition,
)
from equibundle.cyclotomic import ZeroRotation
from equibundle.moduli import dim_invariant_moduli, rho_lens, rho_surface
from equibundle.series import (
    expand_boundary_term,
    expand_point_term,
    expand_sphere_term,
    expand_su2_point_term,
    expand_su2_sphere_term,
)
from oracles import (
    SMALL_PRIMES,
    _boundary_data_by_scan,
    _gsign_in_the_field,
    _rho_lens_float,
    _rho_surface_float,
    _solve_by_scan,
    _solver_round_trips,
    connected_sums,
    fixed_models,
    primes,
)


def test_criterion_01_worked_strata_dimensions_exact_within_one_second():
    start = time.perf_counter()
    act = triple_cp2_bar_action()
    lift1 = Su2Isotropy((1, -3, 1), (1,), (0,), c2=1)
    lift2 = Su2Isotropy((1, 1, 1), (1,), (-1,), c2=1)
    d1 = dim_invariant_moduli(act, lift1)
    d2 = dim_invariant_moduli(act, lift2)
    elapsed = time.perf_counter() - start
    assert d1.dimension == 1
    assert d2.dimension == 3
    # every intermediate is a Fraction; the totals close to integers
    assert sum(v for _, v in d1.terms) == Fraction(1)
    assert sum(v for _, v in d2.terms) == Fraction(3)
    assert elapsed < 1.0


def test_criterion_02_pinned_rho_invariants_with_float_oracle():
    oracles = {rho_lens: _rho_lens_float, rho_surface: _rho_surface_float}
    cases = [
        (rho_lens, (5, 1, -1, 1), Fraction(-3, 5)),
        (rho_lens, (5, 2, -1, 1), Fraction(1, 5)),
        (rho_lens, (5, 2, -1, -3), Fraction(-1, 5)),
        (rho_surface, (5, 1, 1, -2, 0), Fraction(-16, 5)),
        (rho_surface, (5, 1, 1, -2, -1), Fraction(-4, 5)),
    ]
    for rho, args, want in cases:
        assert rho(*args) == want
        # the trigonometric definition, summed in floats by the test oracle
        assert abs(float(want) - oracles[rho](*args)[0]) < 1e-9


def _sum_family(p):
    """Linear models and the connected sums among them that glue."""
    models = fixed_models(p)[:5]
    sums = []
    for a, b in itertools.product(models, repeat=2):
        sums += connected_sums(a, b)
    for m in models:
        rev = reverse_orientation(m)
        for i in range(len(m.points)):
            try:
                sums.append(connected_sum_points(m, i, rev, i))
            except ValueError:
                pass
    return models, sums


def test_criterion_03_equivariant_signature_sums_are_exact():
    for p in SMALL_PRIMES:
        models, sums = _sum_family(p)
        assert sums, f"no compatible connected sums found for p = {p}"
        for act in models + sums:
            assert gsign_value(act) == Fraction(act.signature)
            for k in range(1, p):
                assert _gsign_in_the_field(act, k) == Fraction(act.signature)
    # a second-generation sum: glue one more copy onto a sum
    base = connected_sum_spheres(linear_cp2_bar(5, 1), 0, linear_cp2_bar(5, 1), 0)
    triple = connected_sum_spheres(base, 0, linear_cp2(5, 4, 0), 0)
    assert (triple.signature, triple.euler, triple.b2) == (-1, 5, 3)
    assert gsign_value(triple) == Fraction(triple.signature)
    for k in range(1, 5):
        assert _gsign_in_the_field(triple, k) == Fraction(triple.signature)


def test_criterion_04_rotation_congruence_battery_to_97():
    for p in primes(3, 97):
        for act in fixed_models(p):
            report = check_rotation_relations(act)
            assert report.ok, (p, [r.display() for r in report.failures()])
    # single-unit perturbations of the 3-point model are all rejected:
    # either the data stops being valid rotation data, or a relation fails
    base = linear_cp2(5, 1, 2)
    for idx in range(3):
        for comp in range(2):
            for delta in (1, -1):
                pts = [[pt.a, pt.b] for pt in base.points]
                pts[idx][comp] += delta
                try:
                    points = tuple(IsolatedPoint(5, a, b) for a, b in pts)
                except ZeroRotation:
                    continue  # rotation number collapsed to zero mod p
                perturbed = GroupAction(5, points, (), base.signature, base.euler, base.b2)
                assert not check_rotation_relations(perturbed).ok, (idx, comp, delta)


def test_criterion_05_line_bundle_conditions_on_cp2_for_all_primes_to_50():
    rng = random.Random(50501)
    for p in primes(3, 50):
        for a in range(1, p):
            for b in range(1, p):
                if a == b:
                    continue
                act = linear_cp2(p, a, b)
                for lam in (0, 1, rng.randrange(0, p)):
                    iso = LineIsotropy((lam, lam + a, lam + b), (), (), c1_squared=1)
                    report = check_line_bundle(act, iso)
                    assert report.ok, (p, a, b, lam, [r.display() for r in report.failures()])
        # flat model with a fixed line: twisting degree -1 passes both
        for a in range(1, p):
            act = linear_cp2(p, a, 0)
            iso = LineIsotropy((2 * a,), (a,), (-1,), c1_squared=1)
            report = check_line_bundle(act, iso)
            assert report.ok, (p, a, [r.display() for r in report.failures()])


def test_criterion_06_su2_conditions_on_s4_and_cp2bar_to_50():
    for p in primes(3, 50):
        inv2 = pow(2, p - 2, p)
        for a in range(1, p):
            for b in range(1, p):
                act = linear_s4(p, a, b)
                ell = ((b - a) * inv2 % p, (a + b) * inv2 % p)
                report = check_su2(act, Su2Isotropy(ell, (), (), c2=1))
                assert report.ok, (p, a, b, [r.display() for r in report.failures()])
        for a in range(1, p):
            bar = linear_cp2_bar(p, a)
            plain = Su2Isotropy((a,), (0,), (0,), c2=1)
            twisted = Su2Isotropy((a * inv2 % p,), (a * inv2 % p,), (-1,), c2=1)
            assert check_su2(bar, plain).ok, (p, a, "m=0")
            assert check_su2(bar, twisted).ok, (p, a, "m=-1")


def test_criterion_07_displayed_series_coefficients_at_random_tuples():
    rng = random.Random(70707)

    def nz(lo=1, hi=9):
        v = rng.randrange(lo, hi)
        return v if rng.random() < 0.5 else -v

    for _ in range(20):
        a, b, c = nz(), nz(), nz()
        alpha, m = rng.randrange(-6, 7), nz(1, 5)
        lam, ell = rng.randrange(-5, 6), rng.randrange(-5, 6)

        pt = expand_point_term(a, b, 0, 4)
        assert pt.coeff(0) == Fraction(4, a * b)
        assert pt.coeff(1) == Fraction(4, a * b)
        assert pt.coeff(2) == Fraction(a * a + b * b + 1, 3 * a * b)
        assert pt.coeff(4) == -Fraction(a**4 + b**4 - 5 * a * a * b * b + 3, 180 * a * b)

        ptw = expand_point_term(a, b, lam, 2)
        assert ptw.coeff(1) == Fraction(4 * (lam + 1), a * b)
        assert ptw.coeff(2) == Fraction(
            a * a + b * b + 1 + 6 * lam * lam + 6 * lam, 3 * a * b
        )

        sp = expand_sphere_term(c, alpha, 0, 4)
        assert sp.coeff(0) == Fraction(-4 * alpha, c * c)
        assert sp.coeff(1) == Fraction(-4 * alpha, c * c)
        assert sp.coeff(2) == Fraction(alpha * (c * c - 1), 3 * c * c)
        assert sp.coeff(4) == -Fraction(alpha * (c**4 - 1), 60 * c * c)

        spw = expand_sphere_term(c, alpha, lam, 2)
        assert spw.coeff(2) == Fraction(
            alpha * (c * c - 1 - 6 * lam - 6 * lam * lam), 3 * c * c
        )

        bd = expand_boundary_term(c, m, lam, 2)
        assert bd.coeff(0) == 0
        assert bd.coeff(1) == Fraction(4 * m, c)
        assert bd.coeff(2) == Fraction(2 * m * (2 * lam + 1), c)

        s2p = expand_su2_point_term(a, b, ell, 2)
        assert s2p.coeff(0) == Fraction(8, a * b)
        assert s2p.coeff(1) == Fraction(8, a * b)
        assert s2p.coeff(2) == Fraction(2 * (a * a + b * b + 1 + 6 * ell * ell), 3 * a * b)

        s2s = expand_su2_sphere_term(c, alpha, m, ell, 2)
        assert s2s.coeff(0) == Fraction(-8 * alpha, c * c)
        assert s2s.coeff(1) == Fraction(-8 * alpha, c * c)
        assert s2s.coeff(2) == Fraction(
            2 * (alpha * c * c - alpha - 6 * alpha * ell * ell + 12 * m * c * ell),
            3 * c * c,
        )
    # the boundary example with c=2, m=3: constant 0, then 6
    bd = expand_boundary_term(2, 3, 0, 1)
    assert bd.coeff(0) == 0 and bd.coeff(1) == 6


def _random_action_pool(p, rng):
    pool = fixed_models(p)[:3]
    a = rng.randrange(1, p)
    b = rng.randrange(1, p)
    if a != b:
        pool.append(linear_cp2(p, a, b))
    pool.append(linear_cp2_bar(p, max(a, 1)))
    return pool


def test_criterion_08_solver_round_trips_and_exhaustive_scan():
    _solver_round_trips(random.Random(80808), _random_action_pool)
    # exhaustive oracle on one-point-one-sphere data
    _solve_by_scan()


def test_criterion_09_boundary_gluing_congruences_exhaustive():
    for p in SMALL_PRIMES:
        max_alpha = 500 // p
        for alpha in range(-max_alpha, max_alpha + 1):
            if alpha == 0:
                continue
            _boundary_data_by_scan(FixedSphere(p, 1 + (alpha % 2), alpha))  # vary c a little


def _extension_after_sphere_sum(act, iso, j):
    """Glue the one-line model onto sphere j and extend the isotropy by
    giving the incoming point the sphere's fiber weight."""
    p = act.p
    c = act.spheres[j].c
    patch = linear_cp2(p, (-c) % p, 0)
    merged = connected_sum_spheres(act, j, patch, 0)
    extended = LineIsotropy(
        iso.lambda_points + (iso.lambda_spheres[j],),
        iso.lambda_spheres,
        iso.m_spheres,
    )
    return merged, extended


def test_criterion_10_sphere_sum_closure_of_the_bundle_condition():
    rng = random.Random(101010)
    cases = []
    # flat models with the solved twisting
    for p in SMALL_PRIMES:
        for a in (1, p - 1):
            act = linear_cp2(p, a, 0)
            cases.append((act, LineIsotropy((2 * a,), (a,), (-1,))))
    # constant-weight records on sphere-carrying models
    for p in SMALL_PRIMES:
        for lam in (0, 1, rng.randrange(0, p)):
            bar = linear_cp2_bar(p, 1)
            cases.append((bar, LineIsotropy((lam,), (lam,), (0,))))
    trip = triple_cp2_bar_action()
    cases.append((trip, LineIsotropy((2, 2, 2), (2,), (0,))))
    # solver-completed records
    made = 0
    while made < 25:
        p = rng.choice(SMALL_PRIMES)
        act = rng.choice([linear_cp2(p, rng.randrange(1, p), 0), linear_cp2_bar(p, rng.randrange(1, p))])
        iso = LineIsotropy(
            tuple(rng.randrange(0, p) for _ in act.points),
            tuple(rng.randrange(0, p) for _ in act.spheres),
            (None,),
        )
        try:
            cases.append((act, solve_theorem_a(act, iso)))
        except NotSolvable:
            continue
        made += 1
    assert len(cases) >= 40
    for act, iso in cases:
        assert theorem_a_condition(act, iso).ok
        for j in range(len(act.spheres)):
            merged, extended = _extension_after_sphere_sum(act, iso, j)
            report = theorem_a_condition(merged, extended)
            assert report.ok, (act.p, j, [r.display() for r in report.failures()])
