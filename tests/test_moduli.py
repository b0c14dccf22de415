import random
import sys
from fractions import Fraction

import pytest

from equibundle import _poly, congruence, cyclotomic, moduli, series
from equibundle.action_model import (
    FixedSphere,
    GroupAction,
    IsolatedPoint,
    Su2Isotropy,
    connected_sum_spheres,
    linear_cp2,
    linear_cp2_bar,
    linear_s4,
    reverse_orientation,
    triple_cp2_bar_action,
)
from equibundle.congruence import gsign_value, gsignature_check
from equibundle.cyclotomic import (
    NotRational,
    eval_point_term,
    eval_sphere_term,
    galois_sum,
    sin2_term,
    sin_cot_term,
)
from equibundle.moduli import (
    DimensionReport,
    FloatMismatch,
    NonIntegerDimension,
    NotInvolution,
    ParityError,
    RhoValue,
    defect_terms,
    dim_invariant_moduli,
    dim_involution,
    dim_nonequivariant,
    quotient_invariants,
    rho_lens,
    rho_surface,
)

PINNED_LENS = [
    ((5, 1, -1, 1), Fraction(-3, 5)),
    ((5, 2, -1, 1), Fraction(1, 5)),
    ((5, 2, -1, -3), Fraction(-1, 5)),
]

PINNED_SURFACE = [
    ((5, 1, 1, -2, 0), Fraction(-16, 5)),
    ((5, 1, 1, -2, -1), Fraction(-4, 5)),
]

ORACLE_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


# -- oracles: the p-fold sums, one field evaluation per group power k ------


def _rho_lens_p_fold(p, a, b, ell):
    return Fraction(-2, p) * galois_sum(
        p, lambda k: eval_point_term(p, k, a, b) * sin2_term(p, k * ell)
    )


def _rho_surface_p_fold(p, c, ell, alpha, m):
    part1 = Fraction(2, p) * galois_sum(
        p, lambda k: eval_sphere_term(p, k, c, alpha) * sin2_term(p, k * ell)
    )
    part2 = Fraction(-4 * m, p) * galois_sum(p, lambda k: sin_cot_term(p, k * ell, k * c))
    return part1 + part2


def _action_pool(p, rng):
    a = rng.randrange(1, p)
    pool = [linear_cp2(p, a, 0), linear_cp2_bar(p, a), linear_s4(p, a, rng.randrange(1, p))]
    pool.append(connected_sum_spheres(pool[1], 0, linear_cp2_bar(p, a), 0))
    b = rng.randrange(1, p)
    if b != a and (a + b) % p:
        pool.append(reverse_orientation(linear_cp2(p, a, b)))
    return pool


def test_pinned_lens_values():
    for args, want in PINNED_LENS:
        got = rho_lens(*args)
        assert got.exact == want
        assert abs(float(want) - got.float_check) < 1e-9


def test_pinned_surface_values():
    for args, want in PINNED_SURFACE:
        got = rho_surface(*args)
        assert got.exact == want
        assert abs(float(want) - got.float_check) < 1e-9


def test_rho_zero_weight_vanishes():
    rng = random.Random(9100)
    for _ in range(10):
        p = rng.choice([3, 5, 7, 11])
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        assert rho_lens(p, a, b, 0).exact == 0
        assert rho_lens(p, a, b, 3 * p).exact == 0
        c = rng.randrange(1, p)
        assert rho_surface(p, c, 0, rng.randrange(-4, 5), rng.randrange(-3, 4)).exact == 0


def test_rho_lens_symmetries():
    rng = random.Random(9101)
    for _ in range(25):
        p = rng.choice([3, 5, 7, 11, 13])
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        ell = rng.randrange(1, p)
        base = rho_lens(p, a, b, ell).exact
        # representative independence and evenness in the weight
        assert rho_lens(p, a + p, b - 2 * p, ell).exact == base
        assert rho_lens(p, a, b, ell + p).exact == base
        assert rho_lens(p, a, b, -ell).exact == base
        # orientation reversal of one rotation number flips the sign
        assert rho_lens(p, a, -b, ell).exact == -base


def test_rho_surface_linearity_in_twisting():
    # the framing term is linear in m, the alpha term independent of it
    rng = random.Random(9102)
    for _ in range(25):
        p = rng.choice([3, 5, 7, 11])
        c = rng.randrange(1, p)
        ell = rng.randrange(1, p)
        alpha = rng.randrange(-4, 5)
        r0 = rho_surface(p, c, ell, alpha, 0).exact
        r1 = rho_surface(p, c, ell, alpha, 1).exact
        r2 = rho_surface(p, c, ell, alpha, 2).exact
        assert r2 - r1 == r1 - r0
        assert rho_surface(p, c, ell, 0, 0).exact == 0


def test_rho_float_agreement_larger_prime():
    # every exact value is independently shadowed by the trig sum
    for ell in (1, 7, 30):
        v = rho_lens(61, 2, 5, ell)
        assert abs(float(v.exact) - v.float_check) < 1e-9
    w = rho_surface(61, 3, 11, -2, 4)
    assert abs(float(w.exact) - w.float_check) < 1e-9


def test_rho_value_rejects_disagreement():
    with pytest.raises(FloatMismatch):
        RhoValue(Fraction(1), 0.5)


def test_rho_at_large_p_is_witnessed_within_its_float_error():
    # cot near a pole loses about eps * p of relative accuracy, so at
    # p = 100003 the witness of (1, 1, 50001) is off by about 2e-7: the
    # tolerance scales with p * sum_k |x_k| there, and stays 1e-9 at small p
    eps = sys.float_info.epsilon
    wide = rho_lens(100003, 1, 1, 50001)
    assert 1e-9 < 4 * eps * wide._scale
    assert abs(float(wide.exact) - wide.float_check) < 4 * eps * wide._scale
    # arguments reduced mod p keep the angles exact to eps * pi: with a*k
    # up to p^2 unreduced, this witness was off by 1.7e-7
    near_thirds = rho_lens(100003, 33334, 66669, 17)
    assert abs(float(near_thirds.exact) - near_thirds.float_check) < 1e-9
    surface = rho_surface(100003, 33334, 50001, -3, 2)
    assert abs(float(surface.exact) - surface.float_check) < 4 * eps * surface._scale
    for small in (rho_lens(61, 2, 5, 30), rho_surface(61, 3, 11, -2, 4)):
        assert 4 * eps * small._scale < 1e-9


def test_defects_and_quotient_on_triple_action():
    act = triple_cp2_bar_action()
    d_chi, d_sign = defect_terms(act)
    assert d_chi == 20  # (p - 1) * (n + 2s) = 4 * 5
    assert d_sign == (act.p - 1) * act.signature
    chi_q, sign_q = quotient_invariants(act)
    assert chi_q == 5
    assert sign_q == -3


def test_signature_defect_matches_power_sum():
    # Sign(g^k) = Sign for every power, so the defect is (p-1) * Sign
    act = linear_cp2_bar(7, 2)
    d_chi, d_sign = defect_terms(act)
    assert d_sign == -6
    assert d_chi == 18
    assert quotient_invariants(act) == (3, -1)


def test_headline_dimensions():
    act = triple_cp2_bar_action()
    lift1 = Su2Isotropy((1, -3, 1), (1,), (0,), c2=1)
    lift2 = Su2Isotropy((1, 1, 1), (1,), (-1,), c2=1)
    r1 = dim_invariant_moduli(act, lift1, 1)
    r2 = dim_invariant_moduli(act, lift2, 1)
    assert r1.dimension == 1
    assert r2.dimension == 3
    assert isinstance(r1, DimensionReport)
    terms1 = dict(r1.terms)
    assert terms1["instanton_8k/p"] == Fraction(8, 5)
    assert terms1["quotient_index"] == -3
    assert terms1["rotated_point_count"] == 3
    assert sum(v for _, v in r1.terms) == 1


def test_dimension_breakdown_displays():
    act = triple_cp2_bar_action()
    rep = dim_invariant_moduli(act, Su2Isotropy((1, -3, 1), (1,), (0,), c2=1), 1)
    text = rep.display()
    assert "dimension" in text and "1" in text


def test_non_integer_dimension_carries_terms():
    act = linear_s4(5, 1, 2)
    with pytest.raises(NonIntegerDimension) as info:
        dim_invariant_moduli(act, Su2Isotropy((1, 1), (), (), c2=1), 1)
    assert info.value.total == Fraction(3, 5)
    assert len(info.value.terms) > 0


def test_dimension_invariance_under_weight_conventions():
    act = triple_cp2_bar_action()
    base = dim_invariant_moduli(act, Su2Isotropy((1, 1, 1), (1,), (-1,), c2=1), 1)
    shifted = dim_invariant_moduli(act, Su2Isotropy((6, 1, 1), (1,), (-1,), c2=1), 1)
    flipped = dim_invariant_moduli(act, Su2Isotropy((-1, 1, 1), (1,), (-1,), c2=1), 1)
    flip_all = dim_invariant_moduli(act, Su2Isotropy((-1, -1, -1), (-1,), (1,), c2=1), 1)
    assert base.dimension == shifted.dimension == flipped.dimension == flip_all.dimension


def test_isolated_only_path():
    act = linear_s4(5, 1, 2)
    iso = Su2Isotropy((1, 3), (), (), c2=1)
    assert dim_invariant_moduli(act, iso, 1).dimension == 1


def test_nonequivariant_dimension():
    assert dim_nonequivariant(1, 2, 0) == 5  # standard sphere, charge 1
    assert dim_nonequivariant(2, 4, 0) == 10
    with pytest.raises(ParityError):
        dim_nonequivariant(1, 3, 0)


def test_involution_dimension():
    act = GroupAction(2, (IsolatedPoint(2, 1, 1),) * 2, (), 0, 2, 0)
    rep = dim_involution(act, 1)
    # 8k/2 - (3/2)(chi_q + sign_q) + m + sum over spheres
    assert rep.dimension == 4 - 3 + 2
    with_sphere = GroupAction(
        2, (IsolatedPoint(2, 1, 1),) * 2, (FixedSphere(2, 1, -4),), 0, 4, 2
    )
    rep2 = dim_involution(with_sphere, 1)
    assert rep2.dimension == 1  # 4 - 3 + 2 + (2 - 4), cross-checked internally
    with pytest.raises(NotInvolution):
        dim_involution(linear_s4(5, 1, 2), 1)


def test_invariant_moduli_validates_action():
    bad = GroupAction(5, (IsolatedPoint(5, 1, 2),), (), 1, 3, 1)
    with pytest.raises(ValueError):
        dim_invariant_moduli(bad, Su2Isotropy((1,), (), (), c2=1), 1)


def test_rho_equals_p_fold_galois_sum():
    # one evaluation and a field trace give the p-fold sum exactly,
    # including p = 2, where the trace is the identity
    rng = random.Random(9103)
    for p in ORACLE_PRIMES:
        for _ in range(2):
            a, b, c, ell = (rng.randrange(1, p) for _ in range(4))
            alpha = rng.choice([x for x in range(-5, 6) if x])
            m = rng.choice([x for x in range(-3, 4) if x])
            assert rho_lens(p, a, b, ell).exact == _rho_lens_p_fold(p, a, b, ell)
            got = rho_surface(p, c, ell, alpha, m).exact
            assert got == _rho_surface_p_fold(p, c, ell, alpha, m)


def test_signature_defect_equals_sum_over_powers():
    rng = random.Random(9104)
    for p in ORACLE_PRIMES[1:]:
        for act in _action_pool(p, rng):
            want = sum(gsign_value(act, k) for k in range(1, p))
            assert defect_terms(act)[1] == want
    inv = GroupAction(2, (IsolatedPoint(2, 1, 1),) * 2, (FixedSphere(2, 1, -4),), 0, 4, 2)
    assert defect_terms(inv)[1] == gsign_value(inv, 1)


def test_irrational_signature_still_raises_at_the_first_power():
    # a lone point (1, 2) at p = 5 gives -cot(pi/5) cot(2 pi/5) = -1/sqrt(5)
    bad = GroupAction(5, (IsolatedPoint(5, 1, 2),), (), 1, 3, 1)
    with pytest.raises(NotRational):
        defect_terms(bad)
    with pytest.raises(NotRational):
        gsignature_check(bad)


def _count_calls(monkeypatch, name, modules):
    calls = []
    for mod in modules:
        if hasattr(mod, name):
            original = getattr(mod, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
    return calls


def test_signature_paths_evaluate_once_per_fixed_point(monkeypatch):
    # O(#points) field evaluations at p = 31, not O(p * #points), and no
    # p-fold Galois sum on any request path
    modules = (cyclotomic, congruence, moduli)
    point_calls = _count_calls(monkeypatch, "eval_point_term", modules)
    term_calls = _count_calls(monkeypatch, "_term", modules)
    galois_calls = _count_calls(monkeypatch, "galois_sum", modules)
    act = linear_cp2(31, 1, 2)
    assert gsignature_check(act).ok
    assert len(point_calls) == len(act.points)
    del term_calls[:]
    s4 = linear_s4(31, 1, 2)
    assert dim_invariant_moduli(s4, Su2Isotropy((1, 3), (), (), c2=1), 1).dimension == 1
    # one signature evaluation and one rho_lens per point, each one
    # call of the shared term builder
    assert len(term_calls) == 2 * len(s4.points)
    assert galois_calls == []


def test_request_paths_multiply_no_dense_field_elements(monkeypatch):
    # every fixed-point term comes from the shared O(p) builder; the dense
    # product of two CycloNums is left to the API and the oracles
    s4 = linear_s4(31, 1, 2)
    iso = Su2Isotropy((1, 3), (), (), c2=1)
    triple = triple_cp2_bar_action()  # a fixed sphere with m != 0
    triple_iso = Su2Isotropy((1, 1, 1), (1,), (-1,), c2=1)
    involution = GroupAction(2, (IsolatedPoint(2, 1, 1),) * 2, (FixedSphere(2, 1, -4),), 0, 4, 2)

    def run():
        return (
            gsignature_check(linear_cp2(31, 10, 21)),
            defect_terms(triple),
            rho_lens(31, 2, 5, 7),
            rho_surface(31, 3, 11, -2, 4),
            dim_invariant_moduli(s4, iso, 1),
            dim_invariant_moduli(triple, triple_iso, 1),
            dim_involution(involution, 1),
        )

    want = run()

    def forbidden(*args, **kwargs):
        raise AssertionError("dense field multiplication on a request path")

    monkeypatch.setattr(cyclotomic.CycloNum, "__mul__", forbidden)
    monkeypatch.setattr(cyclotomic.CycloNum, "__rmul__", forbidden)
    for module in (_poly, cyclotomic, series):
        monkeypatch.setattr(module, "convolve", forbidden)
    assert run() == want
