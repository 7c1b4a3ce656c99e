"""Twisted polynomial arithmetic: division, irreducibility, invariance."""

import itertools

import pytest

from skewloop import gf
from skewloop import skewpoly as sp


def tower_f4():
    return gf.make_tower(2, 1, 2)


def tower_f9():
    return gf.make_tower(3, 1, 2, modulus=[2, 2, 1])


def test_twist_commutation_rule():
    tw = tower_f4()
    # t*a = sigma(a)*t for every a
    for a in range(4):
        left = sp.skew_mul(tw, (0, 1), (a,))
        assert left == sp.poly([0, gf.apply_sigma(tw, a, 1)])


def test_right_divmod_identity():
    tw = tower_f9()
    K = tw.field
    f = (K.neg(K.p), 0, 1)  # t^2 - x
    polys = [sp.poly(c) for c in itertools.product(range(9), repeat=3)]
    for g in polys[:200]:
        q, r = sp.right_divmod(tw, g, f)
        assert sp.degree(r) < 2 or r == ()
        assert sp.skew_add(tw, sp.skew_mul(tw, q, f), r) == g


def test_division_by_zero_poly():
    tw = tower_f4()
    with pytest.raises(sp.DivisionByZeroPoly):
        sp.right_divmod(tw, (1, 1), ())


# -- test oracles: two independent irreducibility tests --

def _oracle_quadratic_irreducible(tw, f):
    """t^2 - a1 t - a0 is irreducible iff z sigma(z) + a1 z - a0 = 0 has no
    solution z in K."""
    K = tw.field
    a0 = K.neg(f[0])
    a1 = K.neg(f[1])
    return all(K.add(K.mul(z, tw.sigma(z, 1)), K.sub(K.mul(a1, z), a0)) != 0
               for z in range(K.order))


def _oracle_full_scan_irreducible(tw, f):
    """No monic right divisor of any degree 1 <= d < deg(f)."""
    return all(sp.right_rem(tw, f, tail + (1,))
               for d in range(1, sp.degree(f))
               for tail in itertools.product(range(tw.field.order), repeat=d))


def test_quadratic_criterion_matches_divisor_scan():
    # z*sigma(z) + a1*z - a0 has no solution <=> t^2 - a1 t - a0 irreducible
    for tw in (tower_f4(), tower_f9()):
        K = tw.field
        for a0 in range(1, K.order):
            for a1 in range(K.order):
                f = (K.neg(a0), K.neg(a1), 1)
                assert sp.is_irreducible(tw, f) == _oracle_quadratic_irreducible(tw, f)


@pytest.mark.parametrize("m", [4, 5])
def test_half_degree_scan_matches_full_scan(m):
    # every monic f of degree m over F_4; among the reducible ones are f with
    # no right divisor of degree 1 (21 for m = 4, 90 for m = 5)
    tw = tower_f4()
    irreducible = 0
    for tail in itertools.product(range(4), repeat=m):
        f = tail + (1,)
        verdict = sp.is_irreducible(tw, f)
        assert verdict == _oracle_full_scan_irreducible(tw, f)
        irreducible += verdict
    assert 0 < irreducible < 4 ** m


def test_right_invariance_f_in_center():
    tw = tower_f4()
    # t^2 - c with c in the fixed field F_2: right-invariant (central f)
    assert sp.is_right_invariant(tw, (1, 0, 1))
    # t^2 - x with x outside F_2: not right-invariant
    assert not sp.is_right_invariant(tw, (tw.field.p, 0, 1))


def test_admissible_count_f4_m2():
    tw = tower_f4()
    fs = list(sp.enumerate_admissible(tw, 2))
    assert len(fs) == 5
    assert all(sp.is_irreducible(tw, f) and not sp.is_right_invariant(tw, f)
               for f in fs)


def test_admissible_quadratics_f9():
    tw = tower_f9()
    fs = list(sp.enumerate_admissible(tw, 2))
    # t^2 - a is admissible exactly for the 6 elements a outside F_3
    pure = [f for f in fs if f[1] == 0]
    assert len(pure) == 6
    K = tw.field
    assert all(not tw.in_fixed_field(K.neg(f[0])) for f in pure)


def test_make_monic():
    tw = tower_f9()
    K = tw.field
    f = (1, 2, K.p)
    g = sp.make_monic(tw, f)
    assert sp.is_monic(g)
    assert g == sp.scalar_mul(tw, K.inv(K.p), f)


def test_parse_format_roundtrip():
    tw = tower_f9()
    for text in ("t^2 - g^5*t - [1,0]", "t^3 - g^1", "t^2 - g^0"):
        f = sp.parse_poly(tw, text)
        assert sp.parse_poly(tw, sp.format_poly(tw, f)) == f
