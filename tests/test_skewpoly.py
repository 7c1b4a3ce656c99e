"""Twisted polynomial arithmetic: division, irreducibility, invariance."""

import itertools
import random

import numpy as np
import pytest

import oracles
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
        left = oracles.skew_mul(tw, (0, 1), (a,))
        assert left == sp.poly([0, tw.sigma(a, 1)])


def test_right_divmod_identity():
    tw = tower_f9()
    K = tw.field
    f = (K.neg(K.p), 0, 1)  # t^2 - x
    polys = [sp.poly(c) for c in itertools.product(range(9), repeat=3)]
    for g in polys[:200]:
        q, r = sp.right_divmod(tw, g, f)
        assert sp.degree(r) < 2 or r == ()
        assert oracles.skew_add(tw, oracles.skew_mul(tw, q, f), r) == g


def test_mul_matches_term_oracle():
    tw = tower_f9()
    rng = random.Random(3)
    for _ in range(300):
        a, b = ([rng.randrange(9) for _ in range(rng.randrange(6))] for _ in range(2))
        assert sp.mul(tw, sp.poly(a), sp.poly(b)) == oracles.skew_mul(tw, sp.poly(a), sp.poly(b))


def test_left_inverse_mod_matches_exhaustive_search():
    # over F_4: every monic g of degree 2 and seeded ones of degree 3, every
    # nonzero x of lower degree; u x = 1 mod Rg has at most one solution of
    # degree < deg g, and left_inverse_mod returns it or raises when none
    tw = tower_f4()
    rng = random.Random(4)
    gs = [tail + (1,) for tail in itertools.product(range(4), repeat=2)]
    gs += [tuple(rng.randrange(4) for _ in range(3)) + (1,) for _ in range(12)]
    outcomes = set()
    for g in gs:
        us = [sp.poly(c) for c in itertools.product(range(4), repeat=sp.degree(g))]
        for x in us[1:]:
            want = [u for u in us if oracles.right_rem(tw, oracles.skew_mul(tw, u, x), g) == (1,)]
            assert len(want) <= 1
            if want:
                assert sp.left_inverse_mod(tw, x, g) == want[0]
            else:
                with pytest.raises(AssertionError):
                    sp.left_inverse_mod(tw, x, g)
            outcomes.add(bool(want))
    assert outcomes == {True, False}


def test_left_inverse_mod_rejects_a_common_right_factor():
    # g = (t + 1) h and x = (t^0 g^3) h share the right factor h = t + g^1
    tw = tower_f9()
    K = tw.field
    h = (K.primitive, 1)
    g = oracles.skew_mul(tw, (1, 1), h)
    x = oracles.skew_mul(tw, (K.exp[3],), h)
    with pytest.raises(AssertionError, match="share the right factor"):
        sp.left_inverse_mod(tw, x, g)
    with pytest.raises(AssertionError):
        sp.left_inverse_mod(tw, (), g)


def test_division_by_zero_poly():
    tw = tower_f4()
    with pytest.raises(sp.DivisionByZeroPoly):
        sp.right_divmod(tw, (1, 1), ())


# -- test oracles: three independent irreducibility tests --

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
    return all(oracles.right_rem(tw, f, tail + (1,))
               for d in range(1, sp.degree(f))
               for tail in itertools.product(range(tw.field.order), repeat=d))


def _oracle_divisor_scan_irreducible(tw, f):
    """No monic right divisor of degree 1 <= d <= deg(f)/2.

    Why half the degree suffices.  The monic right divisors h of f are the
    quotients R/Rh of the module M = R/Rf, of K-dimension deg(h), and h is
    irreducible iff R/Rh is simple.  So f (degree m) is reducible iff M has
    length >= 2, and then M has a simple quotient of dimension <= m/2:
    - M is the direct sum of its primary parts over the centre F_q[y],
      y = t^n.  With two or more parts, one has dimension <= m/2; it is a
      quotient of M, and so is any simple quotient of it.
    - With one part, killed by a power of a prime h(y), every composition
      factor is a simple module killed by h, and there is only one up to
      isomorphism: R/R h(t^n) = M_n(F_q[y]/h) is simple for h != y, and
      for h = y, t spans the two-sided ideal Rt = tR, so t acts as 0 on a
      simple module and it is R/Rt.  All factors then have dimension
      m/length <= m/2, the simple top of M among them.
    A simple quotient of dimension d is R/Rh for a monic irreducible right
    divisor h of degree d, so testing remainder zero against the q^(n d)
    monic candidates of each degree d <= m/2 decides irreducibility.
    """
    return all(oracles.right_rem(tw, f, tail + (1,))
               for d in range(1, sp.degree(f) // 2 + 1)
               for tail in itertools.product(range(tw.field.order), repeat=d))


def _oracle_right_invariant(tw, f):
    """f t and f z in Rf, z the primitive element: two right remainders of
    ring products."""
    return not any(oracles.right_rem(tw, oracles.skew_mul(tw, f, g), f)
                   for g in ((0, 1), (tw.field.primitive,)))


def _central_as_skew(tw, h):
    """h(y) in F_q[y] as the skew polynomial h(t^n)."""
    out = [0] * (tw.n * sp.degree(h) + 1)
    out[::tw.n] = h
    return tuple(out)


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
        verdict = _oracle_full_scan_irreducible(tw, f)
        assert _oracle_divisor_scan_irreducible(tw, f) == verdict
        assert sp.is_irreducible(tw, f) == verdict
        irreducible += verdict
    assert 0 < irreducible < 4 ** m


# (p, r, n) of the towers whose every monic f with |K|^m <= 4096 is checked:
# F_4, F_8, F_9, F_16 with both sigma (x^2 and x^4), F_25, F_27, F_32, F_49
EXHAUSTIVE_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2),
                     (5, 1, 2), (3, 1, 3), (2, 1, 5), (7, 1, 2)]
EXHAUSTIVE_CASES = [((p, r, n), m) for p, r, n in EXHAUSTIVE_TOWERS
                    for m in range(1, 7) if p ** (r * n * m) <= 4096]
# the Cayley-Hamilton check multiplies out chi_f(t^n): |K|^m <= 1024 only
NORM_CASES = [((p, r, n), m) for (p, r, n), m in EXHAUSTIVE_CASES
              if p ** (r * n * m) <= 1024]


def _case_ids(cases):
    return [f"F{p ** (r * n)}/F{p ** r}-m{m}" for (p, r, n), m in cases]


@pytest.mark.parametrize("tower,m", EXHAUSTIVE_CASES, ids=_case_ids(EXHAUSTIVE_CASES))
def test_irreducible_matches_divisor_scan(tower, m):
    tw = gf.make_tower(*tower)
    Q = tw.field.order
    irreducible = 0
    for tail in itertools.product(range(Q), repeat=m):
        f = tail + (1,)
        verdict = sp.is_irreducible(tw, f)
        assert verdict == _oracle_divisor_scan_irreducible(tw, f), f
        if f[0] == 0 and m >= 2:
            assert not verdict, f                         # t is a right divisor
        irreducible += verdict
    assert irreducible == Q if m == 1 else 0 < irreducible < Q ** m


@pytest.mark.parametrize("tower,m", NORM_CASES, ids=_case_ids(NORM_CASES))
def test_reduced_norm_is_monic_central_multiple(tower, m):
    # chi_f is monic of degree m in F_q[y], and chi_f(t^n) lies in Rf
    # (Cayley-Hamilton: chi_f(y) kills R/Rf), for every monic f; the rows
    # R_k = t^k mod_r f behind C_f and the S_f product, k < n + 2m, are the
    # right remainders
    tw = gf.make_tower(*tower)
    for tail in itertools.product(range(tw.field.order), repeat=m):
        f = tail + (1,)
        assert [sp.poly(r) for r in sp.t_powers(tw, f, tw.n + 2 * m)] == [
            oracles.right_rem(tw, (0,) * k + (1,), f) for k in range(tw.n + 2 * m)], f
        chi = sp.reduced_norm(tw, f)
        assert sp.degree(chi) == m and sp.is_monic(chi)
        assert all(tw.in_fixed_field(c) for c in chi)
        assert oracles.right_rem(tw, _central_as_skew(tw, chi), f) == ()


@pytest.mark.parametrize("tower,m", EXHAUSTIVE_CASES, ids=_case_ids(EXHAUSTIVE_CASES))
def test_reduced_norms_match_scalar_path(tower, m):
    # the scalar and the batch reduced norm, row for row, against a
    # Hessenberg form of C_f from right remainders, and the closed-form
    # is_right_invariant against two right remainders of ring products, on
    # every monic f
    tw = gf.make_tower(*tower)
    Q = tw.field.order
    F = gf.monic_rows(Q, m, np.arange(Q ** m))
    fs = list(map(tuple, F.tolist()))
    chi = sp.reduced_norms(tw, F)
    want = [oracles.reduced_norm(tw, f) for f in fs]
    assert [sp.reduced_norm(tw, f) for f in fs] == want
    assert chi.tolist() == [list(h) for h in want]
    verdicts = {}
    for h in map(tuple, chi.tolist()):
        verdicts.setdefault(h, gf.poly_is_irreducible(tw.field, h, tw.q))
    assert sp.irreducible_norms(tw, chi).tolist() == [verdicts[tuple(h)] for h in chi.tolist()]
    assert [sp.is_right_invariant(tw, f) for f in fs] == [_oracle_right_invariant(tw, f)
                                                          for f in fs]


@pytest.mark.parametrize("p,r,n,m", oracles.BATTERY,
                         ids=[f"F{p ** (r * n)}/F{p ** r}-m{m}" for p, r, n, m in oracles.BATTERY])
def test_enumerate_admissible_matches_scalar_filter(p, r, n, m):
    tw = gf.make_tower(p, r, n)
    want = [tail + (1,) for tail in itertools.product(range(tw.field.order), repeat=m)
            if sp.is_admissible(tw, tail + (1,))]
    assert list(sp.enumerate_admissible(tw, m)) == want


@pytest.mark.parametrize("tower,m", [((2, 1, 2), 6), ((2, 1, 2), 7), ((2, 1, 2), 8),
                                     ((2, 2, 2), 4)],
                         ids=["F4/F2-m6", "F4/F2-m7", "F4/F2-m8", "F16/F4-m4"])
def test_reduced_norms_match_oracle_seeded(tower, m):
    # seeded monic f where the t^k and Berkowitz recurrences run longest
    tw = gf.make_tower(*tower)
    Q = tw.field.order
    rng = random.Random(23)
    fs = [tuple(rng.randrange(Q) for _ in range(m)) + (1,) for _ in range(60)]
    want = [oracles.reduced_norm(tw, f) for f in fs]
    assert [sp.reduced_norm(tw, f) for f in fs] == want
    assert sp.reduced_norms(tw, np.array(fs)).tolist() == [list(h) for h in want]
    assert len(set(want)) > 10


def test_reduced_norms_of_no_rows_and_bad_rows():
    tw = tower_f4()
    empty = np.zeros((0, 3), dtype=np.int64)
    assert sp.reduced_norms(tw, empty).shape == (0, 3)
    assert sp.irreducible_norms(tw, sp.reduced_norms(tw, empty)).shape == (0,)
    with pytest.raises(sp.NotMonic):
        sp.reduced_norms(tw, [(1, 0, 1), (1, 2, 3)])
    with pytest.raises(sp.DegreeZero):
        sp.reduced_norms(tw, [(1,)])


@pytest.mark.parametrize("tower", [(2, 1, 8), (3, 2, 2), (2, 3, 2)],
                         ids=["F256/F2", "F81/F9", "F64/F8"])
def test_irreducible_matches_divisor_scan_seeded(tower):
    # seeded monic f of degree 2 on towers the exhaustive test leaves out
    tw = gf.make_tower(*tower)
    Q = tw.field.order
    rng = random.Random(11)
    verdicts = []
    for _ in range(150):
        f = (rng.randrange(Q), rng.randrange(Q), 1)
        verdicts.append(sp.is_irreducible(tw, f))
        assert verdicts[-1] == _oracle_divisor_scan_irreducible(tw, f), f
        chi = sp.reduced_norm(tw, f)
        assert sp.is_monic(chi) and all(tw.in_fixed_field(c) for c in chi)
    assert any(verdicts) and not all(verdicts)


def test_reduced_norm_of_quaternion_example():
    # f = t^2 - g over F_4: y 1 = g and y t = t g = g^2 t, so C_f = diag(g, g^2)
    # and chi_f = (y - g)(y - g^2) = y^2 + y + 1, irreducible over F_2
    tw = tower_f4()
    K = tw.field
    g = K.primitive
    assert sp.reduced_norm(tw, (K.neg(g), 0, 1)) == (1, 1, 1)
    # f = t^2 - 1 is right-invariant and reducible: chi = (y - 1)^2 = y^2 + 1
    assert sp.reduced_norm(tw, (1, 0, 1)) == (1, 0, 1)
    assert not sp.is_irreducible(tw, (1, 0, 1))


def test_reduced_norm_rejects_non_monic_and_constants():
    tw = tower_f4()
    with pytest.raises(sp.NotMonic):
        sp.reduced_norm(tw, (1, 2))
    with pytest.raises(sp.DegreeZero):
        sp.is_irreducible(tw, (1,))


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
    assert g == tuple(K.mul(K.inv(K.p), c) for c in f)


def test_parse_format_roundtrip():
    tw = tower_f9()
    for text in ("t^2 - g^5*t - [1,0]", "t^3 - g^1", "t^2 - g^0"):
        f = sp.parse_poly(tw, text)
        assert sp.parse_poly(tw, sp.format_poly(tw, f)) == f


def test_parse_negative_exponents():
    # a sign after "^" or inside a coordinate list does not start a term
    tw = gf.make_tower(3, 1, 2)
    K = tw.field
    assert sp.parse_poly(tw, "t^2 - g^-1") == sp.parse_poly(tw, "t^2 - g^7") \
        == (K.neg(K.exp[7]), 0, 1)
    assert sp.parse_poly(tw, "g^-3*t^2+g^-1*t-[1,-1]") \
        == sp.parse_poly(tw, "g^5*t^2 + g^7*t - [1,2]")
    assert sp.parse_poly(tw, "-t + 1") == (1, tw.field.neg(1))
    with pytest.raises(ValueError):
        sp.parse_poly(tw, "t^-1")
