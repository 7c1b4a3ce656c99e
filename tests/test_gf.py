"""Field tower arithmetic against hand oracles."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from skewloop import gf


def mult_order(K, a):
    """Test oracle: the least e >= 1 with a^e = 1, by trial."""
    return next(e for e in range(1, K.order) if K.pow_int(a, e) == 1)

# (p, l): (default modulus, primitive element, exp-table hash)
PINNED_DEFAULT = {
    (2, 1): ((1, 1), 1, '6b86b273ff34fce1'),
    (2, 2): ((1, 1, 1), 2, '8a6ae15122001229'),
    (2, 3): ((1, 0, 1, 1), 2, '87a77eabbf755a36'),
    (2, 4): ((1, 0, 0, 1, 1), 2, '5542c237447cc97c'),
    (2, 5): ((1, 0, 0, 1, 0, 1), 2, 'c28bc76e04daa334'),
    (2, 6): ((1, 0, 0, 0, 0, 1, 1), 2, 'f446ab0e9717cdc2'),
    (2, 7): ((1, 0, 0, 0, 0, 0, 1, 1), 2, '068dd92520f6570d'),
    (2, 8): ((1, 0, 0, 0, 1, 1, 1, 0, 1), 2, '0c96e1467e7df8bf'),
    (2, 9): ((1, 0, 0, 0, 0, 1, 0, 0, 0, 1), 2, 'a909592531f4bb3b'),
    (2, 10): ((1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), 2, 'f7e176a420bac09b'),
    (2, 11): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1), 2, '20c8799b6d2eb6c7'),
    (2, 12): ((1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1), 2, '462dfb5507825255'),
    (2, 13): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1), 2, '267eaf1669378549'),
    (2, 14): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1), 2, '352f63dfd3f040dc'),
    (2, 15): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1), 2, '88451b497434ac8e'),
    (2, 16): ((1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1), 2, 'f45493c36149d341'),
    (3, 1): ((1, 1), 2, '17f8af97ad4a7f76'),
    (3, 2): ((2, 1, 1), 3, 'bcc2ac665c778ead'),
    (3, 3): ((1, 0, 2, 1), 3, '210066644ccd164b'),
    (3, 4): ((2, 0, 0, 1, 1), 3, '0ad6dd569d0bfa62'),
    (3, 5): ((1, 0, 0, 0, 2, 1), 3, '96a96c03c8bc1535'),
    (3, 6): ((2, 0, 0, 0, 0, 1, 1), 3, 'b8682bc3393d07b2'),
    (3, 7): ((1, 0, 0, 0, 0, 1, 2, 1), 3, 'c5a941dad415856d'),
    (3, 8): ((2, 0, 0, 0, 0, 1, 0, 0, 1), 3, '6d879cc98eb7db80'),
    (3, 9): ((1, 0, 0, 0, 0, 0, 2, 1, 0, 1), 3, 'c57ade673218e8a9'),
    (3, 10): ((2, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1), 3, 'ba002137644807a8'),
    (5, 1): ((3, 1), 2, 'a476677e7e6c27f0'),
    (5, 2): ((2, 1, 1), 5, 'eccf3f60d3c6c07c'),
    (5, 3): ((2, 0, 1, 1), 5, 'eb03311b8c7ae464'),
    (5, 4): ((2, 0, 2, 1, 1), 5, '4acc55105c00ec55'),
    (5, 5): ((2, 0, 0, 0, 3, 1), 5, '7443a751cb14c22a'),
    (5, 6): ((2, 0, 0, 0, 0, 1, 1), 5, 'e520f438ea2b15e4'),
    (7, 1): ((4, 1), 3, '8857bfd80b140972'),
    (7, 2): ((3, 1, 1), 7, 'aba35872504404e8'),
    (7, 3): ((2, 1, 1, 1), 7, '7c2b48a62148a4d2'),
    (7, 4): ((3, 0, 1, 1, 1), 7, 'dc79f9e03455110d'),
    (7, 5): ((2, 0, 0, 0, 2, 1), 7, 'b7585e35496d0601'),
    (11, 1): ((9, 1), 2, '03890a70ac8efa04'),
    (11, 2): ((2, 4, 1), 11, '77a3dae369c820cf'),
    (11, 3): ((3, 0, 1, 1), 11, 'a1ea1aaf5e99a558'),
    (11, 4): ((2, 0, 0, 4, 1), 11, 'd7d810832047d15a'),
    (13, 1): ((11, 1), 2, '404819ee67c6776a'),
    (13, 2): ((2, 1, 1), 13, '58d0682df211f3bb'),
    (13, 3): ((2, 0, 1, 1), 13, '189bdd70c75fb10d'),
    (13, 4): ((2, 0, 2, 6, 1), 13, '884692920c1666c0'),
}

# (p, modulus): (primitive element, exp-table hash)
PINNED_MODULI = {
    (3, (2, 2, 1)): (3, 'dcfdb7e0f91e021d'),
    (3, (1, 0, 1)): (4, 'b351095dd920918f'),
    (2, (1, 1, 1, 1, 1)): (3, '37d4fbc5a50c6918'),
}


def _exp_hash(K):
    return hashlib.sha256(",".join(map(str, K.exp)).encode()).hexdigest()[:16]


def _digits(K, a):
    return [a // K.p ** i % K.p for i in range(K.l)]


def _digitwise(K, a, b, sign):
    """a + sign * b coordinate by coordinate: the reference for add and sub."""
    return K.encode([x + sign * y for x, y in zip(_digits(K, a), _digits(K, b))])


def test_f4_table():
    K = gf.FieldCtx.create(2, 2)
    x = K.p  # code of the adjoined root
    # x^2 = x + 1 under x^2 + x + 1
    assert K.mul(x, x) == K.add(x, 1)
    assert K.mul(x, K.add(x, 1)) == 1
    assert all(K.mul(a, K.inv(a)) == 1 for a in range(1, 4))


def test_prime_field_arithmetic():
    K = gf.FieldCtx.create(7, 1)
    assert K.mul(3, 5) == 1
    assert K.inv(3) == 5
    assert K.pow_int(3, 6) == 1
    assert mult_order(K, 3) == 6


def test_not_prime_rejected():
    with pytest.raises(gf.NotPrime):
        gf.FieldCtx.create(6, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(gf.ReducibleModulus):
        gf.FieldCtx.create(2, 2, modulus=[1, 0, 1])  # x^2+1 = (x+1)^2 mod 2


def test_default_modulus_primitive_root():
    for p, l in [(2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)]:
        K = gf.FieldCtx.create(p, l)
        assert mult_order(K, K.primitive) == K.order - 1


def test_sigma_order_and_fixed_field():
    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    # sigma(x) = x^2 = x + 1 in F_4
    assert tw.sigma(K.p, 1) == K.add(K.p, 1)
    assert sorted(tw.fixed_field_elements()) == [0, 1]
    tw9 = gf.make_tower(3, 1, 2)
    assert sorted(tw9.fixed_field_elements()) == [0, 1, 2]
    assert all(tw9.sigma(a, 2) == a for a in range(9))


@pytest.mark.parametrize("p,r,n", [(2, 1, 2), (2, 1, 8), (2, 2, 3), (3, 1, 4), (5, 2, 2),
                                   (7, 1, 3), (2, 3, 4), (2, 1, 16)])
def test_sigma_tables_are_frobenius_powers(p, r, n):
    """sigma^i, as the scalar `sigma` and as `pow_array` with the tower's
    exponent, is a -> a^(q^i) for every a and every i < n; at F_(2^16)/F_2
    only the array form is checked."""
    tw = gf.make_tower(p, r, n)
    K = tw.field
    codes = np.arange(K.order)
    for i in range(n):
        frobenius = [K.pow_int(a, p ** (r * i)) for a in range(K.order)]
        assert K.pow_array(codes, tw.q_powers[i]).tolist() == frobenius
        if K.order < 2 ** 16:
            assert [tw.sigma(a, i) for a in range(K.order)] == frobenius
            assert [tw.sigma(a, i - n) for a in range(K.order)] == frobenius


def test_make_tower_nonprimitive_modulus():
    # K = F[x]/(x^2 - 2) over F_3 is accepted even though its root is
    # non-primitive (order 4); a primitive element is found instead
    tw = gf.make_tower(3, 1, 2, modulus=[-2 % 3, 0, 1])
    K = tw.field
    assert K.mul(K.p, K.p) == 2
    assert mult_order(K, K.primitive) == 8


def test_rel_norm_surjective_onto_fixed_field():
    tw = gf.make_tower(3, 1, 2)
    K = tw.field
    norms = {oracles.rel_norm(tw, a) for a in range(1, 9)}
    assert norms == {1, 2}
    # N(a) = a^(1+q) for n = 2
    assert all(oracles.rel_norm(tw, a) == K.pow_int(a, 4) for a in range(9))


def test_norm_kernel_order():
    # ker(N_{K/F}) has s = (q^n - 1)/(q - 1) elements
    for p, r, n in [(2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 3)]:
        tw = gf.make_tower(p, r, n)
        s = (tw.field.order - 1) // (tw.q - 1)
        assert sum(oracles.rel_norm(tw, k) == 1 for k in range(1, tw.field.order)) == s


def test_parse_element():
    K = gf.FieldCtx.create(3, 2)
    assert gf.parse_element(K, "0") == 0
    assert gf.parse_element(K, "g^0") == 1
    assert gf.parse_element(K, "g^1") == K.primitive
    assert gf.parse_element(K, "[1,1]") == K.add(1, K.p)
    with pytest.raises(ValueError):
        gf.parse_element(K, "h^2")


def test_parse_field_descriptor():
    assert gf.parse_field_descriptor("3^2") == (3, 2)
    assert gf.parse_field_descriptor("7") == (7, 1)


@pytest.mark.parametrize("p,l", sorted(PINNED_DEFAULT))
def test_pinned_default_fields(p, l):
    modulus, primitive, exp_hash = PINNED_DEFAULT[p, l]
    K = gf.FieldCtx.create(p, l)
    assert (K.modulus, K.primitive, _exp_hash(K)) == (modulus, primitive, exp_hash)
    assert all(K.log[e] == j for j, e in enumerate(K.exp))


def test_pinned_custom_moduli():
    for (p, modulus), (primitive, exp_hash) in PINNED_MODULI.items():
        K = gf.FieldCtx.create(p, len(modulus) - 1, modulus)
        assert (K.modulus, K.primitive, _exp_hash(K)) == (modulus, primitive, exp_hash)
    with pytest.raises(gf.ReducibleModulus):
        gf.FieldCtx.create(3, 2, modulus=[3, 0, 1])  # x^2 over F_3


def _check_array_ops(K, a, b):
    """mul_array, add_array and pow_array on the pairs (a[i], b[i]) against
    the scalar methods, b also as a negative exponent of nonzero a, and
    a + (-a) = 0."""
    a, b = np.array(a), np.array(b)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert K.mul_array(a, b).tolist() == [K.mul(x, y) for x, y in pairs]
    assert K.add_array(a, b).tolist() == [K.add(x, y) for x, y in pairs]
    assert K.pow_array(a, b).tolist() == [K.pow_int(x, y) for x, y in pairs]
    assert K.pow_array(a[a != 0], -b[a != 0]).tolist() == \
        [K.pow_int(x, -y) for x, y in pairs if x]
    assert not K.add_array(a, [K.neg(x) for x in a.tolist()]).any()


SMALL_PINNED = [(p, l) for p, l in sorted(PINNED_DEFAULT) if p ** l <= 256]


@pytest.mark.parametrize("p,l,arrays", [(p, l, False) for p, l in SMALL_PINNED]
                         + [(p, l, True) for p, l in SMALL_PINNED],
                         ids=[f"{p}-{l}" for p, l in SMALL_PINNED]
                         + [f"{p}-{l}-array" for p, l in SMALL_PINNED])
def test_add_sub_neg_all_pairs(p, l, arrays):
    K = gf.FieldCtx.create(p, l)
    if arrays:
        _check_array_ops(K, *np.divmod(np.arange(K.order ** 2), K.order))
        return
    for a in range(K.order):
        assert K.neg(a) == K.encode([-x for x in _digits(K, a)])
        for b in range(K.order):
            assert K.add(a, b) == _digitwise(K, a, b, 1)
            assert K.sub(a, b) == _digitwise(K, a, b, -1)


@pytest.mark.parametrize("p,l,arrays", [(2, 13, False), (3, 8, False), (2, 13, True), (3, 8, True)],
                         ids=["2-13", "3-8", "2-13-array", "3-8-array"])
def test_add_sub_neg_sampled_large(p, l, arrays):
    K = gf.FieldCtx.create(p, l)
    rng = random.Random(0)
    pairs = [(rng.randrange(K.order), rng.randrange(K.order)) for _ in range(5000)]
    if arrays:
        pairs += [(0, 0), (0, 1), (1, 0), (0, K.order - 1), (K.order - 1, 0)]
        _check_array_ops(K, *zip(*pairs))
        return
    for a, b in pairs:
        assert K.add(a, b) == _digitwise(K, a, b, 1)
        assert K.sub(a, b) == _digitwise(K, a, b, -1)
        assert K.neg(a) == K.encode([-x for x in _digits(K, a)])


def test_field_tables_linear_in_order():
    gf.FieldCtx.create(2, 3)  # warm the lazy imports of the modulus search
    tracemalloc.start()
    try:
        gf.FieldCtx.create(2, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_large_prime_field_tables():
    # (p - 1)^2 > 2^31: the doubling products need 64-bit digits
    p = 65537
    K = gf.FieldCtx.create(p, 1)
    g = K.primitive
    assert K.exp == [pow(g, j, p) for j in range(p - 1)]
    rng = random.Random(0)
    for _ in range(2000):
        a, b = rng.randrange(p), rng.randrange(p)
        assert (K.add(a, b), K.sub(a, b), K.neg(a)) == ((a + b) % p, (a - b) % p, -a % p)


# -- integer helpers and F_p[x] routines against sympy as an oracle ----------

def _prime_powers_minus_one(bound):
    sieve = np.ones(bound + 2, dtype=bool)
    sieve[:2] = False
    for d in range(2, int((bound + 1) ** 0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = False
    for p in np.flatnonzero(sieve).tolist():
        q = p
        while q - 1 <= bound:
            yield q - 1
            q *= p


def test_integer_helpers_match_sympy_below_2_16():
    import sympy

    for n in range(1, 2 ** 16):
        fac = sympy.factorint(n)
        assert gf.factorint(n) == fac, n
        assert gf.primefactors(n) == sympy.primefactors(n), n
        assert gf.isprime(n) == sympy.isprime(n), n
        assert gf.mobius(n) == (0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)), n
    assert [gf.mobius(n) for n in range(1, 2 ** 10)] == \
        [int(sympy.mobius(n)) for n in range(1, 2 ** 10)]
    assert not gf.isprime(0)


def test_integer_helpers_match_sympy_on_field_orders():
    """Every p^l - 1 <= 2^20, the multiplicative group orders of the fields
    in scope."""
    import sympy

    for n in _prime_powers_minus_one(2 ** 20):
        if n >= 2 ** 16:                                  # smaller n: the test above
            fac = sympy.factorint(n)
            assert gf.factorint(n) == fac, n
            assert gf.primefactors(n) == sorted(fac), n


@pytest.mark.parametrize("p,max_deg", [(2, 8), (3, 5), (5, 3), (7, 3)])
def test_irreducible_zp_matches_sympy(p, max_deg):
    import itertools

    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for d in range(max_deg + 1):
        for tail in itertools.product(range(p), repeat=d):
            coeffs = list(tail) + [1]
            expected = d >= 1 and gf_irreducible_p(coeffs[::-1], p, ZZ)
            assert gf.poly_is_irreducible_zp(coeffs, p) == expected, coeffs


# sha256 of repr([(p, l, modulus, primitive), ...]) over every prime p and
# l >= 1 with p^l <= 2^16, in (p, l) order; recorded when the moduli were
# still searched with sympy's F_p[x] routines
DEFAULT_FIELDS = (6635, "4eaf5c8880ed7ff15231228abeb6819792ec4579615cbe661254600330d574b6")


def test_default_fields_pinned():
    rows = []
    for p in filter(gf.isprime, range(2 ** 16 + 1)):
        l = 1
        while p ** l <= 2 ** 16:
            modulus = gf.default_modulus(p, l)
            rows.append((p, l, modulus, gf.primitive_element(p, l, modulus)))
            l += 1
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) == DEFAULT_FIELDS
