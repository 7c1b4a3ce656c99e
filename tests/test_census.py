"""Counting formulas against enumeration oracles; classification relations."""

import hashlib
import itertools

import numpy as np
import pytest

import oracles
from skewloop import census as cs
from skewloop import gf
from skewloop import skewpoly as sp


def test_theta_known_values():
    assert cs.theta(2, 2) == 2
    assert cs.theta(3, 2) == 3
    assert cs.theta(2, 6) == 10  # |F_4 u F_8| = 4 + 8 - 2


def test_theta_direct_subfield_enumeration():
    # oracle: count elements of F_{2^6} with a^(2^e) = a for some proper e | 6
    tw = gf.make_tower(2, 1, 6)
    K = tw.field
    count = sum(
        1 for a in range(K.order)
        if any(K.pow_int(a, 2 ** e) == a for e in (1, 2, 3)))
    assert count == cs.theta(2, 6)


def test_count_central_irreducible_known():
    assert cs.count_central_irreducible(2, 2) == 1
    assert cs.count_central_irreducible(3, 2) == 3
    assert cs.count_central_irreducible(5, 2) == 10


def test_formulas_agree_wide_range():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for m in range(2, 9):
            cs.count_central_irreducible(q, m)  # raises FormulaMismatch on disagreement


def test_enumeration_oracle():
    for q, m in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3),
                 (5, 2), (7, 2), (8, 2), (9, 2), (2, 8), (3, 4)]:
        assert cs.count_central_irreducible(q, m) == cs.count_irreducible_enum(q, m)


# -- test oracles: the census as it ran before moving to code arrays, one
# scalar K.mul/K.add per coefficient pair and a stack search per orbit --

def _oracle_poly_mul(K, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = K.add(out[i + j], K.mul(ca, cb))
    return tuple(out)


def _oracle_monic_polys(K, d):
    for lower in itertools.product(range(K.order), repeat=d):
        yield lower + (1,)


def _oracle_enumerate_irreducible(K, m):
    irr_by_deg = {}
    for d in range(1, m + 1):
        composite = set()
        for e in range(1, d // 2 + 1):
            for g in irr_by_deg.get(e, []):
                for h in _oracle_monic_polys(K, d - e):
                    composite.add(_oracle_poly_mul(K, g, h))
        irr_by_deg[d] = [f for f in _oracle_monic_polys(K, d) if f not in composite]
    return irr_by_deg[m]


def _oracle_gammaL_orbit_count(q, m):
    p, r = cs._prime_power(q)
    K = gf.FieldCtx.create(p, r)
    polys = _oracle_enumerate_irreducible(K, m)
    index = {f: i for i, f in enumerate(polys)}

    def act(f, lam, rho):
        return tuple(K.mul(K.pow_int(c, p ** rho), K.pow_int(K.inv(lam), m - i))
                     for i, c in enumerate(f))

    seen = [False] * len(polys)
    orbits = 0
    for start, f in enumerate(polys):
        if seen[start]:
            continue
        orbits += 1
        stack = [f]
        seen[start] = True
        while stack:
            g = stack.pop()
            for lam in range(1, K.order):
                for rho in range(K.l):
                    j = index[act(g, lam, rho)]
                    if not seen[j]:
                        seen[j] = True
                        stack.append(polys[j])
    return orbits


SIEVE_CASES = [(q, m) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
               for m in range(1, 13) if q ** m <= 4096]
# the benchmark's census ORBIT_CASES
ORBIT_CASES = [(2, 2), (3, 2), (4, 2), (5, 2), (7, 3), (9, 3), (16, 3), (25, 2), (49, 2)]


@pytest.mark.parametrize("q,m", SIEVE_CASES)
def test_enumerate_irreducible_matches_oracle(q, m):
    # p = 2 sieves by XOR doubling; the gather branch, which odd p runs,
    # is checked at p = 2 as well
    p, r = cs._prime_power(q)
    K = gf.FieldCtx.create(p, r)
    want = _oracle_enumerate_irreducible(K, m)
    assert list(map(tuple, cs.enumerate_irreducible(K, m).tolist())) == want
    assert list(map(tuple, cs._sieve(K, m, xor=False).tolist())) == want


@pytest.mark.parametrize("q,m", [(2, 16), (4, 8), (16, 4), (256, 2)])
def test_xor_sieve_matches_gather_sieve_at_2_16(q, m):
    p, r = cs._prime_power(q)
    K = gf.FieldCtx.create(p, r)
    got = cs._sieve(K, m, xor=True)
    assert got.tolist() == cs._sieve(K, m, xor=False).tolist()
    assert len(got) == cs.count_central_irreducible(q, m)


@pytest.mark.parametrize("m", [0, 1, -1])
def test_n_qm_requires_m_at_least_2(m):
    for count in (cs.count_central_irreducible, cs.count_irreducible_enum):
        with pytest.raises(cs.PreconditionViolated, match="m >= 2 required"):
            count(4, m)


@pytest.mark.parametrize("q,m", ORBIT_CASES)
def test_gammaL_orbit_count_matches_oracle(q, m):
    assert cs.gammaL_orbit_count(q, m) == _oracle_gammaL_orbit_count(q, m)


def test_gammaL_orbit_counts_small_q():
    assert [cs.gammaL_orbit_count(q, 2) for q in (2, 3, 4, 5)] == [1, 2, 1, 3]


def test_gammaL_trivial_action_q2():
    # F_2^x is trivial and r = 1: the orbits are the irreducibles themselves
    for m in range(2, 65):
        assert cs.gammaL_orbit_count(2, m) == cs.count_central_irreducible(2, m)


def test_gammaL_coprime_case():
    # q = p with gcd(p-1, m) = 1: M = N/(p-1); all but the first four above 2^16
    for p, m in [(3, 3), (5, 3), (2, 5), (3, 5), (3, 11), (3, 31), (5, 7), (5, 27), (7, 5),
                 (7, 25), (11, 7), (13, 5), (13, 29)]:
        assert cs.gammaL_orbit_count(p, m) == cs.count_central_irreducible(p, m) // (p - 1)


def test_gammaL_sandwich_at_2_64():
    # every F_q < F_(2^64) with m = [F_(2^64):F_q] >= 2
    for r in (1, 2, 4, 8, 16, 32):
        q, m = 2 ** r, 64 // r
        admissible = q ** m - cs.theta(q, m)
        orbits = cs.gammaL_orbit_count(q, m)
        assert admissible <= orbits * m * r * (q - 1) and orbits * m <= admissible


# every (q, m) with q a power of 2, 3, 5, 7, 11 or 13, m >= 2 and q^m <= 2^16
BURNSIDE_CASES = [(q, m) for q in sorted(b ** k for b in (2, 3, 5, 7, 11, 13)
                                         for k in range(1, 16) if b ** k <= 2 ** 8)
                  for m in range(2, 17) if q ** m <= 2 ** 16]
# the four towers with n = m whose class count is above numb_bound
ABOVE_NUMB_BOUND = {(3, 4): 10, (3, 8): 410, (7, 4): 100, (11, 4): 366}


def test_burnside_cases_are_the_72_towers():
    assert len(BURNSIDE_CASES) == 72
    assert all((q, m) in BURNSIDE_CASES and cs.numb_bound(q, m) < count
               for (q, m), count in ABOVE_NUMB_BOUND.items())


@pytest.mark.parametrize("q,m", BURNSIDE_CASES)
def test_gammaL_orbit_count_matches_enumeration(q, m):
    assert cs.gammaL_orbit_count(q, m) == oracles.gammaL_orbit_count(q, m)


@pytest.mark.parametrize("q,m", BURNSIDE_CASES)
def test_class_count_matches_walk(q, m):
    # G_r acts on F_(q^m)/F_q as a ~ k sigma^i(a); the Burnside text of the
    # numb_bound failure sums the fixed points map by map to the same count
    p, r = cs._prime_power(q)
    tw = gf.make_tower(p, r, m)
    count = cs.orbit_count(q, m, r)
    assert count == oracles.cyclic_algebra_classes(tw)[0] == \
        ABOVE_NUMB_BOUND.get((q, m), count)
    assert cs._burnside_text(tw.field, q, m).endswith(f" = {count}")


def test_cyclic_algebra_classes():
    for p, expect in [(2, 1), (3, 2), (5, 3)]:
        tw = gf.make_tower(p, 1, 2)
        count, reps = cs.cyclic_algebra_classes(tw)
        assert count == expect
        bound = cs.numb_bound(p, 2)
        assert count <= bound
        # representatives yield irreducible t^2 - a
        K = tw.field
        for a in reps:
            assert sp.is_irreducible(tw, (K.neg(a), 0, 1))


# (p, r, n): the benchmark's CYCLIC_POOL towers and F_9, then F_256/F_2 and
# F_(2^12)/F_2
CYCLIC_TOWERS = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (5, 1, 2), (2, 1, 4), (7, 1, 2),
                 (3, 1, 3), (2, 3, 2), (2, 1, 5), (11, 1, 2), (13, 1, 2), (3, 1, 2),
                 (2, 1, 8), (2, 1, 12)]


@pytest.mark.parametrize("p,r,n", CYCLIC_TOWERS)
def test_cyclic_algebra_classes_match_walk(p, r, n):
    tw = gf.make_tower(p, r, n)
    assert cs.cyclic_algebra_classes(tw) == oracles.cyclic_algebra_classes(tw)


def test_cyclic_algebra_classes_at_2_16():
    # F_(2^16)/F_2: 2^16 - 2^8 admissible a in free sigma-orbits of 16, pinned
    # by the sha256 of repr((count, reps)) of the walk in tests/oracles.py
    got = cs.cyclic_algebra_classes(gf.make_tower(2, 1, 16))
    assert got[0] == (2 ** 16 - 2 ** 8) // 16 == 4080
    assert hashlib.sha256(repr(got).encode()).hexdigest() == \
        "9796cfae912ce384defe7d4a75c9bc2514e32d9bfaabf667f247c5414bdcbcc1"


def test_classes_not_in_subfield_iff_irreducible():
    # the enumeration criterion (a outside every proper subfield) matches
    # skew irreducibility of t^m - a
    for p in (2, 3, 5):
        tw = gf.make_tower(p, 1, 2)
        K = tw.field
        outside = ~oracles.in_proper_subfield(tw, np.arange(1, K.order))
        assert outside.tolist() == [sp.is_irreducible(tw, (K.neg(a), 0, 1))
                                    for a in range(1, K.order)]


def test_numb_bound_values():
    assert cs.numb_bound(3, 2) == 2  # 1 + (9-3-2)/4
    assert cs.numb_bound(5, 2) == 3  # 1 + (25-5-4)/8
    assert cs.numb_bound(2, 2) == 1  # m does not divide q-1: (4-2)/2
    assert cs.numb_bound(4, 2) is None or isinstance(cs.numb_bound(4, 2), int)


def test_similarity_reflexive_symmetric():
    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    fs = list(sp.enumerate_admissible(tw, 2))
    for f in fs:
        assert oracles.similar(tw, f, f)  # u = 1
    for f in fs:
        for g in fs:
            assert oracles.similar(tw, f, g) == oracles.similar(tw, g, f)


def _similar_scan(tw, f, g):
    """Exhaustive oracle: g u = 0 mod_r f for some nonzero u, deg u < deg f."""
    Q, m = tw.field.order, sp.degree(f)
    for code in range(1, Q ** m):
        u = sp.poly([code // Q ** i % Q for i in range(m)])
        if all(c == 0 for c in oracles.right_rem(tw, oracles.skew_mul(tw, g, u), f)):
            return True
    return False


@pytest.mark.parametrize("p,modulus,m", [(2, None, 3), (3, [2, 2, 1], 2)])
def test_similar_matches_exhaustive_scan(p, modulus, m):
    tw = gf.make_tower(p, 1, 2, modulus=modulus)
    fs = list(sp.enumerate_admissible(tw, m))
    for f in fs:
        for g in fs:
            assert oracles.similar(tw, f, g) == _similar_scan(tw, f, g)
        # f t has a nonzero u with (f t) u in Rf (the scan finds one), but
        # R/R(f t) is one K-dimension larger than R/Rf
        assert _similar_scan(tw, f, (0,) + f)
        assert not oracles.similar(tw, f, (0,) + f) and not oracles.similar(tw, (0,) + f, f)


def _oracle_similarity_classes(tw, fs):
    """The pairwise partition: union-find over every pair f, g joined when
    similar(f, g) or similar(g, f); classes in order of first member."""
    parent = list(range(len(fs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(fs)):
        for j in range(i + 1, len(fs)):
            if oracles.similar(tw, fs[i], fs[j]) or oracles.similar(tw, fs[j], fs[i]):
                parent[find(i)] = find(j)
    groups = {}
    for i, f in enumerate(fs):
        groups.setdefault(find(i), []).append(f)
    return sorted(groups.values(), key=lambda g: g[0])


# (p, r, n, modulus, m): the benchmark's two similarity inputs (F_9 with
# modulus x^2 + 2x + 2, m = 2; F_4, m = 3) and F_8, m = 2; the pairwise
# oracle makes two annihilator solves per pair
SIMILARITY_CASES = [(3, 1, 2, [2, 2, 1], 2), (2, 1, 2, None, 3), (2, 1, 3, None, 2)]


@pytest.mark.parametrize("p,r,n,modulus,m", SIMILARITY_CASES,
                         ids=[f"F{p ** (r * n)}/F{p ** r}-m{m}"
                              for p, r, n, _, m in SIMILARITY_CASES])
def test_similarity_classes_match_pairwise_oracle(p, r, n, modulus, m):
    tw = gf.make_tower(p, r, n, modulus=modulus)
    fs = list(sp.enumerate_admissible(tw, m))
    assert cs.similarity_classes(tw, m, fs) == _oracle_similarity_classes(tw, fs)


def test_similarity_classes_reject_reducible_f():
    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    irreducible = (K.neg(K.p), 0, 1)                      # t^2 - g
    for reducible in [(1, 0, 1), (0, 1, 1), (0, 0, 1)]:   # t^2 - 1, t^2 + t, t^2
        assert not sp.is_irreducible(tw, reducible)
        with pytest.raises(ValueError):
            cs.similarity_classes(tw, 2, [irreducible, reducible])
    with pytest.raises(ValueError):                       # degree other than m
        cs.similarity_classes(tw, 3, [irreducible])
    # the first offending f in input order decides the error
    with pytest.raises(ValueError, match="is reducible"):
        cs.similarity_classes(tw, 2, [irreducible, (1, 0, 1), (1, 1)])
    with pytest.raises(ValueError, match="does not have degree 2"):
        cs.similarity_classes(tw, 2, [irreducible, (1, 1), (1, 0, 1)])
    with pytest.raises(sp.NotMonic):
        cs.similarity_classes(tw, 2, [irreducible, (1, 0, K.p), (1, 0, 1)])
    assert cs.similarity_classes(tw, 2, []) == []


# every tower with |K|^m <= 4096, m >= 2: F_4, F_8, F_9, F_16 (both sigma),
# F_25, F_27, F_32, F_49 and the three F_64 towers
IDENTITY_TOWERS = [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 1, 4), (2, 2, 2), (5, 1, 2),
                   (3, 1, 3), (2, 1, 5), (7, 1, 2), (2, 1, 6), (2, 2, 3), (2, 3, 2)]
IDENTITY_CASES = [((p, r, n), m) for p, r, n in IDENTITY_TOWERS
                  for m in range(2, 7) if p ** (r * n * m) <= 4096]


@pytest.mark.parametrize("tower,m", IDENTITY_CASES,
                         ids=[f"F{p ** (r * n)}/F{p ** r}-m{m}"
                              for (p, r, n), m in IDENTITY_CASES])
def test_admissible_census_identities(tower, m):
    tw = gf.make_tower(*tower)
    _expect_census_identities(tw, m, list(sp.enumerate_admissible(tw, m)))


def _expect_census_identities(tw, m, fs):
    # the reduced norm maps the admissible f onto the N(q,m) monic
    # irreducibles of degree m in F_q[y], each fibre the (q^(nm)-1)/(q^m-1)
    # maximal left ideals of M_n(F_{q^m}); so enumerate_admissible has a
    # second derivation, their product
    q, n = tw.q, tw.n
    classes = cs.similarity_classes(tw, m, fs)
    n_qm = cs.count_central_irreducible(q, m)
    size = (q ** (n * m) - 1) // (q ** m - 1)
    assert len(classes) == n_qm
    assert all(len(c) == size for c in classes)
    assert len(fs) == n_qm * size


# the three towers with |K|^m = 2^16, and the sha256 of repr(list) of their
# admissible f as the one-f-at-a-time is_admissible filter listed them
TOWERS_2_16 = [((2, 1, 8), 2, 21845,
                "0a46a63c46cf91c0354486f094f516944e05e31c3e26c1ac5a463ef2cbd3d142"),
               ((2, 1, 4), 4, 13107,
                "7704c6420725da0d4aeb28b0b0df8202e47d2bd8691023a94daf8556e00a6f66"),
               ((2, 2, 2), 4, 15420,
                "45e5fb871e60536ec80ec1df6cb4404a4d33fce8b3052bf25c8498b5b94fe8ef")]


@pytest.mark.parametrize("tower,m,count,digest", TOWERS_2_16,
                         ids=["F256/F2-m2", "F16/F2-m4", "F16/F4-m4"])
def test_admissible_census_at_two_to_the_sixteen(tower, m, count, digest):
    tw = gf.make_tower(*tower)
    fs = list(sp.enumerate_admissible(tw, m))
    assert len(fs) == count
    assert hashlib.sha256(repr(fs).encode()).hexdigest() == digest
    _expect_census_identities(tw, m, fs)


def test_similarity_partition_f4():
    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    x = K.p
    fs = [(K.neg(x), 0, 1), (K.neg(K.add(x, 1)), 0, 1)]
    parts = cs.similarity_classes(tw, 2, fs)
    # M(2,2) = 1: a single isotopy class, and similarity detects it
    assert len(parts) == 1


def test_sandler_known_cases():
    exists, admissible = cs.sandler_exists(11, 1, 2, 5)
    assert exists and 12 in admissible
    assert cs.sandler_exists(3, 1, 2, 2)[0]
    assert cs.sandler_exists(2, 1, 2, 2)[0]
    with pytest.raises(cs.PreconditionViolated):
        cs.sandler_exists(2, 1, 4, 4)  # m = 4: composite, not in {2, 3}
    with pytest.raises(cs.PreconditionViolated):
        cs.sandler_exists(2, 2, 3, 5)  # r does not divide l


@pytest.mark.parametrize("p,r,l,m", [(5, 1, 4, 4), (3, 2, 8, 4), (3, 2, 8, 8)])
def test_sandler_rejects_prime_power_m(p, r, l, m):
    # m | p^r - 1 but m is not prime: the gcd criterion returned 620, 6552
    # and 6556 exponents here where a direct scan of t^m - alpha^u finds
    # 600, 6480 and 3280
    with pytest.raises(cs.PreconditionViolated):
        cs.sandler_exists(p, r, l, m)


def test_sandler_against_direct_enumeration():
    # admissible exponents match direct skew-irreducibility for small towers
    cases = [(2, 1, 2, 2), (3, 1, 2, 2), (5, 1, 2, 2), (2, 1, 3, 3), (2, 1, 4, 2)]
    for p, r, l, m in cases:
        if (l // r) < m:
            continue
        exists, admissible = cs.sandler_exists(p, r, l, m)
        tw = gf.make_tower(p, r, l // r)
        K = tw.field
        direct = []
        for u in range(K.order - 1):
            a = K.exp[u]
            f = [K.neg(a)] + [0] * (m - 1) + [1]
            if sp.is_admissible(tw, tuple(f)):
                direct.append(u)
        assert exists == bool(direct)
        assert sorted(admissible) == direct


def test_bounds_report_assembly():
    tw = gf.make_tower(2, 1, 2)
    rep = cs.bounds_report(2, 2, 2, tower=tw)
    assert rep.n_qm == 1 and rep.m_qm == 1 and rep.observed_classes == 1
    assert list(rep.json()) == ["q", "n", "m", "N", "M", "M_sandwich", "numb_bound",
                                "kantor_bound", "observed_classes", "representatives"]
    rep5 = cs.bounds_report(5, 2, 2)
    assert rep5.m_qm == 3
    assert rep5.sandwich_low <= rep5.m_qm <= rep5.sandwich_high
    assert rep5.kantor > 0 if hasattr(rep5, "kantor") else True


def test_too_large_guard():
    with pytest.raises(gf.SizeCapExceeded):
        cs.count_irreducible_enum(16, 5)
