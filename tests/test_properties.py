"""Randomized invariants over small towers and admissible polynomials."""

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from oracles import add
from skewloop import gf
from skewloop import loops as lp
from skewloop import semifield as sfd
from skewloop import skewpoly as sp

TOWERS = [gf.make_tower(2, 1, 2), gf.make_tower(3, 1, 2), gf.make_tower(2, 1, 3)]

# precompute (tower, f) pairs small enough for exhaustive checks
PAIRS = []
for _tw in TOWERS:
    for _m in (2, 3):
        if _tw.field.order ** _m > 600:
            continue
        for _f in sp.enumerate_admissible(_tw, _m):
            PAIRS.append((_tw, _f))

pair_idx = st.integers(min_value=0, max_value=len(PAIRS) - 1)


def semifield_for(i):
    tw, f = PAIRS[i]
    return sfd.build_semifield(tw, f)


@settings(max_examples=30, deadline=None)
@given(pair_idx, st.randoms(use_true_random=False))
def test_no_zero_divisors_and_distributivity(i, rng):
    S = semifield_for(i)
    for _ in range(50):
        x = rng.randrange(1, S.size)
        y = rng.randrange(1, S.size)
        z = rng.randrange(S.size)
        assert S.mul(x, y) != 0
        assert S.mul(x, add(S, y, z)) == add(S, S.mul(x, y), S.mul(x, z))
        assert S.mul(add(S, y, z), x) == add(S, S.mul(y, x), S.mul(z, x))


@settings(max_examples=20, deadline=None)
@given(pair_idx)
def test_translations_bijective(i):
    S = semifield_for(i)
    L = lp.build_loop(S)
    for a in range(L.size):
        assert sorted(L.left_translation(a)) == list(range(L.size))
        assert sorted(L.right_translation(a)) == list(range(L.size))


@settings(max_examples=20, deadline=None)
@given(pair_idx)
def test_nuclei_sizes(i):
    S = semifield_for(i)
    rep = sfd.nuclei(S)
    q, n, m = S.tower.q, S.tower.n, S.m
    assert rep.nuc_l.cardinality == q ** n
    assert rep.nuc_m.cardinality == q ** n
    assert rep.nuc_r.cardinality == q ** m
    assert rep.center.cardinality == q


@settings(max_examples=15, deadline=None)
@given(pair_idx, st.randoms(use_true_random=False))
def test_inverses_and_associator(i, rng):
    S = semifield_for(i)
    rep = sfd.nuclei(S)
    for _ in range(20):
        x = rng.randrange(1, S.size)
        left, right = sfd.inverses(S, x)
        assert S.mul(left, x) == S.one and S.mul(x, right) == S.one
    for c in rep.nuc.elements[:6]:
        y = rng.randrange(S.size)
        z = rng.randrange(S.size)
        assert oracles.associator(S, c, y, z) == 0


@settings(max_examples=15, deadline=None)
@given(pair_idx, st.randoms(use_true_random=False))
def test_skew_divmod_reconstructs(i, rng):
    tw, f = PAIRS[i]
    K = tw.field
    deg_g = rng.randrange(len(f) - 1, len(f) + 3)
    g = tuple(rng.randrange(K.order) for _ in range(deg_g)) + (1,)
    q_, r_ = sp.right_divmod(tw, g, f)
    back = oracles.skew_add(tw, oracles.skew_mul(tw, q_, f), r_)
    assert sp.poly(list(back)) == sp.poly(list(g))
    assert sp.degree(r_) < sp.degree(f)


@settings(max_examples=15, deadline=None)
@given(pair_idx, st.randoms(use_true_random=False))
def test_mod_f_reduction_respects_mul(i, rng):
    S = semifield_for(i)
    tw, f = PAIRS[i]
    # (x * y) * z == x * (y * z) whenever x is in the left nucleus
    rep = sfd.nuclei(S)
    for _ in range(20):
        x = rep.nuc_l.elements[rng.randrange(len(rep.nuc_l.elements))]
        y = rng.randrange(S.size)
        z = rng.randrange(S.size)
        assert S.mul(S.mul(x, y), z) == S.mul(x, S.mul(y, z))


@settings(max_examples=10, deadline=None)
@given(pair_idx)
def test_loop_table_is_latin(i):
    S = semifield_for(i)
    L = lp.build_loop(S)
    tbl = L.table
    n = L.size
    want = np.arange(n)
    assert all(np.array_equal(np.sort(tbl[r]), want) for r in range(n))
    assert all(np.array_equal(np.sort(tbl[:, c]), want) for c in range(n))


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=len(TOWERS) - 1),
       st.integers(min_value=0, max_value=10 ** 6))
def test_sigma_is_field_automorphism(ti, seed):
    tw = TOWERS[ti]
    K = tw.field
    rng = np.random.default_rng(seed)
    a, b = int(rng.integers(K.order)), int(rng.integers(K.order))
    sa, sb = tw.sigma(a), tw.sigma(b)
    assert tw.sigma(K.add(a, b)) == K.add(sa, sb)
    assert tw.sigma(K.mul(a, b)) == K.mul(sa, sb)
    # sigma fixes exactly F
    fixed = [x for x in range(K.order) if tw.sigma(x) == x]
    assert len(fixed) == tw.q
