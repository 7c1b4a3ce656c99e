"""H_{tau,k} enumeration, group structure, inner automorphisms, gcd counts."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from skewloop import autgroup as ag
from skewloop import gf
from skewloop import loops as lp
from skewloop import semifield as sfd
from skewloop import skewpoly as sp


def make_quat(p, modulus, a_coeffs):
    tw = gf.make_tower(p, 1, 2, modulus=modulus)
    K = tw.field
    a = K.encode(a_coeffs)
    return sfd.build_semifield(tw, (K.neg(a), 0, 1))


def image_table(S, phi):
    """phi(x) for every code x, from the matrix."""
    return oracles.apply_aut(S, phi, np.arange(S.size))


def sigma_product(tw, k, lo, hi):
    """Test oracle: prod_{l=lo}^{hi-1} sigma^l(k), factor by factor."""
    K = tw.field
    out = 1
    for l in range(lo, hi):
        out = K.mul(out, tw.sigma(k, l))
    return out


def hk_condition(S, tau_exp, k):
    """Test oracle: tau(a_i) = (prod_{l=i}^{m-1} sigma^l(k)) a_i for every
    coefficient of f = t^m - sum a_i t^i, by field products.  Stored
    coefficients are -a_i; the sign cancels.  Indices with a_i = 0 read
    0 = 0 and are skipped."""
    K = S.tower.field
    return all(ag._tau_apply(S, tau_exp, c) == K.mul(sigma_product(S.tower, k, i, S.m), c)
               for i, c in enumerate(S.f[:S.m]) if c)


def hk_scan(S):
    """Test oracle: every (tau, k) in Aut(K) x K^x passing hk_condition, in
    the order solve_aut_conditions emits them."""
    K = S.tower.field
    return [(tau, k) for tau in range(K.l) for k in range(1, K.order)
            if hk_condition(S, tau, k)]


def hk_params(S):
    return [(H.tau_exp, H.k) for H in ag.solve_aut_conditions(S)]


def hk_images_oracle(S, tau_exp, k):
    """Test oracle: the per-element formula
    sum x_i t^i -> sum tau(x_i) (prod_{l<i} sigma^l(k)) t^i on every code."""
    K = S.tower.field
    lam = [sigma_product(S.tower, k, 0, i) for i in range(S.m)]
    images = []
    for code in range(S.size):
        xs = list(S.decode(code)) + [0] * S.m
        images.append(S.encode(sp.poly(
            [K.mul(ag._tau_apply(S, tau_exp, xs[i]), lam[i]) for i in range(S.m)])))
    return images


@pytest.mark.parametrize("p,r,n,m", [(2, 1, 2, 2), (2, 1, 3, 2), (3, 1, 2, 2), (2, 1, 4, 2),
                                     (2, 2, 2, 2), (5, 1, 2, 2), (2, 1, 2, 3), (3, 1, 2, 3),
                                     (3, 1, 3, 2)])
def test_realize_hk_matches_per_element_formula(p, r, n, m):
    # every (tau, k), also those failing hk_condition, for |S| <= 729
    tw = gf.make_tower(p, r, n)
    S = sfd.build_semifield(tw, next(iter(sp.enumerate_admissible(tw, m))))
    K = tw.field
    assert S.size <= 729
    for tau in range(K.l):
        for k in range(1, K.order):
            H = ag.realize_hk(S, tau, k)
            assert image_table(S, H).tolist() == hk_images_oracle(S, tau, k), (tau, k)


def test_scale_two_to_the_twenty():
    # |S| = 2^20: an |S| x D int64 array alone would be 160 MB
    tw = gf.make_tower(2, 1, 10)
    tracemalloc.start()
    try:
        S = sfd.build_semifield(tw, sp.parse_poly(tw, "t^2 - g^1"))
        auts = ag.solve_aut_conditions(S)
        gid = ag.aut_group_structure(S, auts)
        inners = ag.inner_automorphisms(S)
        inner_gid = ag.inner_group_structure(S, inners)
        match = oracles.match_inner_to_hk(S, inners, auts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.size == 2 ** 20
    assert len(auts) == 15 and gid.order == 15
    assert len(inners) == 3 and (inner_gid.tag, inner_gid.order) == ("cyclic", 3)
    assert len(match) == 3
    assert peak < 32 * 2 ** 20, peak


def test_quat2_hk_and_inner():
    S = make_quat(2, None, [0, 1])
    auts = ag.solve_aut_conditions(S)
    assert len(auts) == 3
    gid = ag.aut_group_structure(S, auts)
    assert gid.tag == "cyclic" and gid.order == 3
    inners = ag.inner_automorphisms(S)
    assert len(inners) == 3
    assert ag.inner_group_structure(S, inners).tag == "cyclic"
    with pytest.raises(ag.NotClosed):   # no 2-subset of Z/3 is closed
        ag.inner_group_structure(S, inners[1:])
    # every G_c equals some H_{id,k} with N(k) = 1
    match = oracles.match_inner_to_hk(S, inners, auts)
    assert len(match) == 3


def test_quat3_aut_groups():
    # x primitive: 4 solutions, cyclic; x+1 of order 4: 8 solutions, Dic_2
    S1 = make_quat(3, [2, 2, 1], [0, 1])
    auts1 = ag.solve_aut_conditions(S1)
    gid1 = ag.aut_group_structure(S1, auts1)
    assert (len(auts1), gid1.tag, gid1.order) == (4, "cyclic", 4)

    S2 = make_quat(3, [2, 2, 1], [1, 1])
    auts2 = ag.solve_aut_conditions(S2)
    gid2 = ag.aut_group_structure(S2, auts2)
    assert (len(auts2), gid2.tag, gid2.order) == (8, "dicyclic", 8)


# (p, r, n, f, maps, tag, params) with the default moduli: the semidirect
# and dicyclic branches of the group identification on real semifields
AUT_GROUPS = [
    (3, 2, 2, "t^2 - g^5", 40, "semidirect", {"a": 5, "b": 8, "q": 3}),
    (2, 3, 2, "t^2 - g^3", 27, "semidirect", {"a": 9, "b": 3, "q": 4}),
    (3, 1, 4, "t^2 - g^2", 16, "semidirect", {"a": 8, "b": 2, "q": 5}),
    (7, 1, 2, "t^2 - g^4", 16, "dicyclic", {"k": 4}),
    (5, 1, 2, "t^2 - g^3", 12, "dicyclic", {"k": 3}),
]


@pytest.mark.parametrize("p,r,n,f,maps,tag,params", AUT_GROUPS,
                         ids=[f"F{p ** (r * n)}/F{p ** r}-{f}" for p, r, n, f, *_ in AUT_GROUPS])
def test_aut_group_identification(p, r, n, f, maps, tag, params):
    tw = gf.make_tower(p, r, n)
    S = sfd.build_semifield(tw, sp.parse_poly(tw, f))
    auts = ag.solve_aut_conditions(S)
    gid = ag.aut_group_structure(S, auts)
    assert (len(auts), gid.tag, gid.order, gid.params) == (maps, tag, maps, params)


def test_hk_action_on_t_powers():
    S = make_quat(3, [2, 2, 1], [1, 1])
    K = S.tower.field
    for H in ag.solve_aut_conditions(S):
        # H(t) = k t and H(1) = 1
        assert oracles.apply_aut(S, H, S.one) == S.one
        assert oracles.apply_aut(S, H, S.t) == S.mul(H.k, S.t)


def test_exact_check_rejects_non_automorphisms_at_729():
    # F_9, m = 3: above the old sampled-pairs threshold of 625 elements
    tw = gf.make_tower(3, 1, 2)
    S = sfd.build_semifield(tw, next(iter(sp.enumerate_admissible(tw, 3))))
    assert S.size == 729
    auts = ag.solve_aut_conditions(S)
    assert auts and all(ag._is_multiplicative(S, H.matrix) for H in auts)
    # realize_hk is linear for every (tau, k); one failing the coefficient
    # equation is linear but not multiplicative
    K = S.tower.field
    tau, k = next((t, k) for t in range(K.l) for k in range(1, K.order)
                  if not hk_condition(S, t, k))
    assert not ag._is_multiplicative(S, ag.realize_hk(S, tau, k).matrix)


def test_identity_parameters():
    S = make_quat(2, None, [0, 1])
    H = ag.realize_hk(S, 0, 1)
    assert np.array_equal(H.matrix, np.eye(S.dim_prime, dtype=np.int64))
    assert image_table(S, H).tolist() == list(range(S.size))


def test_composition_law_matches_maps():
    S = make_quat(3, [2, 2, 1], [1, 1])
    auts = ag.solve_aut_conditions(S)
    by_params = {(H.tau_exp, H.k): H for H in auts}
    tables = {(H.tau_exp, H.k): image_table(S, H) for H in auts}
    for a in auts:
        for b in auts:
            params = ag.compose_params(S, a, b)
            c = by_params[params]
            ta, tb = tables[(a.tau_exp, a.k)], tables[(b.tau_exp, b.k)]
            assert np.array_equal(ta[tb], tables[params])
            assert np.array_equal(b.matrix @ a.matrix % S.p, c.matrix)


def test_h_sigma_1_for_f_over_fixed_field():
    # f in F[t] with nonzero lower coefficients: every H_{tau,1} solves Eq,
    # and <H_{sigma,1}> is cyclic of order n
    tw = gf.make_tower(2, 1, 2)
    f = (1, 1, 1)  # t^2 + t + 1, coefficients in F_2
    assert sp.is_admissible(tw, f)
    S = sfd.build_semifield(tw, f)
    auts = ag.solve_aut_conditions(S)
    params = {(H.tau_exp, H.k) for H in auts}
    for e in range(tw.field.l):
        assert (e, 1) in params
    sigma1 = next(H for H in auts if (H.tau_exp, H.k) == (1, 1))
    # order of H_{sigma,1} is n = 2
    images = image_table(S, sigma1)
    assert images[images].tolist() == list(range(S.size))


def test_inner_auts_sift_into_inn():
    S = make_quat(2, None, [0, 1])
    L = lp.build_loop(S)
    M = lp.mlt_group(L)
    inn_order, gens = lp.inn_group(L, M)
    from skewloop import permgroup as pg
    inn = pg.bsgs_build(gens, base_hint=[L.identity]) if gens else None
    for ia in ag.inner_automorphisms(S):
        perm = (image_table(S, ia)[1:] - 1).astype(np.int32)
        assert M.contains(perm)
        assert int(perm[L.identity]) == L.identity
        if inn is not None:
            assert inn.contains(perm)


def test_inner_count_equals_s_when_nuc_is_K():
    for p, mod, coeffs in [(2, None, [0, 1]), (3, [2, 2, 1], [0, 1]),
                           (3, [2, 2, 1], [1, 1])]:
        S = make_quat(p, mod, coeffs)
        rep = sfd.nuclei(S)
        q = S.tower.q
        n = S.tower.n
        if rep.nuc.cardinality == S.tower.field.order:
            s = (q ** n - 1) // (q - 1)
            inners = ag.inner_automorphisms(S)
            assert len(inners) == s
            gid = ag.inner_group_structure(S, inners)
            assert gid.tag == "cyclic" and gid.order == s


@pytest.mark.parametrize("p,r,n,f,maps", [(2, 1, 2, "t^2 - g^1", 3), (3, 2, 2, "t^2 - g^5", 10),
                                          (2, 3, 2, "t^2 - g^3", 9), (2, 6, 2, "t^2 - g^1", 65)],
                         ids=["quat2", "F81/F9", "F64/F8", "F4096/F64"])
def test_inner_automorphisms_match_all_c_oracle(p, r, n, f, maps):
    # one G_c per coset of the centre's units against G_c for every c
    tw = gf.make_tower(p, r, n)
    S = sfd.build_semifield(tw, sp.parse_poly(tw, f))
    want = oracles.inner_automorphisms(S)
    got = ag.inner_automorphisms(S)
    assert [ia.c for ia in got] == [c for c, _ in want]
    assert all(np.array_equal(ia.matrix, M) for ia, (_, M) in zip(got, want))
    assert len(got) == maps


def test_g_c_trivial_for_central_c():
    S = make_quat(3, [2, 2, 1], [0, 1])
    # c in F^x gives the identity map; the dedup keeps one trivial entry
    inners = ag.inner_automorphisms(S)
    trivial = [ia for ia in inners if image_table(S, ia).tolist() == list(range(S.size))]
    assert len(trivial) == 1


# the (p, r, n, m) towers of the closed-form battery below
BATTERY = oracles.BATTERY


def test_s_gcd_count():
    # for a binomial f = t^m - a the only condition on k for tau = id is
    # k^s = 1 with s = (q^m - 1)/(q - 1), so there are S(r,m,l) maps H_(id,k)
    binomials = 0
    for p, r, n, m in BATTERY:
        tw = gf.make_tower(p, r, n)
        K = tw.field
        for a in range(1, K.order):
            f = (K.neg(a),) + (0,) * (m - 1) + (1,)
            if not sp.is_admissible(tw, f):
                continue
            S = sfd.build_semifield(tw, f)
            ids = [H for H in ag.solve_aut_conditions(S) if H.tau_exp == 0]
            assert len(ids) == oracles.s_gcd_count(p, r, m, K.l), (p, r, n, m, f)
            binomials += 1
    assert binomials > 0
    assert oracles.s_gcd_count(11, 1, 5, 2) == 5
    with pytest.raises(ValueError):
        oracles.s_gcd_count(3, 2, 2, 3)


def test_subgroup_comparison():
    # f arises from g by zeroing a coefficient: every (tau, k) solving the
    # coefficient equation for g solves it for f
    tw = gf.make_tower(3, 1, 2, modulus=[2, 2, 1])
    K = tw.field
    f = (K.neg(K.p), 0, 1)
    params_f = set(hk_params(sfd.build_semifield(tw, f)))
    compared = 0
    for a1 in range(1, K.order):
        g = (K.neg(K.p), a1, 1)
        if sp.is_admissible(tw, g):
            assert set(hk_params(sfd.build_semifield(tw, g))) <= params_f, g
            compared += 1
    assert compared > 0


@pytest.mark.parametrize("p,r,n,m", BATTERY)
def test_closed_form_equals_scan_on_every_admissible_f(p, r, n, m):
    tw = gf.make_tower(p, r, n)
    for f in sp.enumerate_admissible(tw, m):
        S = sfd.build_semifield(tw, f)
        assert hk_params(S) == hk_scan(S), f


@pytest.mark.parametrize("p,r,n", [(2, 1, 8), (2, 2, 4), (2, 4, 2), (2, 1, 7), (2, 3, 2),
                                   (3, 1, 5), (3, 2, 2), (5, 1, 3), (11, 1, 2), (13, 1, 2)])
def test_closed_form_equals_scan_on_seeded_f(p, r, n):
    tw = gf.make_tower(p, r, n)
    K = tw.field
    assert K.order <= 256
    rng = random.Random(K.order * 100 + r)
    found = 0
    while found < 10:
        f = (*(rng.randrange(K.order) for _ in range(2)), 1)
        if not sp.is_admissible(tw, f):
            continue
        S = sfd.build_semifield(tw, f)
        assert hk_params(S) == hk_scan(S), f
        found += 1


def test_closed_form_at_two_to_the_sixteen():
    # 24 maps, pinned by the sha256 of the (tau, k) list an exhaustive scan
    # over the 16 * 65535 pairs found
    tw = gf.make_tower(2, 1, 16)
    S = sfd.build_semifield(tw, sp.parse_poly(tw, "t^2 - g^1"))
    auts = ag.solve_aut_conditions(S)
    params = [(H.tau_exp, H.k) for H in auts]
    assert len(params) == 24
    assert hashlib.sha256(repr(params).encode()).hexdigest() == \
        "8a59c88b34bc7f7870abf2ce3361f0f74c711e7c412344a161d90eb1acc67b9d"
    gid = ag.aut_group_structure(S, auts)
    assert (gid.tag, gid.order) == ("cyclic", 24)


@pytest.mark.parametrize("p,r,n", [(2, 1, 5), (3, 1, 3), (2, 2, 3)])
def test_sigma_products_are_field_powers(p, r, n):
    tw = gf.make_tower(p, r, n)
    S = sfd.build_semifield(tw, next(iter(sp.enumerate_admissible(tw, 3))))
    for k in range(tw.field.order):
        assert oracles.rel_norm(tw, k) == sigma_product(tw, k, 0, n)
        for i in range(S.m + 1):
            assert ag._sigma_prefix(S, k, i) == sigma_product(tw, k, 0, i)
