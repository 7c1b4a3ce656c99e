"""Multiplicative loops: translations, Mlt/Inn, cyclicity, subloops,
isomorphism, Latin-square export."""

import numpy as np
import pytest

from skewloop import gf
from skewloop import loops as lp
from skewloop import permgroup as pg
from skewloop import semifield as sfd
from skewloop import skewpoly as sp


def quat2_loop():
    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    S = sfd.build_semifield(tw, (K.neg(K.p), 0, 1))
    return S, lp.build_loop(S)


def quat3_loops():
    tw = gf.make_tower(3, 1, 2, modulus=[2, 2, 1])
    K = tw.field
    out = []
    for a in (K.p, K.add(K.p, 1)):
        S = sfd.build_semifield(tw, (K.neg(a), 0, 1))
        out.append(lp.build_loop(S))
    return out


def test_loop_is_latin_with_identity():
    S, L = quat2_loop()
    assert L.size == 15
    tbl = L.table
    n = L.size
    for i in range(n):
        assert sorted(tbl[i, :]) == list(range(n))
        assert sorted(tbl[:, i]) == list(range(n))
    assert all(L.mul(L.identity, j) == j == L.mul(j, L.identity) for j in range(n))


def test_table_matches_semifield_mul():
    S, L = quat2_loop()
    for x in range(1, S.size):
        for y in range(1, S.size):
            assert L.mul(x - 1, y - 1) == S.mul(x, y) - 1


def test_mlt_inn_quat2():
    S, L = quat2_loop()
    M = lp.mlt_group(L)
    assert M.order == 20160
    inn_order, gens = lp.inn_group(L, M)
    assert inn_order == 1344
    assert all(int(g[L.identity]) == L.identity for g in gens)
    # all translations sift into Mlt
    for a in range(L.size):
        assert M.contains(L.left_translation(a))
        assert M.contains(L.right_translation(a))


def test_inn_from_generators_agrees():
    S, L = quat2_loop()
    M = lp.mlt_group(L)
    inn_order, _ = lp.inn_group(L, M)
    assert lp.inn_from_generators(L).order == inn_order


def test_inner_mapping_definitions():
    S, L = quat2_loop()
    for x in range(L.size):
        t = lp.inner_mapping(L, "T", x)
        lx = L.left_translation(x)
        rx = L.right_translation(x)
        assert np.array_equal(t.perm, pg.compose(pg.inverse(lx), rx))
    # L_{x,y} = id when x, y generate an associative subloop (both in K^x)
    K = L.semifield.tower.field
    field_idx = [c - 1 for c in range(1, K.order)]  # K^x inside the loop
    for x in field_idx:
        for y in field_idx:
            m = lp.inner_mapping(L, "L", x, y)
            assert pg.is_identity(m.perm)


def test_t_identity_is_identity():
    _, L = quat2_loop()
    m = lp.inner_mapping(L, "T", L.identity)
    assert pg.is_identity(m.perm)


def test_cyclicity_quat2():
    _, L = quat2_loop()
    left, right, wit = lp.cyclicity(L)
    assert right  # the order-15 loop is right cyclic
    assert lp._principal_orbit_size(L, wit["right"], "right") == L.size


def test_cyclicity_quat3_both():
    for L in quat3_loops():
        left, right, _ = lp.cyclicity(L)
        assert left and right


def test_subloops_and_lagrange_quat2():
    _, L = quat2_loop()
    orders, weak, strong = lp.subloops_and_lagrange(L)
    assert orders == [1, 3, 6, 15]
    assert not weak and not strong  # 6 does not divide 15


def subloops_oracle(L):
    """Test oracle: closures <a>, then all pairwise joins to a fixpoint."""
    found = {lp._closure(L, [a]) for a in range(L.size)}
    while True:
        joins = {lp._closure(L, list(a | b)) for a in found for b in found}
        if joins <= found:
            return found | {frozenset(range(L.size))}
        found |= joins


@pytest.mark.parametrize("p,r,n,m,index", [(2, 1, 2, 2, 0), (2, 1, 3, 2, 0), (3, 1, 2, 2, 3),
                                           (2, 1, 2, 3, 0)])
def test_subloops_match_join_fixpoint(p, r, n, m, index):
    tw = gf.make_tower(p, r, n)
    f = list(sp.enumerate_admissible(tw, m))[index]
    L = lp.build_loop(sfd.build_semifield(tw, f))
    subs = lp.subloops(L)
    assert len(subs) == len(set(subs))
    assert set(subs) == subloops_oracle(L)


def test_subloops_of_elementary_abelian_group():
    # (Z/2)^4 under XOR: subgroups of rank 0..4 number 1, 15, 35, 15, 1, so
    # the lattice needs joins of up to three cyclic subgroups
    L = lp.loop_from_table([[a ^ b for b in range(16)] for a in range(16)])
    subs = lp.subloops(L)
    assert sorted(len(s) for s in subs) == [1] + [2] * 15 + [4] * 35 + [8] * 15 + [16]
    assert set(subs) == subloops_oracle(L)


def test_loop_isomorphism_self_and_distinct():
    L1, L2 = quat3_loops()
    assert lp.loop_isomorphic(L1, L1) is not None
    assert lp.loop_isomorphic(L1, L2) is None


def test_isomorphism_is_checked_pointwise():
    _, L = quat2_loop()
    phi = lp.loop_isomorphic(L, L)
    for i in range(L.size):
        for j in range(L.size):
            assert phi[L.mul(i, j)] == L.mul(phi[i], phi[j])


def test_latin_csv_roundtrip(tmp_path):
    _, L = quat2_loop()
    path = tmp_path / "latin.csv"
    lp.write_latin_csv(L, str(path))
    back = lp.read_latin_csv(str(path))
    assert np.array_equal(back.table, L.table)


def test_loop_report_keys():
    _, L = quat2_loop()
    rep = lp.loop_report(L)
    assert rep["order"] == 15
    assert rep["mlt_order"] == "20160"
    assert rep["inn_order"] == "1344"


def test_mlt_seed_invariance():
    _, L = quat2_loop()
    assert lp.mlt_group(L, seed=0).order == lp.mlt_group(L, seed=99).order


# Chains of the two order-80 F_9 loops (A_1, A_2), recorded from the
# one-generator-at-a-time Schreier-Sims: the batched search must find the
# same residues in the same order, hence the same base and orbits.
MLT80 = {"order": 24261120, "base": [0, 2, 8, 26], "orbits": [80, 78, 72, 54]}
INN80 = {"order": 303264, "base": [8, 2, 26], "orbits": [78, 72, 54]}


def chain(G):
    return {"order": G.order, "base": G.base, "orbits": G.orbit_lengths()}


def test_mlt_and_inn_chains_pinned_order80():
    for L in quat3_loops():
        M = lp.mlt_group(L)
        assert chain(M) == MLT80
        assert M.stats["stopped_at_bound"]
        assert M.order == pg.gl_order(4, 3) == lp.gl_bound(L)
        inn = lp.inn_from_generators(L)
        assert chain(inn) == INN80
        assert not inn.stats["stopped_at_bound"]


def test_mlt_without_certificate_runs_in_full():
    for L in quat3_loops():
        bare = lp.loop_from_table(L.table)
        assert lp.gl_bound(bare) is None
        M = lp.mlt_group(bare)
        assert chain(M) == MLT80
        assert not M.stats["stopped_at_bound"]
        # the full run tests every Schreier generator the bounded run skips
        assert M.stats["schreier_generators"] > lp.mlt_group(L).stats["schreier_generators"]


def test_broken_table_fails_certificate():
    from sympy.combinatorics import Permutation, PermutationGroup

    S, L = quat2_loop()
    table = L.table.copy()
    table[[1, 2]] = table[[2, 1]]   # rows stay permutations; columns do not stay linear
    broken = lp.LoopCtx(semifield=S, table=table)
    assert lp.gl_bound(broken) is None
    M = lp.mlt_group(broken)
    assert not M.stats["stopped_at_bound"]
    perms = [broken.left_translation(a) for a in range(broken.size)]
    perms += [broken.right_translation(a) for a in range(broken.size)]
    ref = PermutationGroup([Permutation(p.tolist()) for p in perms])
    assert M.order == ref.order()
    assert all(M.contains(p) for p in perms)


def test_inn_from_generators_commutative_table_matches_sympy():
    """A commutative, non-associative loop: every T_x is trivial, so the
    chain starts empty and takes its first strong generators straight from
    the batch of L_{x,y}, R_{x,y}, which the next x overwrites."""
    from sympy.combinatorics import Permutation, PermutationGroup

    T = [[0, 1, 2, 3, 4, 5], [1, 4, 5, 0, 2, 3], [2, 5, 4, 1, 3, 0],
         [3, 0, 1, 2, 5, 4], [4, 2, 3, 5, 0, 1], [5, 3, 0, 4, 1, 2]]
    L = lp.loop_from_table(T)
    G = lp.inn_from_generators(L)
    perms = [lp.inner_mapping(L, kind, x, y).perm
             for x in range(6) for y in range(6) for kind in ("L", "R")]
    ref = PermutationGroup([Permutation(p.tolist()) for p in perms])
    assert G.order == ref.order() == 120
    # the chain's strong generators still generate the group it reports
    assert pg.bsgs_build(G.strong_generators()).order == G.order
    assert all(G.contains(p) for p in perms)
