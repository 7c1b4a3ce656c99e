"""Multiplicative loops: translations, Mlt/Inn, cyclicity, subloops,
isomorphism, Latin-square export."""

import hashlib
import itertools
import random

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


# the commutative, non-associative loop of
# test_inn_from_generators_commutative_table_matches_sympy
COMMUTATIVE6 = [[0, 1, 2, 3, 4, 5], [1, 4, 5, 0, 2, 3], [2, 5, 4, 1, 3, 0],
                [3, 0, 1, 2, 5, 4], [4, 2, 3, 5, 0, 1], [5, 3, 0, 4, 1, 2]]


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


def closure_oracle(L, seed):
    """Test oracle: multiply all known pairs until nothing new appears."""
    known = set(seed)
    while True:
        more = {L.mul(a, b) for a in known for b in known} - known
        if not more:
            return known
        known |= more


# a loop of order 6 in which {0, 3, 5} is closed under every product but
# 5 * 3 = 1: <5> is found through 5 * 5 = 3, so it needs the product of an
# older element by a newer one
LATIN6 = [[0, 1, 2, 3, 4, 5], [1, 3, 0, 4, 5, 2], [2, 5, 3, 0, 1, 4],
          [3, 4, 1, 5, 2, 0], [4, 0, 5, 2, 3, 1], [5, 2, 4, 1, 0, 3]]


@pytest.mark.parametrize("which", ["quat2", "A_1", "commutative6", "latin6"])
def test_generate_matches_fixpoint_with_valid_steps(which):
    L = {"quat2": lambda: quat2_loop()[1], "A_1": lambda: quat3_loops()[0],
         "commutative6": lambda: lp.loop_from_table(COMMUTATIVE6),
         "latin6": lambda: lp.loop_from_table(LATIN6)}[which]()
    rng = random.Random(0)
    cases = [([a], []) for a in range(L.size)] if L.size <= 15 else []
    for _ in range(20):
        closed = sorted(closure_oracle(L, rng.sample(range(L.size), 1)))
        cases.append((rng.sample(range(L.size), 2), closed))
    for seed, closed in cases:
        elems, steps = lp._generate(L, seed, closed)
        assert len(elems) == len(set(elems))
        assert set(elems) == closure_oracle(L, closed + seed)
        start = len(elems) - len(steps)       # where the products begin
        assert elems[:len(closed)] == closed
        assert set(elems[len(closed):start]) == set(seed) - set(closed)
        pos = {e: i for i, e in enumerate(elems)}
        for k, (c, a, b) in enumerate(steps):
            assert elems[start + k] == c and L.mul(a, b) == c
            assert pos[a] < pos[c] and pos[b] < pos[c]


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


def test_isomorphism_rejects_equal_profiles():
    """Two loops of order 6 with the same element profiles, not isomorphic:
    generator images that extend to a bijection still fail the table check."""
    A = lp.loop_from_table([[0, 1, 2, 3, 4, 5], [1, 2, 5, 0, 3, 4], [2, 4, 1, 5, 0, 3],
                            [3, 5, 0, 4, 1, 2], [4, 0, 3, 2, 5, 1], [5, 3, 4, 1, 2, 0]])
    B = lp.loop_from_table([[0, 1, 2, 3, 4, 5], [1, 4, 0, 5, 3, 2], [2, 5, 3, 4, 1, 0],
                            [3, 0, 1, 2, 5, 4], [4, 2, 5, 1, 0, 3], [5, 3, 4, 0, 2, 1]])
    assert sorted(lp._element_profile(A)) == sorted(lp._element_profile(B))
    for rest in itertools.permutations(range(1, 6)):
        pi = np.array((0,) + rest)
        assert not np.array_equal(pi[A.table], B.table[np.ix_(pi, pi)])
    assert lp.loop_isomorphic(A, B) is None


def relabelled(L, seed):
    """L under a seeded permutation pi of the points fixing 0."""
    rng = np.random.default_rng(seed)
    pi = np.concatenate([[0], 1 + rng.permutation(L.size - 1)])
    table = np.empty_like(L.table)
    table[np.ix_(pi, pi)] = pi[L.table]     # pi(a) pi(b) = pi(ab)
    return lp.loop_from_table(table)


@pytest.mark.parametrize("which", ["quat2", "A_1"])
def test_isomorphism_of_relabelled_copy(which):
    L = quat2_loop()[1] if which == "quat2" else quat3_loops()[0]
    M = relabelled(L, 7)
    assert not np.array_equal(M.table, L.table)
    phi = lp.loop_isomorphic(L, M)
    assert phi is not None and sorted(phi) == list(range(L.size))
    for i in range(L.size):
        for j in range(L.size):
            assert phi[L.mul(i, j)] == M.mul(phi[i], phi[j])


@pytest.mark.parametrize("which", ["quat2", "commutative6"])
def test_batched_inner_rows_match_translations(which):
    L = quat2_loop()[1] if which == "quat2" else lp.loop_from_table(COMMUTATIVE6)
    N = L.size
    left, right = L.left_translation, L.right_translation
    x, y = (a.ravel() for a in np.meshgrid(np.arange(N), np.arange(N), indexing="ij"))
    rows = {kind: lp.inner_rows(L, kind, x, y) for kind in lp.KINDS}
    for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        assert np.array_equal(rows["T"][i], pg.compose(pg.inverse(left(a)), right(a)))
        assert np.array_equal(rows["L"][i], pg.compose(
            pg.inverse(left(L.mul(b, a))), pg.compose(left(b), left(a))))
        assert np.array_equal(rows["R"][i], pg.compose(
            pg.inverse(right(L.mul(a, b))), pg.compose(right(b), right(a))))
        for kind in lp.KINDS:
            assert np.array_equal(lp.inner_mapping(L, kind, a, b).perm, rows[kind][i])


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


# sha256 over the strong generators (little-endian int32 images, in
# `strong_generators` order) of Mlt and of the T/L/R-generated Inn, recorded
# from the recursive Schreier-Sims: certified or not, the chain keeps the
# same residues in the same order.
SGS_SHA256 = {
    "quat2": ("5ee9918e2751917b561bc8c6f1693b8e9acf04b4e5b6785f4223310f6685ab8e",
              "49ae1f778482eda5922404c0d08eb75a38c5f7ff19f956b52bc9021df878c198"),
    "A_1": ("97fa0c66d36f9ff27d71de0388b04e39e5b1f283834347ee362b3618c9a53e99",
            "c166528e9d011579d17d460f93f2d5d27b4c9eac3533a00d41d85dd4291c6498"),
    "A_2": ("eb221bd098a092899f12ed2a63bf93ed2e5dd20752965256aff0a7b5f7ecff44",
            "857a319f46a178c0a16670fbe596bce356b0bb4ed6456d94cd78daf716da3ea1"),
}


def sgs_sha256(G):
    h = hashlib.sha256()
    for g in G.strong_generators():
        h.update(np.asarray(g, dtype="<i4").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("which", SGS_SHA256)
def test_strong_generators_pinned(which):
    L = {"quat2": quat2_loop()[1], "A_1": quat3_loops()[0], "A_2": quat3_loops()[1]}[which]
    mlt, inn = SGS_SHA256[which]
    M, bare = lp.mlt_group(L), lp.mlt_group(lp.loop_from_table(L.table))
    assert M.stats["stopped_at_bound"]
    assert sgs_sha256(M) == sgs_sha256(bare) == mlt
    # the stopped chain still rebuilds every transversal from the final
    # strong generators: the same coset representatives as the full run
    for a, b in zip(M.levels, bare.levels):
        assert np.array_equal(a.orbit, b.orbit)
        assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
    assert sgs_sha256(lp.inn_from_generators(L)) == inn


def test_certified_mlt_skips_verified_levels():
    """A new strong generator leaves the levels deeper than its own
    verified, so their Schreier generators are not formed again: the
    recursive procedure, which re-verified them, formed 6,517 and 6,722 on
    A_1 and A_2."""
    for L, recursive in zip(quat3_loops(), (6517, 6722)):
        assert lp.mlt_group(L).stats["schreier_generators"] < recursive


def test_mlt_sweep_adds_what_the_seeds_miss():
    """F_2^11 under XOR needs 11 generators, more than the 10 seed elements,
    so only the sweep over all translations reaches Mlt, the regular group
    of order 2048."""
    a = np.arange(1 << 11, dtype=np.int32)
    M = lp.mlt_group(lp.loop_from_table(a[:, None] ^ a))
    assert M.order == 2048 and M.stats["residues"] == 1


@pytest.mark.parametrize("which", ["quat2", "commutative6"])
def test_division_tables(which):
    L = quat2_loop()[1] if which == "quat2" else lp.loop_from_table(COMMUTATIVE6)
    a, b = np.meshgrid(np.arange(L.size), np.arange(L.size), indexing="ij")
    assert (L.table[a, L.ldiv] == b).all()        # a * (a \ b) = b
    assert (L.table[L.rdiv, a] == b).all()        # (b / a) * a = b


def test_inn_group_builds_division_tables_only_at_80_points():
    """Above 80 points inn_group checks only 20 sampled inner mappings, and
    inverts just their outer translations: no N x N division table stays on
    the loop.  At 80 points the all-generators check reads every row."""
    tw = gf.make_tower(2, 2, 2)
    S = sfd.build_semifield(tw, next(iter(sp.enumerate_admissible(tw, 2))))
    L = lp.build_loop(S)
    M = lp.mlt_group(L)
    assert L.size == 255
    assert lp.inn_group(L, M)[0] == M.order // L.size
    assert "ldiv" not in vars(L) and "rdiv" not in vars(L)
    small = quat3_loops()[0]
    lp.inn_group(small, lp.mlt_group(small))
    assert "ldiv" in vars(small) and "rdiv" in vars(small)


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
