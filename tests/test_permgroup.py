"""BSGS machinery and small-group identification against known groups."""

import numpy as np
import pytest

from skewloop import gf
from skewloop import permgroup as pg


def cycle(n, *points):
    img = list(range(n))
    for i, p in enumerate(points):
        img[p] = points[(i + 1) % len(points)]
    return np.array(img, dtype=np.int32)


def test_cyclic_group_order():
    G = pg.bsgs_build([cycle(5, 0, 1, 2, 3, 4)])
    assert G.order == 5


def test_symmetric_group_order():
    n = 8
    gens = [cycle(n, 0, 1), np.array(list(range(1, n)) + [0], dtype=np.int32)]
    G = pg.bsgs_build(gens)
    assert G.order == 40320


def test_alternating_group_order():
    n = 7
    gens = [cycle(n, 0, 1, 2), cycle(n, 2, 3, 4), cycle(n, 4, 5, 6)]
    G = pg.bsgs_build(gens)
    assert G.order == 2520


def test_membership():
    n = 6
    G = pg.bsgs_build([cycle(n, 0, 1, 2, 3, 4, 5)])
    c6 = cycle(n, 0, 1, 2, 3, 4, 5)
    assert G.contains(c6[c6])
    assert not G.contains(cycle(n, 0, 1))


def test_stabilizer_order_and_generators():
    n = 8
    gens = [cycle(n, 0, 1), np.array(list(range(1, n)) + [0], dtype=np.int32)]
    G = pg.bsgs_build(gens, base_hint=[0])
    assert pg.stabilizer_order(G, 0) == 5040
    stab_gens = pg.stabilizer_generators(G, 0)
    H = pg.bsgs_build(stab_gens) if stab_gens else None
    assert H is not None and H.order == 5040
    assert all(int(g[0]) == 0 for g in stab_gens)


def test_not_transitive_error():
    G = pg.bsgs_build([cycle(4, 0, 1)])
    with pytest.raises(pg.NotTransitive):
        pg.stabilizer_order(G, 0)


def test_identify_cyclic():
    mul = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    gid = pg.identify_small_group(mul)
    assert gid.tag == "cyclic" and gid.order == 6


def test_identify_quaternion_units():
    # Q8 as permutations: x -> gx on the 8 units
    elems = [(s, i) for s in (1, -1) for i in range(4)]  # (+-1) * i^k ... model
    # model Q8 = Dic_2 by its multiplication table via the dicyclic presentation
    # a^4 = 1, b^2 = a^2, b a b^-1 = a^-1; elements a^i b^j, i<4, j<2
    def mul(u, v):
        i, j = u
        k, l = v
        if j == 0:
            return ((i + k) % 4, l)
        # b * a^k = a^-k * b
        if l == 0:
            return ((i - k) % 4, 1)
        return ((i - k + 2) % 4, 0)
    elems = [(i, j) for j in (0, 1) for i in range(4)]
    idx = {e: n for n, e in enumerate(elems)}
    table = [[idx[mul(u, v)] for v in elems] for u in elems]
    gid = pg.identify_small_group(table, identity=0)
    assert gid.tag == "dicyclic" and gid.order == 8 and gid.params.get("k") == 2


def test_caps_raise_the_one_cap_exception():
    n = pg.IDENTIFY_LIMIT + 1
    with pytest.raises(gf.SizeCapExceeded):
        pg.identify_small_group([[(i + j) % n for j in range(n)] for i in range(n)])
    with pytest.raises(gf.SizeCapExceeded):
        pg.BSGS(pg.DEGREE_CAP + 1)
    with pytest.raises(gf.SizeCapExceeded):
        gf.FieldCtx.create(2, 21)


def test_gl_sl_orders():
    assert pg.gl_order(4, 2) == 20160
    assert pg.sl_order(4, 2) == 20160
    assert pg.sl_order(4, 3) == 12130560
    assert pg.gl_order(4, 3) == 24261120
    assert pg.sl_order(4, 5) == 29016000000
    assert pg.gl_order(4, 5) == 116064000000


def gl32_on_vectors():
    """GL(3,2) on the 7 nonzero vectors of F_2^3 (vector v is point v - 1),
    generated by the elementary transvections x_i += x_j."""
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                img = [(v ^ (((v >> j) & 1) << i)) - 1 for v in range(1, 8)]
                gens.append(np.array(img, dtype=np.int32))
    return gens


@pytest.mark.parametrize("name,gens,order", [
    ("S_8", [cycle(8, 0, 1), np.array(list(range(1, 8)) + [0], dtype=np.int32)], 40320),
    ("A_7", [cycle(7, 0, 1, 2), cycle(7, 2, 3, 4), cycle(7, 4, 5, 6)], 2520),
    ("GL(3,2)", gl32_on_vectors(), 168),
])
def test_order_and_membership_match_sympy(name, gens, order):
    import random

    from sympy.combinatorics import Permutation, PermutationGroup

    G = pg.bsgs_build(gens)
    ref = PermutationGroup([Permutation(g.tolist()) for g in gens])
    assert G.order == ref.order() == order
    n = len(gens[0])
    rng = random.Random(7)
    candidates = []
    for _ in range(60):
        perm = list(range(n))
        rng.shuffle(perm)
        candidates.append(np.array(perm, dtype=np.int32))
    for _ in range(20):   # words in the generators: members
        word = pg.identity_perm(n)
        for _ in range(8):
            word = rng.choice(gens)[word]
        candidates.append(word)
    expected = [ref.contains(Permutation(c.tolist())) for c in candidates]
    assert [G.contains(c) for c in candidates] == expected
    assert G.contains_many(np.stack(candidates)).tolist() == expected
    assert any(expected) and (name == "S_8" or not all(expected))


def test_batched_sift_and_extend_match_one_at_a_time():
    n = 9
    rng = np.random.default_rng(3)
    H = np.stack([rng.permutation(n).astype(np.int32) for _ in range(12)])
    G = pg.bsgs_build([cycle(n, 0, 1, 2), cycle(n, 3, 4, 5)])
    residues, reached = G.sift_many(H)
    for h, res, lvl in zip(H, residues, reached):
        one, one_lvl = G.sift(h)
        assert np.array_equal(res, one) and lvl == one_lvl
    seq = pg.bsgs_build([cycle(n, 0, 1, 2), cycle(n, 3, 4, 5)])
    for h in H:
        seq.extend_many(h[None])
    G.extend_many(H)
    assert G.base == seq.base and G.orbit_lengths() == seq.orbit_lengths()
    assert all(np.array_equal(a, b) for a, b in
               zip(G.strong_generators(), seq.strong_generators()))


def test_order_bound_stops_early_with_same_group():
    gens = [cycle(8, 0, 1), np.array(list(range(1, 8)) + [0], dtype=np.int32)]
    full = pg.bsgs_build(gens)
    bounded = pg.bsgs_build(gens, order_bound=40320)
    assert bounded.stats["stopped_at_bound"] and not full.stats["stopped_at_bound"]
    assert bounded.order == full.order == 40320
    assert bounded.base == full.base
    assert bounded.stats["schreier_generators"] < full.stats["schreier_generators"]
    assert bounded.contains(cycle(8, 2, 5, 7)) and bounded.contains(cycle(8, 3, 6))


def test_chain_keeps_its_own_copy_of_new_generators():
    n = 6
    G = pg.bsgs_build([pg.identity_perm(n)])
    g = cycle(n, 0, 1, 2)
    assert G.extend_many(g[None])
    g[:] = cycle(n, 3, 4)      # the caller reuses its buffer
    assert G.extend_many(g[None])
    assert G.order == 6
    assert pg.bsgs_build(G.strong_generators()).order == 6
    assert G.contains(cycle(n, 0, 2, 1)) and G.contains(cycle(n, 3, 4))


def linear_group_on_vectors(p, d, mats):
    """The F_p-linear maps with the given d x d matrices, acting on the
    p^d - 1 nonzero vectors of F_p^d; vector v (base-p digits of a code) is
    point code - 1, so the basis e_k is point p^k - 1."""
    vecs = np.array([[(c // p ** k) % p for k in range(d)] for c in range(1, p ** d)])
    weights = p ** np.arange(d)
    return [(vecs @ np.array(M).T % p @ weights - 1).astype(np.int32) for M in mats]


def f4_block(a):
    """The 2 x 2 F_2-matrix of x -> a x on F_4 = F_2[w]/(w^2 + w + 1), with
    a = a_0 + a_1 w in the basis 1, w."""
    return np.array([[a & 1, a >> 1], [a >> 1, (a & 1) ^ (a >> 1)]])


def f4_matrix(rows):
    """A 2 x 2 F_4-matrix as the 4 x 4 F_2-matrix acting on F_4^2 = F_2^4."""
    return np.block([[f4_block(a) for a in row] for row in rows])


def span_size(points, p, d):
    span = {(0,) * d}
    for pt in points:
        v = [((pt + 1) // p ** k) % p for k in range(d)]
        span = {tuple((s + c * x) % p for s, x in zip(vec, v)) for vec in span for c in range(p)}
    return len(span)


@pytest.mark.parametrize("name,p,d,mats,order", [
    ("GL(3,2)", 2, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
     pg.gl_order(3, 2)),
    ("GL(2,3)", 3, 2, [[[2, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]], pg.gl_order(2, 3)),
    ("GL(2,4)", 2, 4, [f4_matrix([[2, 0], [0, 1]]), f4_matrix([[1, 1], [0, 1]]),
                       f4_matrix([[0, 1], [1, 0]])], pg.gl_order(2, 4)),
])
def test_frame_chain_equals_full_point_chain(monkeypatch, name, p, d, mats, order):
    """A group of F_p-linear maps built with the basis as its frame has the
    chain built on all points: same base, orbits, inverse representatives,
    strong generators and Schreier generator count.  At least one residue
    lands while the base points span a proper subspace, so the frame, not
    the base alone, decides those sifts."""
    gens = linear_group_on_vectors(p, d, mats)
    frame = [p ** k - 1 for k in range(d)]
    full = pg.bsgs_build(gens)
    spans = []
    add = pg.BSGS._add_generator

    def spy(self, residue, j):
        spans.append(span_size(self.base, p, d))
        add(self, residue, j)

    monkeypatch.setattr(pg.BSGS, "_add_generator", spy)
    framed = pg.bsgs_build(gens, frame=frame)
    assert framed.order == full.order == order
    assert framed.base == full.base
    for a, b in zip(framed.levels, full.levels):
        assert np.array_equal(a.orbit, b.orbit)
        assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
    assert all(np.array_equal(a, b) for a, b in
               zip(framed.strong_generators(), full.strong_generators()))
    assert len(framed.strong_generators()) == len(full.strong_generators())
    assert framed.stats["schreier_generators"] == full.stats["schreier_generators"]
    assert min(spans) < p ** d
    assert full.stats["tracked_points"] == len(gens[0]) > framed.stats["tracked_points"]


@pytest.mark.parametrize("frame", [False, True])
def test_new_base_point_makes_every_level_stale(monkeypatch, frame):
    """A fresh level is not rebuilt (the final pass at the order bound skips
    it), so its representatives on the tracked points P must stay valid: P
    grows only by a new base point, and every level is stale once one is
    added."""
    p, d = 2, 4
    gens = linear_group_on_vectors(p, d, [f4_matrix([[2, 0], [0, 1]]),
                                          f4_matrix([[1, 1], [0, 1]]),
                                          f4_matrix([[0, 1], [1, 0]])])
    add, rebuild = pg.BSGS._add_generator, pg.BSGS._recompute_transversal
    grown, skipped = [], []

    def add_spy(self, residue, j):
        base = len(self.base)
        add(self, residue, j)
        if len(self.base) > base:
            grown.append(j)
            assert not any(lv.fresh for lv in self.levels)

    def rebuild_spy(self, level):
        lv = self.levels[level]
        if lv.fresh:
            skipped.append(level)
            assert np.array_equal(lv.P, self._tracked())
        rebuild(self, level)

    monkeypatch.setattr(pg.BSGS, "_add_generator", add_spy)
    monkeypatch.setattr(pg.BSGS, "_recompute_transversal", rebuild_spy)
    G = pg.bsgs_build(gens, order_bound=pg.gl_order(2, 4),
                      frame=[p ** k - 1 for k in range(d)] if frame else None)
    assert G.order == pg.gl_order(2, 4) and G.stats["stopped_at_bound"]
    assert grown and len(grown) == len(G.base) - 1 and skipped
