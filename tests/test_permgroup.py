"""BSGS machinery and small-group identification against known groups."""

import itertools
import math
import random
import re

import numpy as np
import pytest

from skewloop import gf
from skewloop import permgroup as pg


def cycle(n, *points):
    img = list(range(n))
    for i, p in enumerate(points):
        img[p] = points[(i + 1) % len(points)]
    return np.array(img, dtype=np.int32)


def stack(H):
    """The `extend_many` former of a stack of candidates held whole."""
    return lambda rows, points: H[rows][:, points]


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


@pytest.mark.parametrize("form", [lambda g: g.astype(np.int64), list], ids=["int64", "list"])
def test_membership_in_a_chain_without_base(form):
    """The chain of the trivial group has no base, so the residue of g is g
    itself; membership compares it with the identity for any integer input."""
    n = 6
    G = pg.bsgs_build([form(pg.identity_perm(n))])
    assert G.base == [] and G.order == 1
    e, t = form(pg.identity_perm(n)), form(cycle(n, 1, 2))
    assert G.sift(t) == (t, 0)
    assert G.contains(e) and not G.contains(t)
    assert G.contains_many(np.array([e, t], dtype=np.int64)).tolist() == [True, False]


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


def table_of(elems, op):
    """Cayley table of the elements under op, elems[0] the identity."""
    index = {x: i for i, x in enumerate(elems)}
    return [[index[op(x, y)] for y in elems] for x in elems]


def abelian(*ns):
    return table_of(list(itertools.product(*map(range, ns))),
                    lambda x, y: tuple((a + b) % n for a, b, n in zip(x, y, ns)))


def dihedral(n):
    # r^i s^j with s r s^-1 = r^-1
    return table_of([(i, j) for j in (0, 1) for i in range(n)],
                    lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % n, (x[1] + y[1]) % 2))


def permutations(d, even):
    elems = [g for g in itertools.permutations(range(d))
             if not even or sum(g[i] > g[j] for i in range(d) for j in range(i + 1, d)) % 2 == 0]
    return table_of(elems, lambda g, h: tuple(g[i] for i in h))


# (name, table, tag, params): every result here is the same for any labelling
# except q, which depends on which y the search meets first
SMALL_GROUPS = [
    ("Z2xZ2", abelian(2, 2), "semidirect", {"a": 2, "b": 2, "q": 1}),
    ("Z2xZ4", abelian(2, 4), "semidirect", {"a": 4, "b": 2, "q": 1}),
    ("Z3xZ3", abelian(3, 3), "semidirect", {"a": 3, "b": 3, "q": 1}),
    ("S3", dihedral(3), "semidirect", {"a": 3, "b": 2, "q": 2}),
    ("D4", dihedral(4), "semidirect", {"a": 4, "b": 2, "q": 3}),
    ("D5", dihedral(5), "semidirect", {"a": 5, "b": 2, "q": 4}),
    ("Z2^3", abelian(2, 2, 2), "unknown", {}),
    ("A4", permutations(4, even=True), "unknown", {}),
    ("S4", permutations(4, even=False), "unknown", {}),
]


@pytest.mark.parametrize("name,table,tag,params", SMALL_GROUPS,
                         ids=[g[0] for g in SMALL_GROUPS])
def test_identify_semidirect_and_unknown(name, table, tag, params):
    gid = pg.identify_small_group(table)
    assert (gid.tag, gid.order, gid.params) == (tag, len(table), params)
    # relabel with the identity moved off 0: q may change, nothing else
    n = len(table)
    rng = random.Random(n)
    relabel = list(range(n))
    while relabel[0] == 0:
        rng.shuffle(relabel)
    moved = [[0] * n for _ in range(n)]
    for i, row in enumerate(table):
        for j, k in enumerate(row):
            moved[relabel[i]][relabel[j]] = relabel[k]
    got = pg.identify_small_group(moved, identity=relabel[0])
    assert (got.tag, got.order, got.params.keys()) == (tag, n, params.keys())
    if tag == "semidirect":
        a, b, q = (got.params[k] for k in "abq")
        # y^b = e, so x = y^b x y^-b = x^(q^b)
        assert (a, b) == (params["a"], params["b"]) and pow(q, b, a) == 1


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
        seq.extend_many(1, stack(h[None]))
    G.extend_many(len(H), stack(H))
    assert G.base == seq.base and G.orbit_lengths() == seq.orbit_lengths()
    assert all(np.array_equal(a, b) for a, b in
               zip(G.strong_generators(), seq.strong_generators()))


def test_order_bound_stops_early_with_same_group():
    """S_8 with the bound (8 - k)! on the pointwise stabilizer of k points."""
    gens = [cycle(8, 0, 1), np.array(list(range(1, 8)) + [0], dtype=np.int32)]
    full = pg.bsgs_build(gens)
    bounded = pg.bsgs_build(gens, order_bound=lambda prefix: math.factorial(8 - len(prefix)))
    assert bounded.stats["stopped_at_bound"] and not full.stats["stopped_at_bound"]
    assert bounded.order == full.order == 40320
    assert bounded.base == full.base
    assert bounded.stats["schreier_generators"] < full.stats["schreier_generators"]
    assert bounded.contains(cycle(8, 2, 5, 7)) and bounded.contains(cycle(8, 3, 6))


def test_chain_keeps_its_own_copy_of_new_generators():
    n = 6
    G = pg.bsgs_build([pg.identity_perm(n)])
    g = cycle(n, 0, 1, 2)
    assert G.extend_many(1, stack(g[None]))
    g[:] = cycle(n, 3, 4)      # the caller reuses its buffer
    assert G.extend_many(1, stack(g[None]))
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
    """A group of F_p-linear maps built with the unit vectors e_k (point
    p^k - 1) as its frame has the chain built on all points: same base,
    orbits, coset representatives, strong generators and Schreier generator
    count.  At least one residue lands while the base points span a proper
    subspace, so the frame, not the base alone, decides those sifts."""
    gens = linear_group_on_vectors(p, d, mats)
    full = pg.bsgs_build(gens)
    spans = []
    add = pg.BSGS._add_generator

    def spy(self, residue, j):
        spans.append(span_size(self.base, p, d))
        add(self, residue, j)

    monkeypatch.setattr(pg.BSGS, "_add_generator", spy)
    framed = pg.bsgs_build(gens, frame=[p ** k - 1 for k in range(d)])
    assert framed.order == full.order == order
    assert framed.base == full.base
    for a, b in zip(framed.levels, full.levels):
        assert np.array_equal(a.orbit, b.orbit)
        assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
        assert np.array_equal(a.reps, b.reps[:, framed.P])
    assert all(np.array_equal(a, b) for a, b in
               zip(framed.strong_generators(), full.strong_generators()))
    assert len(framed.strong_generators()) == len(full.strong_generators())
    assert framed.stats["schreier_generators"] == full.stats["schreier_generators"]
    assert framed.stats["coset_rows"] == sum(n - 1 for n in framed.orbit_lengths())
    assert min(spans) < p ** d
    assert full.stats["tracked_points"] == len(gens[0]) > framed.stats["tracked_points"] == d


@pytest.mark.parametrize("name,p,d,mats,order", [
    ("GL(3,2)", 2, 3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]],
     pg.gl_order(3, 2)),
    ("GL(2,4)", 2, 4, [f4_matrix([[2, 0], [0, 1]]), f4_matrix([[1, 1], [0, 1]]),
                       f4_matrix([[0, 1], [1, 0]])], pg.gl_order(2, 4)),
])
def test_frame_base_points_come_from_the_frame(name, p, d, mats, order):
    """With the suffix sums e_k + ... + e_(d-1) as the frame, which the
    chain on all points leaves for a later base point, the tracked points
    stay the frame: each base point is the first frame point that the
    strong generator which opened its level moves, and the group order and
    orbit product are those of the chain on all points."""
    gens = linear_group_on_vectors(p, d, mats)
    full = pg.bsgs_build(gens)
    suffixes = [(p ** d - p ** k) // (p - 1) - 1 for k in range(d)]
    framed = pg.bsgs_build(gens, frame=suffixes)
    P = framed.P
    assert P.tolist() == sorted(suffixes) and framed.stats["tracked_points"] == d
    assert set(framed.base) <= set(suffixes) and not set(full.base) <= set(suffixes)
    for j, point in enumerate(framed.base):
        g = framed._gens[framed._level_of.index(j)]
        assert P[np.flatnonzero(g[P] != P)[0]] == point
    assert framed.order == math.prod(framed.orbit_lengths()) == full.order == order
    assert framed.contains_many(np.stack(full.strong_generators())).all()


@pytest.mark.parametrize("frame", [False, True])
def test_new_base_point_makes_every_level_stale(monkeypatch, frame):
    """A fresh level is not rebuilt (the final pass at the order bound skips
    it), so it must not miss a strong generator: one that opens a new base
    point fixes every base point above it, lies in every level's group, and
    makes every level stale."""
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
        rebuild(self, level)

    monkeypatch.setattr(pg.BSGS, "_add_generator", add_spy)
    monkeypatch.setattr(pg.BSGS, "_recompute_transversal", rebuild_spy)
    # the whole group's order bounds every stabilizer: only level 0 can meet it
    G = pg.bsgs_build(gens, order_bound=lambda prefix: pg.gl_order(2, 4),
                      frame=[p ** k - 1 for k in range(d)] if frame else None)
    assert G.order == pg.gl_order(2, 4) and G.stats["stopped_at_bound"]
    assert grown and len(grown) == len(G.base) - 1 and skipped


def test_extend_many_forms_whole_rows_only_for_added_candidates():
    """`extend_many` asks its former for chunks on the tracked points and
    for a whole candidate only when it adds one.  On GL(2,4) with and
    without a frame, words in two of its generators, then the third, then
    words in all three, the chain is the one that adds the candidates one
    at a time, and with the frame the whole rows formed are exactly the
    candidates that chain adds."""
    p, d = 2, 4
    gens = linear_group_on_vectors(p, d, [f4_matrix([[2, 0], [0, 1]]), f4_matrix([[1, 1], [0, 1]]),
                                          f4_matrix([[0, 1], [1, 0]])])
    n = len(gens[0])
    rng = np.random.default_rng(5)

    def words(some, count):
        out = []
        for _ in range(count):
            w = pg.identity_perm(n)
            for g in rng.choice(len(some), 5):
                w = some[g].take(w)
            out.append(w)
        return out

    H = np.stack(words(gens[:2], 12) + [gens[2]] + words(gens, 12))
    for frame in (None, [p ** k - 1 for k in range(d)]):
        seq = pg.bsgs_build(gens[:1], frame=frame)
        added = []
        for i, h in enumerate(H):
            if not seq.contains(h):
                added.append(i)
                assert seq.extend_many(1, stack(h[None]))
        G = pg.bsgs_build(gens[:1], frame=frame)
        whole = []

        def counting(rows, points):
            if len(points) == n:
                whole.extend(range(rows.start, rows.stop))
            return H[rows][:, points]

        assert G.extend_many(len(H), counting)
        assert len(added) > 1 and G.order == seq.order == pg.gl_order(2, 4)
        assert G.base == seq.base and G.orbit_lengths() == seq.orbit_lengths()
        assert all(np.array_equal(a, b) for a, b in
                   zip(G.strong_generators(), seq.strong_generators()))
        for a, b in zip(G.levels, seq.levels):
            assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
        if frame is None:
            assert whole[:len(H)] == list(range(len(H)))
        else:
            assert whole == added


GL_ON_VECTORS = [
    ("GL(3,2)", 2, 3, 1, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]),
    ("GL(2,4)", 2, 4, 2, [f4_matrix([[2, 0], [0, 1]]), f4_matrix([[1, 1], [0, 1]]),
                          f4_matrix([[0, 1], [1, 0]])]),
    ("GL(4,2)", 2, 4, 1, [[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                          [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]]),
]


def gl_level_bound(p, d, l):
    """The order bound of GL(d/l, p^l) on the nonzero vectors of F_p^d
    (F_4^2 = F_2^4 by `f4_matrix` when l = 2): a tuple of points goes to
    |GL(d/l, q)_(W)|, W the F_q-span of its vectors, found by brute force
    as the F_p-span of the points and their multiples by w in F_4."""
    q = p ** l
    omega = linear_group_on_vectors(p, d, [f4_matrix([[2, 0], [0, 2]])])[0] if l == 2 else None

    def bound(prefix):
        points = list(prefix) + ([] if omega is None else [int(omega[x]) for x in prefix])
        size = span_size(points, p, d)
        w = next(w for w in range(d // l + 1) if q ** w == size)
        return pg.gl_stabilizer_order(d // l, q, w)

    return bound


@pytest.mark.parametrize("name,p,d,l,mats", GL_ON_VECTORS, ids=[g[0] for g in GL_ON_VECTORS])
def test_level_bounds_keep_the_unbounded_chain(name, p, d, l, mats):
    """With the bound |GL_(W)| at every level, framed or not, the chain is
    the one built with no bound: base, orbits, u^-1 rows and strong
    generators; it forms fewer Schreier generators.  On GL(4,2) a level
    below the first meets its bound before the whole group does, and is
    settled without forming its Schreier generators."""
    gens = linear_group_on_vectors(p, d, mats)
    full = pg.bsgs_build(gens)
    for frame in (None, [p ** k - 1 for k in range(d)]):
        G = pg.bsgs_build(gens, order_bound=gl_level_bound(p, d, l), frame=frame)
        assert G.stats["stopped_at_bound"] and G.order == full.order == pg.gl_order(d // l, p ** l)
        assert G.base == full.base and G.orbit_lengths() == full.orbit_lengths()
        for a, b in zip(G.levels, full.levels):
            assert np.array_equal(a.orbit, b.orbit)
            assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
        assert len(G.strong_generators()) == len(full.strong_generators())
        assert all(np.array_equal(a, b) for a, b in
                   zip(G.strong_generators(), full.strong_generators()))
        assert G.stats["schreier_generators"] < full.stats["schreier_generators"]
        assert G.stats["settled_levels"] == (name == "GL(4,2)")


def test_bound_below_the_orbit_product_raises():
    """A bound that the chain's orbits exceed is reported with the level,
    the base prefix and both numbers: at the whole group, and at level 1
    when the whole group is not bounded.  The bounds are one below the true
    orders, primes that no product of orbit lengths (at most 7) meets; a
    bound that one does is met there, and the chain stops at it."""
    name, p, d, l, mats = GL_ON_VECTORS[0]
    gens = linear_group_on_vectors(p, d, mats)
    full = pg.bsgs_build(gens)
    with pytest.raises(AssertionError, match=r"^level 0: orbit product \d+ exceeds the bound 167 "
                                             r"on the stabilizer of the base prefix \[\]$"):
        pg.bsgs_build(gens, order_bound=lambda prefix: 167)
    low = gl_level_bound(p, d, l)(full.base[:1]) - 1
    assert low == 23
    prefix = re.escape(str(full.base[:1]))
    with pytest.raises(AssertionError, match=rf"^level 1: orbit product \d+ exceeds the bound {low} "
                                             rf"on the stabilizer of the base prefix {prefix}$"):
        pg.bsgs_build(gens, order_bound=lambda prefix: low if len(prefix) == 1 else 10 ** 9)


def test_extend_many_stops_at_the_bound():
    """Once the order meets the bound on the whole group, `extend_many`
    forms no further chunk: on GL(2,4), framed or not, the last row its
    former is asked for is the candidate that completed the group, which
    the chain without a bound adds last, with candidates left after it."""
    name, p, d, l, mats = GL_ON_VECTORS[1]
    gens = linear_group_on_vectors(p, d, mats)
    n = len(gens[0])
    rng = np.random.default_rng(5)

    def words(some, count):
        out = []
        for _ in range(count):
            w = pg.identity_perm(n)
            for g in rng.choice(len(some), 5):
                w = some[g].take(w)
            out.append(w)
        return out

    H = np.stack(words(gens[:2], 12) + [gens[2]] + words(gens, 12))
    for frame in (None, [p ** k - 1 for k in range(d)]):
        seq, added = pg.bsgs_build(gens[:1], frame=frame), []
        for i, h in enumerate(H):
            if not seq.contains(h):
                added.append(i)
                seq.extend_many(1, stack(h[None]))
        G = pg.bsgs_build(gens[:1], order_bound=gl_level_bound(p, d, l), frame=frame)
        asked = []

        def spy(rows, points):
            asked.append(rows)
            return H[rows][:, points]

        assert G.extend_many(len(H), spy)
        assert G.order == seq.order == pg.gl_order(2, 4) and G.stats["stopped_at_bound"]
        assert max(rows.start for rows in asked) == added[-1] < len(H) - 1
        assert all(np.array_equal(a, b) for a, b in
                   zip(G.strong_generators(), seq.strong_generators()))
