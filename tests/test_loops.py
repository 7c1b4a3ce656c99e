"""Multiplicative loops: translations, Mlt/Inn, cyclicity, subloops,
isomorphism, Latin-square export."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import inverse
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
    assert all(int(L.table[L.identity, j]) == j == int(L.table[j, L.identity]) for j in range(n))


def _sorted_latin_verdict(table):
    """Test oracle: the first row, then the first column, whose sorted
    values differ from 0..n-1, as the message _assert_latin raises."""
    ref = np.arange(len(table))
    for what, lines in (("row", table), ("column", table.T)):
        bad = np.flatnonzero((np.sort(lines, axis=1) != ref).any(axis=1))
        if bad.size:
            return f"{what} {bad[0]} is not a permutation"
    return None


@pytest.mark.parametrize("n", [6, 80, 700])
def test_assert_latin_matches_sorting_oracle(n):
    # a cyclic group table, then single-entry damage: a duplicate in a row
    # (which also breaks a column), a swap within a row (columns only), and
    # values out of range on either side
    rng = np.random.default_rng(n)
    good = ((np.arange(n)[:, None] + np.arange(n)) % n).astype(np.int32)
    lp._assert_latin(good)
    for trial in range(12):
        table = good.copy()
        i, j, k = rng.integers(1, n, size=3)
        kind = trial % 4
        if kind == 0:
            table[i, j] = table[i, k if k != j else (j % (n - 1)) + 1]
        elif kind == 1:
            table[i, [j, k]] = table[i, [k, j]]
        else:
            table[i, j] = -1 if kind == 2 else n + int(k)
        want = _sorted_latin_verdict(table)
        if want is None:
            lp._assert_latin(table)
            continue
        with pytest.raises(AssertionError) as exc:
            lp._assert_latin(table)
        assert str(exc.value) == want
    with pytest.raises(AssertionError, match="not square"):
        lp._assert_latin(good[:, :-1])


def test_table_matches_semifield_mul():
    S, L = quat2_loop()
    for x in range(1, S.size):
        for y in range(1, S.size):
            assert int(L.table[x - 1, y - 1]) == S.mul(x, y) - 1


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
    every = np.arange(L.size)
    for x, t in zip(every, lp.inner_rows(L, "T", every)):
        assert np.array_equal(t, inverse(L.left_translation(x))[L.right_translation(x)])
        assert t[L.identity] == L.identity
    # L_{x,y} = id when x, y generate an associative subloop (both in K^x)
    K = L.semifield.tower.field
    field_idx = np.arange(K.order - 1)  # K^x inside the loop: codes 1 .. |K|-1
    x, y = (a.ravel() for a in np.meshgrid(field_idx, field_idx, indexing="ij"))
    assert all(pg.is_identity(m) for m in lp.inner_rows(L, "L", x, y))


def test_t_identity_is_identity():
    _, L = quat2_loop()
    assert pg.is_identity(lp.inner_rows(L, "T", [L.identity])[0])


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


def closure(L, seed):
    return frozenset(lp._generate(L, seed)[0])


def subloops_oracle(L):
    """Test oracle: closures <a>, then all pairwise joins to a fixpoint."""
    found = {closure(L, [a]) for a in range(L.size)}
    while True:
        joins = {closure(L, list(a | b)) for a in found for b in found}
        if joins <= found:
            return found | {frozenset(range(L.size))}
        found |= joins


@pytest.mark.parametrize("which", ["2-1-2-2-0", "2-1-3-2-0", "3-1-2-2-3", "2-1-2-3-0",
                                   "F16m2:255", "F25:sqrt2"])
def test_subloops_match_join_fixpoint(which):
    """`which` is p-r-n-m-index, the index-th admissible f of degree m over
    make_tower(p, r, n), or a `groups` benchmark loop."""
    if which in GROUPS_LOOPS:
        L = groups_loop(which)
    else:
        p, r, n, m, index = map(int, which.split("-"))
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
        more = {int(L.table[a, b]) for a in known for b in known} - known
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
            assert elems[start + k] == c and int(L.table[a, b]) == c
            assert pos[a] < pos[c] and pos[b] < pos[c]


def generate_oracle(L, seed, closed=()):
    """Test oracle: `lp._generate` with each round's new products sorted
    and deduplicated by np.unique (first index of each)."""
    N, flat = L.size, L.table.ravel()
    member = np.zeros(N, dtype=bool)
    elems = list(closed)
    member[elems] = True
    frontier = [s for s in dict.fromkeys(seed) if not member[s]]
    member[frontier] = True
    elems += frontier
    steps = []
    while frontier and len(elems) < N:
        cur, new = np.array(elems), np.array(frontier)
        old = cur[:len(cur) - len(new)]
        ab = np.concatenate([(new * N)[:, None] + cur, (old * N)[:, None] + new], axis=None)
        c = flat[ab]
        fresh = np.flatnonzero(~member[c])
        c, first = np.unique(c[fresh], return_index=True)
        a, b = np.divmod(ab[fresh[first]], N)
        member[c] = True
        frontier = c.tolist()
        elems += frontier
        steps += zip(frontier, a.tolist(), b.tolist())
    return elems, steps


@pytest.mark.parametrize("which", ["F16m2:255", "F25:sqrt2"])
def test_generate_matches_unique_oracle(monkeypatch, which):
    """On every call `subloops` makes (every <a>, then every join), the
    elements and steps are a prefix of the oracle's; a call that stops early
    at a known generator of L stops inside a closure that is all of L."""
    L = groups_loop(which)
    generate, calls, early = lp._generate, [], []

    def checked(L, seed, closed=(), stop=None):
        got = generate(L, seed, closed, stop)
        want = generate_oracle(L, seed, closed)
        for g, w in zip(got, want):
            assert g == w[:len(g)]
        if len(got[0]) < len(want[0]):
            assert stop is not None and len(want[0]) == L.size
            early.append(seed)
        calls.append(list(seed))
        return got

    monkeypatch.setattr(lp, "_generate", checked)
    lp.subloops(L)
    assert calls[:L.size] == [[a] for a in range(L.size)] and len(calls) > L.size
    assert early


@pytest.mark.parametrize("which", ["quat2", "A_1"])
def test_isomorphism_witness_unchanged_by_closure(monkeypatch, which):
    L = quat2_loop()[1] if which == "quat2" else quat3_loops()[0]
    pairs = [(L, L), (L, relabelled(L, 7))]
    phis = [lp.loop_isomorphic(*pair) for pair in pairs]
    monkeypatch.setattr(lp, "_generate", generate_oracle)
    assert [lp.loop_isomorphic(*pair) for pair in pairs] == phis


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
            assert phi[int(L.table[i, j])] == int(L.table[phi[i], phi[j]])


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
            assert phi[int(L.table[i, j])] == int(M.table[phi[i], phi[j]])


@pytest.mark.parametrize("which", ["quat2", "commutative6"])
def test_batched_inner_rows_match_translations(which):
    L = quat2_loop()[1] if which == "quat2" else lp.loop_from_table(COMMUTATIVE6)
    N = L.size
    left, right = L.left_translation, L.right_translation
    x, y = (a.ravel() for a in np.meshgrid(np.arange(N), np.arange(N), indexing="ij"))
    rows = {kind: lp.inner_rows(L, kind, x, y) for kind in lp.KINDS}
    for i, (a, b) in enumerate(zip(x.tolist(), y.tolist())):
        # (g h)(x) = g(h(x)) is g[h]
        assert np.array_equal(rows["T"][i], inverse(left(a))[right(a)])
        assert np.array_equal(rows["L"][i], inverse(left(int(L.table[b, a])))[left(b)[left(a)]])
        assert np.array_equal(rows["R"][i], inverse(right(int(L.table[a, b])))[right(b)[right(a)]])


def test_latin_csv_roundtrip(tmp_path):
    _, L = quat2_loop()
    path = tmp_path / "latin.csv"
    lp.write_latin_csv(L, str(path))
    back = oracles.read_latin_csv(str(path))
    assert np.array_equal(back.table, L.table)


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
        # Inn fixes the vector 1, so |GL(4,3)_(<1>)| = 3^3 |GL(3,3)| bounds
        # it, and the T/L/R-generated group reaches that bound
        assert inn.stats["stopped_at_bound"]
        assert inn.order == pg.gl_stabilizer_order(4, 3, 1)


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
# from the Schreier-Sims whose levels extend their Schreier trees: certified
# or not, the chain keeps the same residues in the same order.
SGS_SHA256 = {
    "quat2": ("73cd7b8dbc3c5a7499f059629f4635f64126419a675b0f8f2fedd0278aa809b8",
              "49ae1f778482eda5922404c0d08eb75a38c5f7ff19f956b52bc9021df878c198"),
    "A_1": ("59c825cfbdcf94657ecf63fa1d949d55cd82dbe4fa732fe7e96d677102f32a90",
            "d0c03dd8ec4332beaf09601d7dcc78c95807a5e85a84c8019f260c216211b180"),
    "A_2": ("dad616bf1d7fd4be3809924b52f020c315f6d89ad6126adb030b8f489d73a5b0",
            "30cf819dd04be393a4476e1b4a4c5884be69611bd318cecdc2a01d6925b02721"),
    # Mlt only: the loops are too large for the all-generators Inn
    "F16m2:255": ("b63890f64628b3fa842c708f5cac0dc5682afa234e1434554e8699bd79ed572d", None),
    "F25:sqrt2": ("f10e618e3d4755b02d05aa4a0bdc99e3efdbf373ef23b17d0dc8f2bacf1e899f", None),
    "F9m3:728": ("599b6cc628b35aebd3022dc69726220e84a647d2960b0b706ae3320024eb35be", None),
}


def sgs_sha256(G):
    h = hashlib.sha256()
    for g in G.strong_generators():
        h.update(np.asarray(g, dtype="<i4").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("which", ["quat2", "A_1", "A_2"])
def test_strong_generators_pinned(which):
    L = {"quat2": quat2_loop()[1], "A_1": quat3_loops()[0], "A_2": quat3_loops()[1]}[which]
    mlt, inn = SGS_SHA256[which]
    M, bare = lp.mlt_group(L), lp.mlt_group(lp.loop_from_table(L.table))
    assert M.stats["stopped_at_bound"]
    assert sgs_sha256(M) == sgs_sha256(bare) == mlt
    # the stopped chain still extends every transversal to the final
    # strong generators: the same coset representatives as the full run
    for a, b in zip(M.levels, bare.levels):
        assert np.array_equal(a.orbit, b.orbit)
        assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
    assert sgs_sha256(lp.inn_from_generators(L)) == inn


@pytest.mark.parametrize("which", ["quat2", "A_1", "A_2", "A_1 bare"])
def test_inner_maps_formed_on_demand_match_the_whole_stack(monkeypatch, which):
    """`inn_from_generators` forms the 2N^2 maps L_{x,y}, R_{x,y} on the
    points `extend_many` asks for.  Its chain is byte for byte the one that
    extends by the whole stack of them (rows 2(xN + y) and 2(xN + y) + 1),
    and on a framed chain it forms a whole map only for each one the chain
    adds, as the one-at-a-time extension finds them.  The chains keep the
    Inn pins of `SGS_SHA256`."""
    L = {"quat2": quat2_loop()[1], "A_1": quat3_loops()[0], "A_2": quat3_loops()[1],
         "A_1 bare": lp.loop_from_table(quat3_loops()[0].table)}[which]
    N = L.size
    x, y = (a.ravel() for a in np.meshgrid(np.arange(N), np.arange(N), indexing="ij"))
    H = np.empty((2 * N * N, N), dtype=np.int32)
    H[0::2], H[1::2] = lp.inner_rows(L, "L", x, y), lp.inner_rows(L, "R", x, y)
    seeds = [g for g in lp.inner_rows(L, "T", np.arange(N)) if not pg.is_identity(g)]
    frame = lp._linear_frame(L, lp.gl_bound(L))
    whole, extend = [], pg.BSGS.extend_many

    def spy(self, count, form):
        def counting(rows, points):
            if len(points) == N:
                whole.extend(range(rows.start, rows.stop))
            return form(rows, points)
        return extend(self, count, counting)

    monkeypatch.setattr(pg.BSGS, "extend_many", spy)
    G = lp.inn_from_generators(L)
    monkeypatch.undo()
    ref = pg.bsgs_build(seeds, frame=frame)
    ref.extend_many(len(H), lambda rows, points: H[rows][:, points])
    assert sgs_sha256(G) == sgs_sha256(ref) == SGS_SHA256[which.split()[0]][1]
    assert G.base == ref.base and G.orbit_lengths() == ref.orbit_lengths()
    for a, b in zip(G.levels, ref.levels):
        assert np.array_equal(a.orbit, b.orbit)
        assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
    if frame is None:
        assert which == "A_1 bare"
        return
    seq, added = pg.bsgs_build(seeds, frame=frame), []
    for i, h in enumerate(H):
        if not seq.contains(h):
            added.append(i)
            seq.extend_many(1, lambda rows, points: h[None, points])
    assert whole == added
    assert (len(added) > 0) == (which != "quat2")    # on quat2 the T_x generate Inn


def test_formers_give_the_candidates_in_order(monkeypatch):
    """The `extend_many` formers of the translation sweep (row 2a is L_a,
    2a + 1 is R_a) and of the inner maps (row 2(xN + y) is L_{x,y},
    2(xN + y) + 1 is R_{x,y}) give the rows of the whole stacks, on any
    points, from even and odd first rows."""
    L = lp.loop_from_table(quat3_loops()[0].table)
    N = L.size
    forms, extend = [], pg.BSGS.extend_many

    def spy(self, count, form):
        forms.append((count, form))
        return extend(self, count, form)

    monkeypatch.setattr(pg.BSGS, "extend_many", spy)
    lp.mlt_group(L)
    lp.inn_from_generators(L)
    x, y = (a.ravel() for a in np.meshgrid(np.arange(N), np.arange(N), indexing="ij"))
    sweep = np.empty((2 * N, N), dtype=np.int32)
    sweep[0::2], sweep[1::2] = L.table, L.table.T
    inner = np.empty((2 * N * N, N), dtype=np.int32)
    inner[0::2], inner[1::2] = lp.inner_rows(L, "L", x, y), lp.inner_rows(L, "R", x, y)
    points = np.random.default_rng(0).permutation(N)[:7]
    assert len(forms) == 2
    for (count, form), H in zip(forms, (sweep, inner)):
        assert count == len(H)
        for rows in (slice(0, count), slice(1, 8), slice(count - 5, count), slice(6, 7)):
            assert np.array_equal(form(rows, points), H[rows][:, points])
            assert np.array_equal(form(rows, np.arange(N)), H[rows])


def mlt_chains():
    """The Mlt chains of quat2, A_1 and A_2, framed and bare, and of the
    255-point `groups` loop (framed)."""
    for L in (quat2_loop()[1], *quat3_loops()):
        yield lp.mlt_group(L)
        yield lp.mlt_group(lp.loop_from_table(L.table))
    yield lp.mlt_group(groups_loop("F16m2:255"))


def test_extended_transversals_are_coset_representatives():
    """Every level of a chain whose transversals were extended, not rebuilt:
    u_pt^-1 maps pt back to the level's point, `reps` is u_pt on the
    chain's tracked points P (the inverse of the u^-1 row there), the orbit is the whole orbit of the
    level's generators, and the strong generators rebuild a chain of the
    same group."""
    for M in mlt_chains():
        for level, lv in enumerate(M.levels):
            n = len(lv.orbit)
            assert (lv.uinv[lv.row[lv.orbit], lv.orbit] == lv.point).all()
            assert np.array_equal(lv.row[lv.orbit], np.arange(n))
            assert np.array_equal(np.take_along_axis(lv.uinv[:n], lv.reps.astype(np.intp), 1),
                                  np.broadcast_to(M.P, lv.reps.shape))
            gens = M._level_gens(level)
            assert sorted(lv.orbit.tolist()) == sorted(oracles.orbit(gens, lv.point))
        sgs = M.strong_generators()
        again = pg.bsgs_build(sgs, base_hint=M.base)
        assert again.order == M.order
        assert M.contains_many(np.stack(again.strong_generators())).all()
        assert again.contains_many(np.stack(sgs)).all()


def test_each_coset_row_is_composed_once():
    """An extension composes a u^-1 row only for a point new to the orbit,
    on framed and bare chains, and on the all-generators Inn
    (`test_frame_chain_equals_full_point_chain` checks it also on linear
    groups with the unit vectors as their frame)."""
    for M in mlt_chains():
        assert M.stats["coset_rows"] == sum(n - 1 for n in M.orbit_lengths())
    inn = lp.inn_from_generators(quat3_loops()[0])
    assert inn.stats["coset_rows"] == sum(n - 1 for n in inn.orbit_lengths())


# (make_tower arguments, f) of the `groups` benchmark loops of 255, 624 and
# 728 points
FRAME_LOOPS = {
    "F16m2:255": ((2, 2, 2, None), (4, 9, 1)),
    "F25:sqrt2": ((5, 1, 2, [3, 0, 1]), (20, 0, 1)),
    "F9m3:728": ((3, 1, 2, None), (1, 0, 2, 1)),
}


@pytest.mark.parametrize("which", FRAME_LOOPS)
def test_certified_mlt_frame_keeps_the_full_point_chain(monkeypatch, which):
    """The certified Mlt sifts on the F_p-basis and the base points only;
    its chain is byte for byte the one built from the same seeds and bound
    on all N points, with the same level bounds."""
    (p, r, n, modulus), f = FRAME_LOOPS[which]
    L = lp.build_loop(sfd.build_semifield(gf.make_tower(p, r, n, modulus=modulus), f))
    build, calls = pg.bsgs_build, []
    monkeypatch.setattr(pg, "bsgs_build", lambda gens, **kw: calls.append((gens, kw)) or build(gens, **kw))
    M = lp.mlt_group(L)
    ((gens, kw),) = calls
    full = build(gens, base_hint=[0], order_bound=kw["order_bound"])
    assert M.stats["stopped_at_bound"] and M.order == full.order == lp.gl_bound(L)
    assert M.stats["tracked_points"] < L.size == full.stats["tracked_points"]
    assert M.base == full.base
    for a, b in zip(M.levels, full.levels):
        assert np.array_equal(a.orbit, b.orbit)
        assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
    assert sgs_sha256(M) == sgs_sha256(full) == SGS_SHA256[which][0]
    assert M.stats["schreier_generators"] == full.stats["schreier_generators"]
    assert M.stats["settled_levels"] == full.stats["settled_levels"]


def test_mlt_chain_does_not_depend_on_chunk_size(monkeypatch):
    """The 728-point Mlt built with tiny and with large numpy batches: the
    same base, strong generators, coset tables and Schreier generator count
    (it stops at the first non-member, wherever the chunk ends)."""
    (p, r, n, modulus), f = FRAME_LOOPS["F9m3:728"]
    L = lp.build_loop(sfd.build_semifield(gf.make_tower(p, r, n, modulus=modulus), f))
    chains = []
    for cells in (1 << 8, pg.CHUNK_CELLS, 1 << 22):
        monkeypatch.setattr(pg, "CHUNK_CELLS", cells)
        chains.append(lp.mlt_group(L))
    first = chains[0]
    assert sgs_sha256(first) == SGS_SHA256["F9m3:728"][0]
    # 81,020 without the level bounds: four level verifications are settled
    # by |GL(6,3)_(W)|, none of whose 37,026 Schreier generators leaves a
    # residue
    assert first.stats["schreier_generators"] == 43994
    assert first.stats["settled_levels"] == 4
    for M in chains[1:]:
        assert M.base == first.base and sgs_sha256(M) == sgs_sha256(first)
        assert M.stats["schreier_generators"] == first.stats["schreier_generators"]
        for a, b in zip(M.levels, first.levels):
            assert np.array_equal(a.uinv[:len(a.orbit)], b.uinv[:len(b.orbit)])
            assert np.array_equal(a.reps, b.reps)


# (make_tower arguments, f) of the six `groups` benchmark loops
GROUPS_LOOPS = {
    "F9:A_1": ((3, 1, 2, [2, 2, 1]), (6, 0, 1)),
    "F9:A_2": ((3, 1, 2, [2, 2, 1]), (8, 0, 1)),
    "F25:1+2sqrt2": ((5, 1, 2, [3, 0, 1]), (19, 0, 1)),
    **FRAME_LOOPS,
}


def groups_loop(which):
    (p, r, n, modulus), f = GROUPS_LOOPS[which]
    return lp.build_loop(sfd.build_semifield(gf.make_tower(p, r, n, modulus=modulus), f))


def gl_bound_oracle(L):
    """Test oracle: every one of the 2N translations (rows and columns) is
    checked linear against its basis matrix and to commute with L_c."""
    S = L.semifield
    K, q = S.tower.field, S.tower.q
    Y = S.to_vector(np.arange(1, S.size))
    cols = np.array(S.basis()) - 1
    Lc = L.table[K.pow_int(K.primitive, (K.order - 1) // (q - 1)) - 1]
    for P in itertools.chain(L.table, L.table.T):
        M = Y[P[cols]]
        if not (np.array_equal(S.from_vector(Y @ M % S.p) - 1, P)
                and np.array_equal(P[Lc], Lc[P])):
            return None
    return pg.gl_order(S.tower.n * S.m, q)


@pytest.mark.parametrize("which", GROUPS_LOOPS)
def test_gl_bound_matches_all_translations_oracle(which):
    L = groups_loop(which)
    S = L.semifield
    assert lp.gl_bound(L) == gl_bound_oracle(L) == pg.gl_order(S.tower.n * S.m, S.tower.q)


@pytest.mark.parametrize("which", ["F9:A_1", "F9m3:728"])
def test_sift_and_membership_match_list_oracle(which):
    """`sift` (residue and level), `contains` and `contains_many` on the Mlt
    chain against `oracles.sift`: every translation, every translation with
    the images of 1 and 2 swapped (a linear map composed with a transposition
    of two vectors, so not in Mlt), and 200 seeded random permutations, each
    given as int32, int64 and a Python list."""
    L = groups_loop(which)
    M, N = lp.mlt_group(L), L.size
    translations = np.concatenate([L.table, L.table.T])
    swapped = translations.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]
    rng = np.random.default_rng(0)
    H = np.concatenate([translations, swapped, [rng.permutation(N) for _ in range(200)]])
    rows = H.tolist()
    expected = [oracles.sift(M, g) for g in rows]
    members = [residue == rows[0] for residue, _ in expected]    # rows[0] = L_1 = id
    assert members == [True] * (2 * N) + [False] * (2 * N + 200)
    for stack in (H.astype(np.int32), H.astype(np.int64)):
        residues, levels = M.sift_many(stack)
        assert list(zip(residues.tolist(), levels.tolist())) == expected
        assert M.contains_many(stack).tolist() == members
    for form in (H.astype(np.int32), H.astype(np.int64), rows):
        for g, want, member in zip(form, expected, members):
            residue, level = M.sift(g)
            assert (np.asarray(residue).tolist(), level) == want
            assert M.contains(g) is member


@pytest.mark.parametrize("which", ["F9:A_1", "F16m2:255"])
def test_principal_orbits_match_power_walk(which):
    """The principal-power cycle of every a under x -> xa ("left") and
    x -> ax ("right"), and the cyclicity witnesses, against a walk on the
    table as nested lists; on the 255-point loop the two sides differ for
    191 elements."""
    L = groups_loop(which)
    T = L.table.tolist()
    sizes = {"left": [], "right": []}
    for a in range(L.size):
        for side in sizes:
            x, k = a, 0
            while True:
                x, k = (T[x][a] if side == "left" else T[a][x]), k + 1
                if x == a:
                    break
            sizes[side].append(k)
            assert lp._principal_orbit_size(L, a, side) == k
    left, right, witnesses = lp.cyclicity(L)
    assert witnesses == {side: s.index(L.size) for side, s in sizes.items()}
    assert left and right


@pytest.mark.parametrize("i,j", [(1, 4), (2, 3), (4, 5)])
def test_gl_bound_on_coordinate_swaps(i, j):
    """Relabel the F_16/F_4 loop by phi, the swap of the F_2-coordinates i
    and j (phi(1) = 1): ab -> phi(phi(a) phi(b)) is F_2-bilinear, so only
    the F_4 check can fail, and its L_c is multiplication by phi(c).  The
    swap of t and xt fixes c = 1 + x + x^3 and keeps the bound.  The swap of
    x^2 and x^3 moves c to 1 + x + x^2, in K = Nuc_l but not central:
    (cx)b = c(xb) holds, a(cx) = c(ax) does not.  The swap of x and t moves
    c out of K."""
    L = groups_loop("F16m2:255")
    S = L.semifield
    perm = np.arange(S.dim_prime)
    perm[[i, j]] = perm[[j, i]]
    phi = S.from_vector(S.to_vector(np.arange(1, S.size))[:, perm]) - 1
    table = phi[L.table[np.ix_(phi, phi)]]
    swapped = lp.LoopCtx(semifield=S, table=table)
    want = pg.gl_order(4, 4) if (i, j) == (4, 5) else None
    assert lp.gl_bound(swapped) == gl_bound_oracle(swapped) == want


@pytest.mark.parametrize("d,p,l", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 2, 2)],
                         ids=["GL(2,2)", "GL(3,2)", "GL(2,3)", "GL(2,4)"])
def test_gl_stabilizer_order_matches_matrix_count(d, p, l):
    """|GL(d,q)_(W)| = q^(w(d-w)) |GL(d-w,q)| against the count of the
    invertible matrices that fix the first w unit vectors, and a line given
    by v and c v, c a generator of F_q^*."""
    K = gf.FieldCtx.create(p, l)
    q = K.order
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    for w in range(d + 1):
        assert pg.gl_stabilizer_order(d, q, w) == oracles.gl_pointwise_stabilizer_order(
            K, d, units[:w])
    v = (1,) * d
    line = [v, tuple(K.mul(K.primitive, x) for x in v)]
    assert pg.gl_stabilizer_order(d, q, 1) == oracles.gl_pointwise_stabilizer_order(K, d, line)
    assert pg.gl_stabilizer_order(d, q, 0) == pg.gl_order(d, q)


def test_fq_span_matches_brute_force_span():
    """The F_q-dimension of the span of tuples of points of the F_16/F_4
    loop (d = 4, q = 4), read by rank, against the closure {a + lambda v}
    over F_4 = {x : x^4 = x} in K, and the level bounds read from it.  Over
    F_2 some spans are smaller, so the dimension is taken over F_q."""
    L = groups_loop("F16m2:255")
    S = L.semifield
    K, q = S.tower.field, S.tower.q
    fq = [x for x in range(K.order) if K.pow_int(x, q) == x]
    assert len(fq) == q

    def brute(points, scalars):
        span = {0}
        for v in points:
            span = {oracles.add(S, a, S.mul(lam, v + 1)) for a in span for lam in scalars}
        return sorted(span)

    rng = random.Random(4)
    tuples = [tuple(rng.sample(range(L.size), k)) for k in (1, 2, 2, 3, 3, 4, 5) for _ in range(3)]
    # 1 and c (c in F_4, not in F_2) span a line; 1 and a generator of K do not
    line = (0, fq[-1] - 1)
    tuples += [(), tuple(lp.mlt_group(L).base), line, (0, K.primitive - 1)]
    bound, inn_bound = lp.stabilizer_bound(L), lp.stabilizer_bound(L, [0])
    smaller = 0
    for points in tuples:
        w = lp._fq_dim(L, points)
        assert q ** w == len(brute(points, fq))
        assert bound(points) == pg.gl_stabilizer_order(4, q, w)
        assert inn_bound(points) == pg.gl_stabilizer_order(4, q, lp._fq_dim(L, (0,) + points))
        smaller += len(brute(points, [0, 1])) < q ** w
    assert smaller and lp._fq_dim(L, line) == 1 and lp._fq_dim(L, (0, K.primitive - 1)) == 2
    assert lp.stabilizer_bound(lp.loop_from_table(L.table)) is None


def test_tracked_points_below_degree_only_when_certified():
    L = quat3_loops()[0]
    assert lp.mlt_group(L).stats["tracked_points"] < L.size
    assert lp.mlt_group(lp.loop_from_table(L.table)).stats["tracked_points"] == L.size
    assert lp.inn_from_generators(L).stats["tracked_points"] < L.size


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
    assert L._ldiv is None and L._rdiv is None
    small = quat3_loops()[0]
    lp.inn_group(small, lp.mlt_group(small))
    assert small._ldiv is not None and small._rdiv is not None


def test_caches_are_declared_fields():
    """Filling the lazily built tables of the loop and its semifield adds no
    key to the instance __dict__ (it is not rewritten, as
    functools.cached_property would); the field's array tables are set at
    construction, and array arithmetic adds no key either."""
    tw = gf.make_tower(3, 1, 2, modulus=[2, 2, 1])
    K = tw.field
    S = sfd.SemifieldCtx(tw, (K.neg(K.p), 0, 1))
    L = lp.LoopCtx(semifield=S, table=quat3_loops()[0].table)
    caches = (S._weight_row, S._structure_constants, S._translation_stack,
              S._nuclei_report, L._ldiv, L._rdiv, L._gl_bound)
    assert all(c is None for c in caches)
    assert K.exp_array.tolist() == K.exp
    keys = [set(vars(obj)) for obj in (L, S, K)]
    L.ldiv, L.rdiv, S._weights, S.tensor, S._translations, S._nuclei
    assert lp.gl_bound(L) == L._gl_bound == pg.gl_order(4, 3)
    K.add_array(K.mul_array(K.pow_array(np.arange(K.order), 3), 2), 1)
    assert [set(vars(obj)) for obj in (L, S, K)] == keys


def test_groups_path_does_not_import_numpy_ma():
    """numpy.ma is imported by the first np.union1d of a process, or the
    first np.unique without return_index (about 7 ms); Mlt and Inn call
    neither."""
    code = ("import sys\n"
            "from skewloop import gf, loops as lp, semifield as sfd\n"
            "tw = gf.make_tower(3, 1, 2, modulus=[2, 2, 1])\n"
            "L = lp.build_loop(sfd.build_semifield(tw, (tw.field.neg(tw.field.p), 0, 1)))\n"
            "lp.inn_group(L, lp.mlt_group(L))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         check=True, timeout=120).stdout
    assert out == b"False\n"


def fq_points(L):
    """The index of c (the generator of F_q^* that `gl_bound` uses) and the
    points its F_q check reads: the basis, c e_j and e_i e_j."""
    S = L.semifield
    K = S.tower.field
    c = K.pow_int(K.primitive, (K.order - 1) // (S.tower.q - 1)) - 1
    basis = np.array(S.basis()) - 1
    return c, set(basis) | set(L.table[c, basis]) | set(L.table[np.ix_(basis, basis)].ravel())


def test_broken_columns_fail_certificate():
    """Swap two columns u, v of the F_16/F_4 loop away from the points the
    F_q check reads: every column stays a linear translation, the basis
    columns included, and that check still passes, but no row L_a composed
    with the swap is linear.  Only the row check can fail."""
    L = groups_loop("F16m2:255")
    u, v = sorted(set(range(L.size)) - fq_points(L)[1])[:2]
    table = L.table.copy()
    table[:, [u, v]] = table[:, [v, u]]
    broken = lp.LoopCtx(semifield=L.semifield, table=table)
    assert lp.gl_bound(broken) is None
    assert gl_bound_oracle(broken) is None


def test_certificate_checks_c_on_the_right():
    """ab -> psi(a) b on the F_16/F_4 loop's table, psi the swap of the
    F_2-coordinates of t and xt (not F_4-linear; it fixes c, which lies in
    K = the t^0 block): F_2-bilinear, and a(cx) = c(ax) holds, but
    (cx)b = c(xb) does not.  (Not a loop: the certificate reads linearity
    only.)"""
    L = groups_loop("F16m2:255")
    S = L.semifield
    perm = np.arange(S.dim_prime)
    perm[[4, 5]] = [5, 4]
    psi = S.from_vector(S.to_vector(np.arange(1, S.size))[:, perm]) - 1
    c, _ = fq_points(L)
    assert psi[c] == c
    skewed = lp.LoopCtx(semifield=S, table=L.table[psi])
    assert lp.gl_bound(skewed) is None
    assert gl_bound_oracle(skewed) is None


def test_broken_table_fails_certificate():
    from sympy.combinatorics import Permutation, PermutationGroup

    S, L = quat2_loop()
    table = L.table.copy()
    # rows stay linear translations; the basis column of e_1 does not
    table[[1, 2]] = table[[2, 1]]
    broken = lp.LoopCtx(semifield=S, table=table)
    assert lp.gl_bound(broken) is None
    assert gl_bound_oracle(broken) is None
    M = lp.mlt_group(broken)
    assert not M.stats["stopped_at_bound"]
    perms = [broken.left_translation(a) for a in range(broken.size)]
    perms += [broken.right_translation(a) for a in range(broken.size)]
    ref = PermutationGroup([Permutation(p.tolist()) for p in perms])
    assert M.order == ref.order()
    assert all(M.contains(p) for p in perms)


def test_certificate_is_computed_once_per_loop(monkeypatch):
    """`mlt_group`, `inn_group` (with the all-generators check at 80 points)
    and later `gl_bound` calls share one certificate per loop, whether it
    holds or fails."""
    calls = []
    certify = lp._gl_certificate
    monkeypatch.setattr(lp, "_gl_certificate", lambda L: calls.append(L) or certify(L))
    L = quat3_loops()[0]
    lp.inn_group(L, lp.mlt_group(L))
    assert lp.gl_bound(L) == pg.gl_order(4, 3) and calls == [L]
    S, quat2 = quat2_loop()
    table = quat2.table.copy()
    table[[1, 2]] = table[[2, 1]]
    broken = lp.LoopCtx(semifield=S, table=table)
    lp.mlt_group(broken)
    assert lp.gl_bound(broken) is None and lp.gl_bound(broken) is None
    assert calls == [L, broken]


def test_inn_from_generators_commutative_table_matches_sympy():
    """A commutative, non-associative loop: every T_x is trivial, so the
    chain starts empty and takes its first strong generators straight from
    the batch of L_{x,y}, R_{x,y}, which the next x overwrites."""
    from sympy.combinatorics import Permutation, PermutationGroup

    T = [[0, 1, 2, 3, 4, 5], [1, 4, 5, 0, 2, 3], [2, 5, 4, 1, 3, 0],
         [3, 0, 1, 2, 5, 4], [4, 2, 3, 5, 0, 1], [5, 3, 0, 4, 1, 2]]
    L = lp.loop_from_table(T)
    G = lp.inn_from_generators(L)
    x, y = (a.ravel() for a in np.meshgrid(np.arange(6), np.arange(6), indexing="ij"))
    perms = [p for pair in zip(lp.inner_rows(L, "L", x, y), lp.inner_rows(L, "R", x, y))
             for p in pair]
    ref = PermutationGroup([Permutation(p.tolist()) for p in perms])
    assert G.order == ref.order() == 120
    # the chain's strong generators still generate the group it reports
    assert pg.bsgs_build(G.strong_generators()).order == G.order
    assert all(G.contains(p) for p in perms)
