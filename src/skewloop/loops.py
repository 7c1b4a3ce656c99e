"""The multiplicative loop L_f = S_f \\ {0}: translations, Mlt/Inn,
inner mappings, cyclicity, subloops, isomorphism testing, Latin squares.

Loop elements are indexed 0..N-1 by their semifield code minus one, so the
identity 1 gets index 0.  The multiplication table is a dense numpy array;
left/right translations are its rows/columns, which are permutations (the
Latin-square property, asserted at construction).

`inner_rows` is the one formula for the inner mappings, batched over arrays
of (x, y); `_generate` is the one closure (subloops, generating sets and
isomorphisms all run on its breadth-first search over the table).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import permgroup as pg
from .gf import SizeCapExceeded
from .permgroup import BSGS, Perm
from .semifield import SemifieldCtx, _rref

SUBLOOP_SIZE_CAP = 700
ISO_SIZE_CAP = 255
KINDS = ("T", "L", "R")


@dataclass
class LoopCtx:
    semifield: Optional[SemifieldCtx]
    table: np.ndarray  # table[i, j] = index of element_i * element_j
    identity = 0       # the identity's index, in every loop
    # the division tables, filled on first use by `ldiv` and `rdiv`, and the
    # `gl_bound` certificate (0 when there is none), filled by its first
    # call: declared fields, set to None at construction, as in `SemifieldCtx`
    _ldiv: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _rdiv: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _gl_bound: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._ldiv = self._rdiv = self._gl_bound = None

    @property
    def size(self) -> int:
        return self.table.shape[0]

    def left_translation(self, a: int) -> Perm:
        return self.table[a, :].astype(np.int32)

    def right_translation(self, a: int) -> Perm:
        return self.table[:, a].astype(np.int32)

    @property
    def ldiv(self) -> np.ndarray:
        """Left division: row a is L_a^-1, so ldiv[a, b] = a \\ b."""
        if self._ldiv is None:
            self._ldiv = pg.inverse_many(self.table)
        return self._ldiv

    @property
    def rdiv(self) -> np.ndarray:
        """Right division: row a is R_a^-1, so rdiv[a, b] = b / a."""
        if self._rdiv is None:
            self._rdiv = pg.inverse_many(self.table.T)
        return self._rdiv


def _assert_latin(table: np.ndarray) -> None:
    """Every row, then every column, is a permutation of 0..n-1.  A block of
    lines at a time, each value v of line i marks slot (i, v) once; a line
    is a permutation when its n values mark all n regular slots.  A value
    out of range is first replaced by n, which marks the spare slot (i, n).
    O(n^2), no sort; a block's marks (at most 2^18) stay in cache, and a
    block of columns reads n short runs of the table."""
    n = table.shape[0]
    if table.shape != (n, n):
        raise AssertionError(f"the table has shape {table.shape}, not square")
    ref = np.arange(n)
    if table.min() < 0 or table.max() >= n:
        table = np.where((table >= 0) & (table < n), table, n)
    step = max(1, min(n, 2 ** 18 // (n + 1)))
    slots = np.arange(step)[:, None] * (n + 1)
    seen = np.empty(step * (n + 1), dtype=bool)
    for what, lines in (("row", table), ("column", table.T)):
        for s in range(0, n, step):
            block = lines[s:s + step]
            seen[:] = False
            seen[block + slots[:len(block)]] = True
            marked = seen[:len(block) * (n + 1)].reshape(len(block), n + 1)[:, :n]
            bad = np.flatnonzero(~marked.all(axis=1))
            if bad.size:
                raise AssertionError(f"{what} {s + bad[0]} is not a permutation")
    if not (table[LoopCtx.identity] == ref).all() or not (table[:, LoopCtx.identity] == ref).all():
        raise AssertionError("identity row/column is not the identity map")


def build_loop(S: SemifieldCtx) -> LoopCtx:
    """Loop on the q^(nm)-1 nonzero elements, with the full index table,
    read from the semifield's product table on the nonzero codes."""
    table = S.product_table(np.arange(1, S.size))
    table -= 1
    _assert_latin(table)
    return LoopCtx(semifield=S, table=table)


def loop_from_table(table: Sequence[Sequence[int]]) -> LoopCtx:
    arr = np.asarray(table, dtype=np.int32)
    _assert_latin(arr)
    return LoopCtx(semifield=None, table=arr)


# ---------------------------------------------------------------------------
# multiplication and inner mapping groups


def gl_bound(L: LoopCtx) -> Optional[int]:
    """|GL(nm,q)| if every translation of L is certified F_q-linear on
    S_f = F_q^(nm), else None.

    A translation is F_p-linear when its permutation equals the action of
    the D x D prime-field matrix read off the images of the basis e_i, on
    all N nonzero vectors.  Every left translation L_a (every row of the
    table) is tested, but only the D right translations R_(e_j) by the
    basis (the basis columns): that is exact.  With T(a, b) = ab, rows
    linear give T(a, b) = sum_j b_j T(a, e_j), and basis columns linear give
    T(a, e_j) = sum_i a_i T(e_i, e_j), so T(a, b) = sum_ij a_i b_j T(e_i, e_j)
    is bilinear and every right translation R_b = sum_j b_j R_(e_j) is
    linear too.

    The translations are then F_q-linear when they also commute with
    x -> cx for a generator c of F_q^*: the constants of F_q are central,
    so that map is the left translation L_c, linear as a row.  Both
    a(cx) = c(ax) and (cx)b = c(xb) are bilinear in the pair of variables,
    so the D^2 basis pairs decide them.

    The certificate is computed once per loop and kept on it.
    """
    if L._gl_bound is None:
        L._gl_bound = _gl_certificate(L) or 0
    return L._gl_bound or None


def _gl_certificate(L: LoopCtx) -> Optional[int]:
    """What `gl_bound` returns, computed (it keeps the result on L)."""
    S = L.semifield
    if S is None:
        return None
    T = L.table
    Y = S.to_vector(np.arange(1, S.size)).astype(np.float64)
    basis = np.array(S.basis()) - 1
    chunk = pg.chunk_rows(L.size * S.dim_prime)
    # the rows, then the basis columns, as permutations of the N points
    for perms in (T, T[:, basis].T):
        for s in range(0, len(perms), chunk):
            P = perms[s:s + chunk]
            # M[t][i] = to_vector(P_t(e_i)): the matrix of each translation
            if not np.array_equal(S.images(Y, Y[P[:, basis]]) - 1, P):
                return None
    Lc = T[_fq_generator(S) - 1]
    pairs = T[np.ix_(basis, basis)]
    if not (np.array_equal(T[np.ix_(basis, Lc[basis])], Lc[pairs])
            and np.array_equal(T[np.ix_(Lc[basis], basis)], Lc[pairs])):
        return None
    return pg.gl_order(S.tower.n * S.m, S.tower.q)


def _fq_generator(S: SemifieldCtx) -> int:
    """The code of c, a generator of F_q^* in K: x -> cx is the left
    translation L_c, and S_f is an F_q-space under x -> c^j x."""
    K = S.tower.field
    return K.pow_int(K.primitive, (K.order - 1) // (S.tower.q - 1))


def _fq_dim(L: LoopCtx, points: Sequence[int]) -> int:
    """dim over F_q of the F_q-span of the vectors of loop points, for a
    loop with a `gl_bound` certificate (so x -> lambda x, lambda in F_q, is
    the scalar multiplication every translation commutes with).  F_q =
    F_p(c) has the F_p-basis 1, c, ..., c^(r-1), so that span is the
    F_p-span of the vectors c^j v: their rank over F_p, divided by r."""
    S = L.semifield
    K, r = S.tower.field, S.tower.r
    c = _fq_generator(S)
    # c^j v is the loop product of c^j and v
    vecs = L.table[np.ix_([K.pow_int(c, j) - 1 for j in range(r)], points)] + 1
    return len(_rref(S.to_vector(vecs.ravel()), S.p)) // r


def stabilizer_bound(L: LoopCtx, fixed: Sequence[int] = ()) -> Optional[pg.OrderBound]:
    """The `pg.bsgs_build` order bound of a subgroup of Mlt(L) that fixes
    the points `fixed`, when `gl_bound` certifies Mlt(L) <= GL(d,q) with
    d = nm, else None: a tuple of points goes to |GL(d,q)_(W)| =
    q^(w(d-w)) |GL(d-w,q)|, W the F_q-span of the vectors of `fixed` and
    the tuple, w = dim W over F_q.  An F_q-linear map that fixes vectors
    fixes their F_q-span pointwise, so the subgroup's pointwise stabilizer
    of the tuple lies in GL(d,q)_(W).  (Over F_p the span is smaller and
    the stabilizer in GL(nm l, p), l = [F_q : F_p], a weaker bound.)"""
    if gl_bound(L) is None:
        return None
    S = L.semifield
    d, q = S.tower.n * S.m, S.tower.q
    return lambda prefix: pg.gl_stabilizer_order(d, q, _fq_dim(L, [*fixed, *prefix]))


def _linear_frame(L: LoopCtx, bound: Optional[int]) -> Optional[np.ndarray]:
    """The loop indices of the F_p-basis of S_f when `bound` is a `gl_bound`
    certificate, else None.  Every element of Mlt(L) is then F_p-linear, and
    a linear map that fixes a basis is the identity: the basis is a frame
    for `pg.bsgs_build`."""
    if bound is None:
        return None
    return np.array(L.semifield.basis()) - 1


def mlt_group(L: LoopCtx) -> BSGS:
    """Exact Mlt(L): seed a few translations, then sift every L_a and R_a
    once, extending the chain on any failure.

    When `gl_bound` certifies Mlt(L) <= GL(nm,q), `stabilizer_bound` bounds
    every level: a level whose orbit product reaches |GL(nm,q)_(W)|, W the
    F_q-span of the base points above it, is verified without forming its
    Schreier generators, and the chain stops as soon as its order reaches
    |GL(nm,q)|; the sweep over the translations stops (or is skipped) once
    it has.  The certificate also makes every element of Mlt(L) F_p-linear,
    so the F_p-basis is passed as the frame: the Schreier generators are
    formed and sifted on the basis alone, which holds every base point, and
    the chain is the one built on all N points.
    """
    N = L.size
    if N > pg.DEGREE_CAP:
        raise SizeCapExceeded(f"loop of size {N} exceeds the Mlt degree cap")
    rng = random.Random(0)
    picks = {1 % N, N - 1}
    while len(picks) < min(10, N):
        picks.add(rng.randrange(N))
    gens = []
    for a in picks:
        gens.append(L.left_translation(a))
        gens.append(L.right_translation(a))
    G = pg.bsgs_build(gens, base_hint=[L.identity], order_bound=stabilizer_bound(L),
                      frame=_linear_frame(L, gl_bound(L)))
    # one sweep: the group only grows, so every row tested stays in it;
    # L_a is row a of the table, R_a its column a
    T = L.table
    G.extend_many(2 * N, lambda rows, points: _interleave(
        rows, points, lambda a, p: T[a[:, None], p], lambda a, p: T[p, a[:, None]]))
    if G.orbit_lengths()[0] != N:
        raise pg.NotTransitive("Mlt(L) is not transitive")
    return G


def inn_group(L: LoopCtx, M: BSGS) -> tuple[int, list[Perm]]:
    """|Inn| = |Mlt|/N with stabilizer generators, cross-checked against the
    T_x / L_{x,y} / R_{x,y} generating set: those of 20 sampled (x, y) must
    lie in Mlt, and on loops of at most 80 points all of them must generate
    a group of order |Inn| (`inn_from_generators`, which on a certified loop
    stops as soon as its order reaches |GL(nm,q)_(<1>)|, the bound on a
    subgroup of Mlt that fixes 1)."""
    order = pg.stabilizer_order(M, L.identity)
    gens = pg.stabilizer_generators(M, L.identity)
    rng = random.Random(1)
    x, y = np.array([(rng.randrange(L.size), rng.randrange(L.size)) for _ in range(20)]).T
    # row 3i + k is kind KINDS[k] at the i-th sample
    stack = np.stack([inner_rows(L, kind, x, y) for kind in KINDS], axis=1)
    outside = np.flatnonzero(~M.contains_many(stack.reshape(-1, L.size)))
    if outside.size:
        i, k = divmod(int(outside[0]), len(KINDS))
        raise AssertionError(f"inner mapping {KINDS[k]}_{x[i]},{y[i]} outside Mlt")
    if L.size <= 80:
        sub = inn_from_generators(L)
        if sub.order != order:
            raise AssertionError(
                f"Inn order {order} != T/L/R-generated order {sub.order}")
    return order, gens


def inn_from_generators(L: LoopCtx) -> BSGS:
    """The subgroup generated by all T_x, L_{x,y}, R_{x,y} (small loops).
    Every translation is an outer one here, so the outer inverses are read
    from the full division tables `L.ldiv` and `L.rdiv`.  These maps lie in
    Mlt(L) and fix 1, so a `gl_bound` certificate gives the chain the
    F_p-basis as its frame, as in `mlt_group`, and the level bounds of
    `stabilizer_bound` with the vector 1 fixed: |GL(nm,q)_(W)|, W the
    F_q-span of 1 and the base points above the level.  The T_x seed the
    chain; the 2N^2 maps L_{x,y}, R_{x,y} then reach `extend_many` as
    candidates 2(xN + y) and 2(xN + y) + 1, formed by `_inner_parts` on the
    points it asks for: a chunk on the frame, and a whole
    map only when it is added, until the order reaches |GL(nm,q)_(<1>)|."""
    N = L.size
    div = {"left": L.ldiv, "right": L.rdiv}

    def maps(kind, x, y=None, points=None):
        side, outer, inner = _inner_parts(L, kind, x, y, points)
        return pg.compose_rows(div[side], outer, inner)

    def at(kind):               # the maps of `kind` at the pairs xN + y
        return lambda xy, points: maps(kind, *np.divmod(xy, N), points)

    gens = maps("T", np.arange(N))
    G = pg.bsgs_build([g for g in gens if not pg.is_identity(g)] or [pg.identity_perm(N)],
                      order_bound=stabilizer_bound(L, fixed=[L.identity]),
                      frame=_linear_frame(L, gl_bound(L)))
    G.extend_many(2 * N * N, lambda rows, points: _interleave(rows, points, at("L"), at("R")))
    return G


def _interleave(rows: slice, points: np.ndarray, even, odd) -> np.ndarray:
    """An `extend_many` former whose candidate 2i is even(i, points) and
    2i + 1 is odd(i, points), for the indices i of an array."""
    i = np.arange(rows.start, rows.stop)
    out = np.empty((len(i), len(points)), dtype=np.int32)
    for side, form in enumerate((even, odd)):
        k = (side + rows.start) % 2
        out[k::2] = form(i[k::2] // 2, points)
    return out


def _inner_parts(L: LoopCtx, kind: str, x, y, points=None):
    """(side, outer, inner): the inner mapping of `kind` at each (x, y) is the
    inverse of the outer translation (left or right translation by `outer`)
    composed with the inner product map, one row of `inner` per (x, y)
    holding the images of `points` (every point by default)."""
    T = L.table
    x, y = np.asarray(x), np.asarray(y)
    p = np.arange(L.size) if points is None else points
    if kind == "T":
        return "left", x, T[p, x[:, None]]                                # L_x, R_x
    if kind == "L":
        return "left", T[y, x], pg.compose_rows(T, y, T[x[:, None], p])   # L_yx, L_y L_x
    if kind == "R":
        return "right", T[x, y], T[T[p, x[:, None]], y[:, None]]          # R_xy, R_y R_x
    raise ValueError(f"unknown inner mapping kind {kind!r}")


def inner_rows(L: LoopCtx, kind: str, x, y=None) -> np.ndarray:
    """T_x = L_x^-1 R_x, L_{x,y} = L_{yx}^-1 L_y L_x or R_{x,y} = R_{xy}^-1 R_y R_x,
    one row per entry of the equal-length index arrays x and y (T ignores y).
    Only the outer translations these rows need are inverted."""
    side, outer, inner = _inner_parts(L, kind, x, y)
    trans = L.table[outer] if side == "left" else L.table[:, outer].T
    return pg.compose_rows(pg.inverse_many(trans), np.arange(len(outer)), inner)


# ---------------------------------------------------------------------------
# cyclicity


def _principal_orbit_size(L: LoopCtx, a: int, side: str) -> int:
    """The length of the cycle through a of R_a (side "left": x -> xa) or of
    L_a (x -> ax): a translation is a permutation, so the walk returns to a."""
    at = L.table.item
    cur, count = at(a, a), 1
    while cur != a:
        cur = at(cur, a) if side == "left" else at(a, cur)
        count += 1
    return count


def cyclicity(L: LoopCtx) -> tuple[bool, bool, dict]:
    """Left/right cyclicity by scanning every element as a candidate
    generator of principal powers."""
    left_wit = right_wit = None
    N = L.size
    for a in range(N):
        if left_wit is None and _principal_orbit_size(L, a, "left") == N:
            left_wit = a
        if right_wit is None and _principal_orbit_size(L, a, "right") == N:
            right_wit = a
        if left_wit is not None and right_wit is not None:
            break
    return (left_wit is not None, right_wit is not None,
            {"left": left_wit, "right": right_wit})


# ---------------------------------------------------------------------------
# closure, subloops and Lagrange properties


def _generate(L: LoopCtx, seed: Iterable[int], closed: Iterable[int] = (),
              stop: Optional[np.ndarray] = None
              ) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The subloop generated by `closed` and `seed`, in discovery order
    (`closed`, new seed elements, then each round's new products ascending),
    and a step (c, a, b), ab = c with a, b found earlier, per product found.
    Rounds form only the products that involve the last round's elements, so
    `closed` must be a subloop or empty; the first frontier is seed \\ closed.
    With `stop`, a boolean mask of elements known to generate L, the search
    returns as soon as a frontier holds one of them: the closure is then L,
    and what is returned is a prefix of it."""
    N, flat = L.size, L.table.ravel()
    member = np.zeros(N, dtype=bool)
    elems = list(closed)
    member[elems] = True
    frontier = [s for s in dict.fromkeys(seed) if not member[s]]
    member[frontier] = True
    elems += frontier
    steps: list[tuple[int, int, int]] = []
    while frontier and len(elems) < N:
        if stop is not None and stop[frontier].any():
            break
        cur, new = np.array(elems), np.array(frontier)
        old = cur[:len(cur) - len(new)]
        # offsets aN + b in the table of the products new * cur and old * new
        ab = np.concatenate([(new * N)[:, None] + cur, (old * N)[:, None] + new], axis=None)
        c = flat[ab]
        fresh = np.flatnonzero(~member.take(c))
        # each new product once, ascending, with the first offset giving it
        first = np.full(N, len(fresh))
        np.minimum.at(first, c[fresh], np.arange(len(fresh)))
        c = np.flatnonzero(first < len(fresh))
        a, b = np.divmod(ab[fresh[first[c]]], N)
        member[c] = True
        frontier = c.tolist()
        elems += frontier
        steps += zip(frontier, a.tolist(), b.tolist())
    return elems, steps


def subloops(L: LoopCtx) -> list[frozenset]:
    """Full subloop collection: the closures <a>, then pairwise joins to a
    fixpoint.  Each a whose closure is L is marked as a generator of L, and
    a later closure <b> stops as soon as it meets a marked element c: then
    L = <c> <= <b>.  Each round joins only the pairs that involve a subloop
    new in the previous round; every other pair was joined before.  Both
    parts of a join are subloops, so its search starts from c2 minus c1."""
    N = L.size
    if N > SUBLOOP_SIZE_CAP:
        raise SizeCapExceeded(f"subloop search capped at {SUBLOOP_SIZE_CAP}")
    generates = np.zeros(N, dtype=bool)
    fresh = set()
    for a in range(N):
        elems = _generate(L, [a], stop=generates)[0]
        if len(elems) == N or generates[elems].any():
            generates[a] = True
        else:
            fresh.add(frozenset(elems))
    done = [frozenset(range(N))]
    while fresh:
        joins = set()
        for c1 in fresh:
            for c2 in done:
                if not (c1 <= c2 or c2 <= c1):
                    joins.add(frozenset(_generate(L, c2, closed=c1)[0]))
            done.append(c1)
        fresh = joins.difference(done)
    return sorted(done, key=len)


def subloops_and_lagrange(L: LoopCtx) -> tuple[list[int], bool, bool]:
    """Subloop orders plus weak/strong Lagrange verdicts."""
    subs = subloops(L)
    orders = sorted({len(s) for s in subs})
    N = L.size
    weak = all(N % len(s) == 0 for s in subs)
    strong = all(len(big) % len(sub) == 0 for big in subs for sub in subs if sub <= big)
    return orders, weak, strong


# ---------------------------------------------------------------------------
# isomorphism


def _element_profile(L: LoopCtx) -> list[tuple]:
    prof = []
    for a in range(L.size):
        lp = _principal_orbit_size(L, a, "left")
        rp = _principal_orbit_size(L, a, "right")
        comm = int((L.table[a, :] == L.table[:, a]).sum())
        prof.append((lp, rp, comm))
    return prof


def loop_isomorphic(L1: LoopCtx, L2: LoopCtx) -> Optional[list[int]]:
    """A witness bijection phi with phi(xy) = phi(x)phi(y), or None.

    Greedy generators of L1 (each one grows the subloop so far the most)
    take every choice of distinct images with matching invariant profiles;
    phi follows on the other elements by phi(ab) = phi(a)phi(b) along the
    steps of `_generate`, and must be a bijection that maps table onto table.
    """
    if L1.size != L2.size:
        return None
    N = L1.size
    if N > ISO_SIZE_CAP:
        raise SizeCapExceeded(f"isomorphism search capped at {ISO_SIZE_CAP}")
    prof1, prof2 = _element_profile(L1), _element_profile(L2)
    if sorted(prof1) != sorted(prof2):
        return None
    gens: list[int] = []
    elems: list[int] = []
    steps: list[tuple[int, int, int]] = []
    while len(elems) < N:
        best = None
        for a in sorted(set(range(N)).difference(elems)):
            found = _generate(L1, [a], closed=elems)
            if best is None or len(found[0]) > len(best[1][0]):
                best = a, found
            if len(found[0]) == N:
                break
        gens.append(best[0])
        elems, new_steps = best[1]
        steps += new_steps
    T1, T2 = L1.table, L2.table
    t2 = T2.tolist()
    candidates = [[b for b in range(N) if prof2[b] == prof1[g]] for g in gens]
    for images in itertools.product(*candidates):
        if len(set(images)) < len(gens):
            continue
        phi = [0] * N
        for g, img in zip(gens, images):
            phi[g] = img
        for c, a, b in steps:
            phi[c] = t2[phi[a]][phi[b]]
        ph = np.array(phi)
        if len(set(phi)) == N and np.array_equal(ph[T1], T2[np.ix_(ph, ph)]):
            return phi
    return None


# ---------------------------------------------------------------------------
# Latin square export


def write_latin_csv(L: LoopCtx, path: str) -> None:
    import csv

    legend = None
    if L.semifield is not None:
        S = L.semifield
        from . import skewpoly as sp
        legend = [sp.format_poly(S.tower, S.decode(code)) for code in range(1, S.size)]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["N", L.size])
        wr.writerow(["legend"] + (legend or []))
        for i in range(L.size):
            wr.writerow(L.table[i, :].tolist())
