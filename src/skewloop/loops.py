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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from . import permgroup as pg
from .permgroup import BSGS, Perm
from .semifield import SemifieldCtx

SUBLOOP_SIZE_CAP = 700
ISO_SIZE_CAP = 255
KINDS = ("T", "L", "R")


class SizeCapExceeded(ValueError):
    pass


@dataclass
class LoopCtx:
    semifield: Optional[SemifieldCtx]
    table: np.ndarray  # table[i, j] = index of element_i * element_j
    identity = 0       # the identity's index, in every loop

    @property
    def size(self) -> int:
        return self.table.shape[0]

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def left_translation(self, a: int) -> Perm:
        return self.table[a, :].astype(np.int32)

    def right_translation(self, a: int) -> Perm:
        return self.table[:, a].astype(np.int32)

    @cached_property
    def ldiv(self) -> np.ndarray:
        """Left division: row a is L_a^-1, so ldiv[a, b] = a \\ b."""
        return pg.inverse_many(self.table)

    @cached_property
    def rdiv(self) -> np.ndarray:
        """Right division: row a is R_a^-1, so rdiv[a, b] = b / a."""
        return pg.inverse_many(self.table.T)


def _assert_latin(table: np.ndarray) -> None:
    n = table.shape[0]
    ref = np.arange(n)
    for what, lines in (("row", table), ("column", table.T)):
        bad = np.flatnonzero((np.sort(lines, axis=1) != ref).any(axis=1))
        if bad.size:
            raise AssertionError(f"{what} {bad[0]} is not a permutation")
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

    A translation T is F_p-linear when its permutation equals the action of
    the D x D prime-field matrix read off the images of the basis, on all N
    nonzero vectors.  It is then F_q-linear when it also commutes with
    x -> cx for a generator c of F_q^*: the constants of F_q are central,
    so that map is the left translation L_c.
    """
    S = L.semifield
    if S is None:
        return None
    K = S.tower.field
    q = S.tower.q
    Y = S.to_vector(np.arange(1, S.size))
    cols = np.array(S.basis()) - 1
    c = K.pow_int(K.primitive, (K.order - 1) // (q - 1))
    Lc = L.table[c - 1]
    chunk = pg.chunk_rows(L.size * S.dim_prime)
    # left translations are the rows of the table, right ones its columns
    for perms in (L.table, L.table.T):
        for s in range(0, L.size, chunk):
            P = perms[s:s + chunk]
            M = Y[P[:, cols]]            # M[t][i] = T(e_i): the matrix of each T
            if not (np.array_equal(S.from_vector(Y @ M % S.p) - 1, P)
                    and np.array_equal(P[:, Lc], Lc[P])):
                return None
    return pg.gl_order(S.tower.n * S.m, q)


def mlt_group(L: LoopCtx) -> BSGS:
    """Exact Mlt(L): seed a few translations, then sift every L_a and R_a
    once, extending the chain on any failure.

    When `gl_bound` certifies Mlt(L) <= GL(nm,q), the chain stops as soon as
    its order reaches |GL(nm,q)|, and the sweep over the translations is
    skipped once it has.
    """
    N = L.size
    if N > pg.DEGREE_CAP:
        raise pg.DegreeCapExceeded(f"loop of size {N} exceeds the Mlt degree cap")
    rng = random.Random(0)
    picks = {1 % N, N - 1}
    while len(picks) < min(10, N):
        picks.add(rng.randrange(N))
    gens = []
    for a in picks:
        gens.append(L.left_translation(a))
        gens.append(L.right_translation(a))
    bound = gl_bound(L)
    G = pg.bsgs_build(gens, base_hint=[L.identity], order_bound=bound)
    chunk = pg.chunk_rows(2 * N)
    if G.order != bound:
        # one sweep: the group only grows, so every row tested stays in it
        for s in range(0, N, chunk):
            rows = L.table[s:s + chunk]
            block = np.empty((2 * len(rows), N), dtype=np.int32)
            block[0::2] = rows                       # L_a
            block[1::2] = L.table[:, s:s + chunk].T  # R_a
            G.extend_many(block)
    if G.orbit_lengths()[0] != N:
        raise pg.NotTransitive("Mlt(L) is not transitive")
    return G


def inn_group(L: LoopCtx, M: BSGS) -> tuple[int, list[Perm]]:
    """|Inn| = |Mlt|/N with stabilizer generators, cross-checked against the
    T_x / L_{x,y} / R_{x,y} generating set: those of 20 sampled (x, y) must
    lie in Mlt, and on loops of at most 80 points all of them must generate
    a group of order |Inn|."""
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
    from the full division tables `L.ldiv` and `L.rdiv`."""
    N = L.size
    every = np.arange(N)
    div = {"left": L.ldiv, "right": L.rdiv}

    def rows(kind, x, y=None):
        side, outer, inner = _inner_parts(L, kind, x, y)
        return pg.compose_rows(div[side], outer, inner)

    gens = rows("T", every)
    G = pg.bsgs_build([g for g in gens if not pg.is_identity(g)] or [pg.identity_perm(N)])
    block = np.empty((2 * N, N), dtype=np.int32)
    for x in range(N):
        block[0::2] = rows("L", np.full(N, x), every)     # row 2y: L_{x,y}
        block[1::2] = rows("R", np.full(N, x), every)     # row 2y + 1: R_{x,y}
        G.extend_many(block)
    return G


def _inner_parts(L: LoopCtx, kind: str, x, y):
    """(side, outer, inner): the inner mapping of `kind` at each (x, y) is the
    inverse of the outer translation (left or right translation by `outer`)
    composed with the inner product map, one row of `inner` per (x, y)."""
    T = L.table
    x, y = np.asarray(x), np.asarray(y)
    if kind == "T":
        return "left", x, T[:, x].T                                       # L_x, R_x
    if kind == "L":
        return "left", T[y, x], pg.compose_rows(T, y, T[x])               # L_yx, L_y L_x
    if kind == "R":
        return "right", T[x, y], T[T[:, x].T, y[:, None]]                 # R_xy, R_y R_x
    raise ValueError(f"unknown inner mapping kind {kind!r}")


def inner_rows(L: LoopCtx, kind: str, x, y=None) -> np.ndarray:
    """T_x = L_x^-1 R_x, L_{x,y} = L_{yx}^-1 L_y L_x or R_{x,y} = R_{xy}^-1 R_y R_x,
    one row per entry of the equal-length index arrays x and y (T ignores y).
    Only the outer translations these rows need are inverted."""
    side, outer, inner = _inner_parts(L, kind, x, y)
    trans = L.table[outer] if side == "left" else L.table[:, outer].T
    return pg.compose_rows(pg.inverse_many(trans), np.arange(len(outer)), inner)


@dataclass
class InnerMapping:
    kind: str
    x: int
    y: Optional[int]
    perm: Perm


def inner_mapping(L: LoopCtx, kind: str, x: int, y: Optional[int] = None) -> InnerMapping:
    """One row of `inner_rows`."""
    perm = inner_rows(L, kind, [x], [y])[0]
    if int(perm[L.identity]) != L.identity:
        raise AssertionError("inner mapping does not fix the identity")
    return InnerMapping(kind=kind, x=x, y=y, perm=perm)


# ---------------------------------------------------------------------------
# cyclicity


def _principal_orbit_size(L: LoopCtx, a: int, side: str) -> int:
    seen = np.zeros(L.size, dtype=bool)
    cur = a
    count = 0
    while not seen[cur]:
        seen[cur] = True
        count += 1
        cur = L.mul(cur, a) if side == "left" else L.mul(a, cur)
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


def _generate(L: LoopCtx, seed: Iterable[int], closed: Iterable[int] = ()
              ) -> tuple[list[int], list[tuple[int, int, int]]]:
    """The subloop generated by `closed` and `seed`, in discovery order
    (`closed`, new seed elements, then each round's new products ascending),
    and a step (c, a, b), ab = c with a, b found earlier, per product found.
    Rounds form only the products that involve the last round's elements, so
    `closed` must be a subloop or empty; the first frontier is seed \\ closed."""
    N, flat = L.size, L.table.ravel()
    member = np.zeros(N, dtype=bool)
    elems = list(closed)
    member[elems] = True
    frontier = [s for s in dict.fromkeys(seed) if not member[s]]
    member[frontier] = True
    elems += frontier
    steps: list[tuple[int, int, int]] = []
    while frontier and len(elems) < N:
        cur, new = np.array(elems), np.array(frontier)
        old = cur[:len(cur) - len(new)]
        # offsets aN + b in the table of the products new * cur and old * new
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


def _closure(L: LoopCtx, seed: Sequence[int]) -> frozenset:
    return frozenset(_generate(L, seed)[0])


def subloops(L: LoopCtx) -> list[frozenset]:
    """Full subloop collection: the closures <a>, then pairwise joins to a
    fixpoint.  Each round joins only the pairs that involve a subloop new in
    the previous round; every other pair was joined before.  Both parts of a
    join are subloops, so its search starts from c2 minus c1."""
    N = L.size
    if N > SUBLOOP_SIZE_CAP:
        raise SizeCapExceeded(f"subloop search capped at {SUBLOOP_SIZE_CAP}")
    done: list[frozenset] = []
    fresh = {_closure(L, [a]) for a in range(N)}
    while fresh:
        joins = set()
        for c1 in fresh:
            for c2 in done:
                if not (c1 <= c2 or c2 <= c1):
                    joins.add(frozenset(_generate(L, c2, closed=c1)[0]))
            done.append(c1)
        fresh = joins.difference(done)
    return sorted(set(done) | {frozenset(range(N))}, key=len)


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
# Latin square export / import


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


def read_latin_csv(path: str) -> LoopCtx:
    import csv

    with open(path) as fh:
        rd = csv.reader(fh)
        header = next(rd)
        n = int(header[1])
        next(rd)  # legend
        rows = [[int(v) for v in next(rd)] for _ in range(n)]
    return loop_from_table(rows)


# ---------------------------------------------------------------------------
# report


def loop_report(L: LoopCtx) -> dict:
    out: dict = {"order": L.size}
    if L.size <= pg.DEGREE_CAP:
        M = mlt_group(L)
        inn_order, _ = inn_group(L, M)
        out["mlt_order"] = str(M.order)
        out["inn_order"] = str(inn_order)
    lc, rc, wit = cyclicity(L)
    out["left_cyclic"] = lc
    out["right_cyclic"] = rc
    out["cyclic_witnesses"] = wit
    return out
