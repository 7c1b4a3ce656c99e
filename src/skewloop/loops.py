"""The multiplicative loop L_f = S_f \\ {0}: translations, Mlt/Inn,
inner mappings, cyclicity, subloops, isomorphism testing, Latin squares.

Loop elements are indexed 0..N-1 by their semifield code minus one, so the
identity 1 gets index 0.  The multiplication table is a dense numpy array;
left/right translations are its rows/columns, which are permutations (the
Latin-square property, asserted at construction).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import permgroup as pg
from .permgroup import BSGS, Perm
from .semifield import SemifieldCtx

SUBLOOP_SIZE_CAP = 700
ISO_SIZE_CAP = 255


class SizeCapExceeded(ValueError):
    pass


@dataclass
class LoopCtx:
    semifield: Optional[SemifieldCtx]
    table: np.ndarray  # table[i, j] = index of element_i * element_j
    identity: int = 0

    @property
    def size(self) -> int:
        return self.table.shape[0]

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def left_translation(self, a: int) -> Perm:
        return self.table[a, :].astype(np.int32)

    def right_translation(self, a: int) -> Perm:
        return self.table[:, a].astype(np.int32)


def _assert_latin(table: np.ndarray, identity: int) -> None:
    n = table.shape[0]
    ref = np.arange(n)
    for what, lines in (("row", table), ("column", table.T)):
        bad = np.flatnonzero((np.sort(lines, axis=1) != ref).any(axis=1))
        if bad.size:
            raise AssertionError(f"{what} {bad[0]} is not a permutation")
    if not (table[identity, :] == ref).all() or not (table[:, identity] == ref).all():
        raise AssertionError("identity row/column is not the identity map")


def build_loop(S: SemifieldCtx) -> LoopCtx:
    """Loop on the q^(nm)-1 nonzero elements, with the full index table,
    read from the semifield's product table on the nonzero codes."""
    table = S.product_table(np.arange(1, S.size))
    table -= 1
    loop = LoopCtx(semifield=S, table=table)
    _assert_latin(table, loop.identity)
    return loop


def loop_from_table(table: Sequence[Sequence[int]], identity: int = 0) -> LoopCtx:
    arr = np.asarray(table, dtype=np.int32)
    loop = LoopCtx(semifield=None, table=arr, identity=identity)
    _assert_latin(arr, identity)
    return loop


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


def mlt_group(L: LoopCtx, seed: int = 0) -> BSGS:
    """Exact Mlt(L): seed a few translations, then sift every L_a and R_a,
    extending the chain on any failure.

    When `gl_bound` certifies Mlt(L) <= GL(nm,q), the chain stops as soon as
    its order reaches |GL(nm,q)|, and the sweep over the translations is
    skipped once it has.
    """
    N = L.size
    if N > pg.DEGREE_CAP:
        raise pg.DegreeCapExceeded(f"loop of size {N} exceeds the Mlt degree cap")
    rng = random.Random(seed)
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
    changed = True
    while changed and G.order != bound:
        changed = False
        for s in range(0, N, chunk):
            rows = L.table[s:s + chunk]
            block = np.empty((2 * len(rows), N), dtype=np.int32)
            block[0::2] = rows                       # L_a
            block[1::2] = L.table[:, s:s + chunk].T  # R_a
            changed |= G.extend_many(block)
    if G.orbit_lengths()[0] != N:
        raise pg.NotTransitive("Mlt(L) is not transitive")
    return G


def inn_group(L: LoopCtx, M: BSGS, cross_check: bool = True
              ) -> tuple[int, list[Perm]]:
    """|Inn| = |Mlt|/N with stabilizer generators; optionally cross-checked
    against the T_x / L_{x,y} / R_{x,y} generating set."""
    order = pg.stabilizer_order(M, L.identity)
    gens = pg.stabilizer_generators(M, L.identity)
    if cross_check:
        rng = random.Random(1)
        sample = [(rng.randrange(L.size), rng.randrange(L.size)) for _ in range(20)]
        for x, y in sample:
            for kind in ("T", "L", "R"):
                perm = inner_mapping(L, kind, x, y).perm
                if not M.contains(perm):
                    raise AssertionError(f"inner mapping {kind}_{x},{y} outside Mlt")
        if L.size <= 80:
            sub = inn_from_generators(L)
            if sub.order != order:
                raise AssertionError(
                    f"Inn order {order} != T/L/R-generated order {sub.order}")
    return order, gens


def inn_from_generators(L: LoopCtx) -> BSGS:
    """The subgroup generated by all T_x, L_{x,y}, R_{x,y} (small loops)."""
    N = L.size
    T = L.table
    linv = pg.inverse_many(T)      # linv[a] = L_a^-1
    rinv = pg.inverse_many(T.T)    # rinv[a] = R_a^-1
    gens = pg.compose_rows(linv, np.arange(N), T.T)   # T_x = L_x^-1 R_x
    G = pg.bsgs_build([g for g in gens if not pg.is_identity(g)] or [pg.identity_perm(N)])
    block = np.empty((2 * N, N), dtype=np.int32)
    for x in range(N):
        # row 2y: L_{x,y} = L_{yx}^-1 L_y L_x; row 2y+1: R_{x,y} = R_{xy}^-1 R_y R_x
        block[0::2] = pg.compose_rows(linv, T[:, x], T[:, T[x]])
        block[1::2] = pg.compose_rows(rinv, T[x], T[T[:, x]].T)
        G.extend_many(block)
    return G


@dataclass
class InnerMapping:
    kind: str
    x: int
    y: Optional[int]
    perm: Perm


def inner_mapping(L: LoopCtx, kind: str, x: int, y: Optional[int] = None) -> InnerMapping:
    """T_x = L_x^-1 R_x, L_{x,y} = L_{yx}^-1 L_y L_x, R_{x,y} = R_{xy}^-1 R_y R_x."""
    lx = L.left_translation(x)
    rx = L.right_translation(x)
    if kind == "T":
        perm = pg.compose(pg.inverse(lx), rx)
    elif kind == "L":
        assert y is not None
        ly = L.left_translation(y)
        lyx = L.left_translation(L.mul(y, x))
        perm = pg.compose(pg.inverse(lyx), pg.compose(ly, lx))
    elif kind == "R":
        assert y is not None
        ry = L.right_translation(y)
        rxy = L.right_translation(L.mul(x, y))
        perm = pg.compose(pg.inverse(rxy), pg.compose(ry, rx))
    else:
        raise ValueError(f"unknown inner mapping kind {kind!r}")
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
# subloops and Lagrange properties


def _closure(L: LoopCtx, seed: Sequence[int]) -> frozenset:
    member = np.zeros(L.size, dtype=bool)
    elems: list[int] = []
    frontier: list[int] = []
    for s in set(seed):
        member[s] = True
        elems.append(s)
        frontier.append(s)
    while frontier:
        cur = np.array(elems, dtype=np.int64)
        new = np.array(frontier, dtype=np.int64)
        prods = np.unique(np.concatenate([
            L.table[np.ix_(new, cur)].ravel(),
            L.table[np.ix_(cur, new)].ravel(),
        ]))
        frontier = [int(x) for x in prods if not member[x]]
        for x in frontier:
            member[x] = True
            elems.append(x)
    return frozenset(elems)


def subloops(L: LoopCtx) -> list[frozenset]:
    """Full subloop collection: the closures <a>, then pairwise joins to a
    fixpoint.  Each round joins only the pairs that involve a subloop new in
    the previous round; every other pair was joined before."""
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
                    joins.add(_closure(L, list(c1 | c2)))
            done.append(c1)
        fresh = joins.difference(done)
    return sorted(set(done) | {frozenset(range(N))}, key=len)


def subloops_and_lagrange(L: LoopCtx) -> tuple[list[int], bool, bool]:
    """Subloop orders plus weak/strong Lagrange verdicts."""
    subs = subloops(L)
    orders = sorted({len(s) for s in subs})
    N = L.size
    weak = all(N % len(s) == 0 for s in subs)
    strong = True
    for m_sub in subs:
        for inner in subs:
            if inner <= m_sub and len(m_sub) % len(inner) != 0:
                strong = False
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


def _generating_trace(L: LoopCtx) -> tuple[list[int], list[tuple]]:
    """Greedy generators plus a construction trace.

    The trace is a list of instructions: ('gen', g_idx) or ('mul', i, j)
    meaning element k is trace[i] * trace[j]; every loop element appears
    exactly once.
    """
    N = L.size
    gens: list[int] = []
    trace: list[tuple] = []
    pos: dict[int, int] = {}

    def close() -> None:
        changed = True
        while changed:
            changed = False
            known = list(pos.items())
            for a, ia in known:
                for b, ib in list(pos.items()):
                    ab = L.mul(a, b)
                    if ab not in pos:
                        pos[ab] = len(trace)
                        trace.append(("mul", ia, ib))
                        changed = True

    while len(pos) < N:
        best, best_gain = None, -1
        remaining = [a for a in range(N) if a not in pos]
        for a in remaining:
            gain = len(_closure(L, list(pos.keys()) + [a]))
            if gain > best_gain:
                best, best_gain = a, gain
            if gain == N:
                break
        gens.append(best)
        pos[best] = len(trace)
        trace.append(("gen", len(gens) - 1))
        close()
    return gens, trace


def loop_isomorphic(L1: LoopCtx, L2: LoopCtx) -> Optional[list[int]]:
    """A witness bijection phi with phi(xy) = phi(x)phi(y), or None.

    Backtracking over images of a greedy generating set, pruned by
    per-element invariant profiles; images of all other elements follow
    from the construction trace.
    """
    if L1.size != L2.size:
        return None
    N = L1.size
    if N > ISO_SIZE_CAP:
        raise SizeCapExceeded(f"isomorphism search capped at {ISO_SIZE_CAP}")
    prof1, prof2 = _element_profile(L1), _element_profile(L2)
    if sorted(prof1) != sorted(prof2):
        return None
    gens, trace = _generating_trace(L1)
    # recover element of L1 at each trace position
    elems1: list[int] = []
    for instr in trace:
        if instr[0] == "gen":
            elems1.append(gens[instr[1]])
        else:
            elems1.append(L1.mul(elems1[instr[1]], elems1[instr[2]]))
    candidates = [[b for b in range(N) if prof2[b] == prof1[g]] for g in gens]

    def attempt(images: list[int]) -> Optional[list[int]]:
        mapped: list[int] = []
        used = set()
        for k, instr in enumerate(trace):
            if instr[0] == "gen":
                val = images[instr[1]]
            else:
                val = L2.mul(mapped[instr[1]], mapped[instr[2]])
            if val in used:
                return None
            used.add(val)
            mapped.append(val)
        phi = [0] * N
        for e1, e2 in zip(elems1, mapped):
            phi[e1] = e2
        for a in range(N):
            for b in range(N):
                if phi[L1.mul(a, b)] != L2.mul(phi[a], phi[b]):
                    return None
        return phi

    def backtrack(k: int, chosen: list[int]) -> Optional[list[int]]:
        if k == len(gens):
            return attempt(chosen)
        for img in candidates[k]:
            if img in chosen:
                continue
            res = backtrack(k + 1, chosen + [img])
            if res is not None:
                return res
        return None

    return backtrack(0, [])


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


def loop_report(L: LoopCtx, with_mlt: bool = True, seed: int = 0) -> dict:
    out: dict = {"order": L.size}
    if with_mlt and L.size <= pg.DEGREE_CAP:
        M = mlt_group(L, seed=seed)
        inn_order, _ = inn_group(L, M, cross_check=False)
        out["mlt_order"] = str(M.order)
        out["inn_order"] = str(inn_order)
    lc, rc, wit = cyclicity(L)
    out["left_cyclic"] = lc
    out["right_cyclic"] = rc
    out["cyclic_witnesses"] = wit
    return out
