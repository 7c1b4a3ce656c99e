"""Permutation groups: Schreier-Sims stabilizer chains with exact orders.

Permutations are numpy int arrays of images; (g*h)(x) = g(h(x)) is
g.take(h): numpy's g[h] first converts an int32 index array h to intp,
which `take` does not, so a sift step at 728 points takes half the time.
The chain is built by the iterative deterministic Schreier-Sims loop (Holt,
Eick and O'Brien, Handbook of Computational Group Theory, 2005, section
4.4): it walks down the levels, and the first Schreier generator whose
residue is not the identity becomes a strong generator at the level j it
reached, where the walk resumes; `extend_many` adds a non-member the same
way.  So the order is reported only once every Schreier generator sifts to
the identity, unless the caller supplies bounds that settle levels first
(see `bsgs_build`): a proven upper bound on the order of the pointwise
stabilizer of each level's base prefix b_0..b_(i-1), asked for once, when
the level is added.  The orbit product of levels i, i+1, ... never exceeds
the order of that stabilizer, so when it equals the bound, levels i, i+1,
... are a complete chain and level i is verified without forming one of
its Schreier generators (`stats["settled_levels"]` counts these
verifications); when level 0 meets its bound, the construction stops.

Each level of the chain stores its orbit in BFS order, a point -> row index,
the inverse coset representatives u^-1 as rows of one degree x degree int32
table, and the representatives u themselves on the tracked points P (below)
as rows of an orbit x |P| table, both filled by the same BFS.  When a new
strong generator reaches a level, the BFS goes on from the orbit the level
has, so each u^-1 row is composed once, when its point joins the orbit:
Schreier's lemma holds for any transversal with u_point = 1 (Holt, Eick and
O'Brien, section 4.1), and each strong generator is inverted once, when it
is added.  The new u^-1 rows of a BFS layer are composed one strong
generator g at a time, all sharing the column index g^-1.  Schreier
generators and sifts are formed a chunk at a time by numpy gathers, in the
order the one-at-a-time procedure would visit them; the chunks of orbit
points double from one, so that little is formed past an early non-member,
and `stats["schreier_generators"]` counts the generators that procedure
visits up to and including the first non-member.

A chain may be given a frame: points that only the identity fixes
pointwise, in a group holding everything the chain meets (for F_p-linear
maps on the nonzero vectors of F_p^D, a basis, since a linear map that
fixes a basis is the identity).  Its tracked points P, the frame and the
base hint (every point without a frame), are fixed when the chain is
built and hold every base point, so whether a Schreier generator or a
candidate of `extend_many` sifts to the identity, and the level it
reaches, depend only on its images of P.  These are formed and sifted on
P alone; the first that does not sift to the identity is re-formed on
all points and sifted in full (Seress, Permutation Group Algorithms,
2003, sections 4-5).

`identify_small_group` names a group given by its Cayley table (cyclic,
dicyclic or a semidirect product of two cyclic groups) from one list per
element, powers[a] = [a, a^2, ..., e].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .gf import SizeCapExceeded

DEGREE_CAP = 5000
# the largest group `identify_small_group` reads from its table
IDENTIFY_LIMIT = 512
# permutation cells (rows x degree) formed per numpy batch
CHUNK_CELLS = 1 << 16


def chunk_rows(degree: int) -> int:
    """Rows of `degree` cells per batch."""
    return max(1, CHUNK_CELLS // max(1, degree))


class DegreeMismatch(ValueError):
    pass


class NotTransitive(ValueError):
    pass


Perm = np.ndarray
# a proven upper bound on the order of the pointwise stabilizer of a tuple of
# points, in a group holding everything the chain meets (see `bsgs_build`)
OrderBound = Callable[[tuple], int]


def identity_perm(n: int) -> Perm:
    return np.arange(n, dtype=np.int32)


def _flat_index(rows: np.ndarray, P: np.ndarray, n: int) -> np.ndarray:
    """Offsets of the cells (rows[i], P[i, x]) in a C-ordered table with n
    columns; one flat take is several times faster than 2-d fancy indexing."""
    return (rows.astype(np.intp) * n)[:, None] + P


def compose_rows(table: np.ndarray, rows: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Row i is table[rows[i]] composed with P[i], i.e. table[rows[i]][P[i]]."""
    return table.ravel()[_flat_index(rows, P, table.shape[1])]


def inverse_many(P: np.ndarray) -> np.ndarray:
    """Row-wise inverses of a stack of permutations, a chunk of rows at a
    time (the flat index is an intp array as large as the chunk)."""
    n = P.shape[1]
    inv = np.empty(P.shape, dtype=P.dtype)
    step = chunk_rows(n)
    for s in range(0, len(P), step):
        block = P[s:s + step]
        inv[s:s + step].ravel()[_flat_index(np.arange(len(block)), block, n)] = np.arange(n)
    return inv


def is_identity(g: Perm) -> bool:
    return bool((g == np.arange(len(g), dtype=g.dtype)).all())


class _Level:
    """One level of the chain: the orbit of `point` in BFS order, the row of
    each orbit point (-1 off the orbit), u_pt^-1 in row row[pt] of `uinv`
    (allocated once, degree x degree) and u_pt on the chain's tracked points
    P in row row[pt] of `reps` (sized by the orbit).  `ids` numbers the
    level's generators at the last extension and `gens` stacks them;
    `fresh` is cleared when a new strong generator reaches the level, which
    makes it stale (an orbit of a subgroup of the level's group) until it
    is extended.  `bound` is the chain's proven upper bound
    on the order of the pointwise stabilizer of the base points above the
    level, or None."""

    def __init__(self, point: int, degree: int, bound: Optional[int], P: np.ndarray):
        self.point = point
        self.bound = bound
        self.orbit = np.array([point], dtype=np.int32)
        self.row = np.full(degree, -1, dtype=np.int32)
        self.row[point] = 0
        self.uinv = np.empty((degree, degree), dtype=np.int32)
        self.uinv[0] = np.arange(degree, dtype=np.int32)
        self.ids = np.empty(0, dtype=np.intp)
        self.gens = np.empty((0, degree), dtype=np.int32)
        self.reps = P[None].astype(np.int32)
        self.fresh = False


class BSGS:
    """Base and strong generating set with array transversals."""

    def __init__(self, degree: int, order_bound: Optional[OrderBound] = None,
                 tracked: Optional[Sequence[int]] = None):
        if degree > DEGREE_CAP:
            raise SizeCapExceeded(f"degree {degree} exceeds cap {DEGREE_CAP}")
        self.degree = degree
        self.order_bound = order_bound
        self._identity = identity_perm(degree)     # every member's residue
        self._identity_bytes = self._identity.tobytes()
        # the sorted points whose images the sifts track (see `bsgs_build`)
        self.P = np.arange(degree) if tracked is None else np.asarray(tracked, dtype=np.intp)
        self.base: list[int] = []
        # the strong generators, numbered in the order they were added, with
        # their inverses; the one numbered i fixes base[:j] and moves base[j]
        # for j = _level_of[i] (the seed generators all have j = 0)
        self._gens = np.empty((0, degree), dtype=np.int32)
        self._ginv = np.empty((0, degree), dtype=np.int32)
        self._level_of: list[int] = []
        self.levels: list[_Level] = []
        # counters: Schreier generators formed (none on a settled level),
        # residues added as strong generators, transversal extensions,
        # degree-wide u^-1 rows composed by them, permutations sifted,
        # whether the construction stopped at the bound on the whole group,
        # the level verifications settled by the level's bound, with no
        # Schreier generator formed (see `_settled`), and |P|
        self.stats = {"schreier_generators": 0, "residues": 0, "extensions": 0,
                      "coset_rows": 0, "sifts": 0, "stopped_at_bound": False,
                      "settled_levels": 0, "tracked_points": len(self.P)}

    # -- chain bookkeeping ----------------------------------------------

    def _recompute_transversal(self, level: int) -> None:
        """Extend the level's orbit and coset representatives to the group
        of its current generators.  The orbit is closed under the generators
        of the last extension, so the BFS starts from the whole orbit with
        the generators added since, then goes on from each new layer with
        all of them: u_{g(q)} = g u_q, so u_{g(q)}^-1 = u_q^-1[g^-1] on all
        points and u_{g(q)}[P] = g[u_q[P]] on the tracked points P.  Rows
        already filled are kept, so every u^-1 row is composed once.
        Schreier's lemma holds for any transversal with u_point = 1, which
        this one is."""
        lv = self.levels[level]
        if lv.fresh:
            return
        n, P = self.degree, self.P
        ids = self._level_ids(level)
        known = np.zeros(len(self._level_of), dtype=bool)
        known[lv.ids] = True                # the orbit is closed under these
        use = ids[~known[ids]]
        lv.ids, lv.gens = ids, self._gens[ids]
        # the blocks of rows: the orbit so far, then one per new BFS layer
        orbit, reps = [lv.orbit], [lv.reps]
        front = np.arange(len(lv.orbit))
        size = len(lv.orbit)
        step, wide = chunk_rows(n), chunk_rows(len(P))
        while use.size:
            # images in visiting order: point of the last block major,
            # generator minor; the first occurrence of each new point is kept
            k = len(use)
            images = self._gens.ravel().take((orbit[-1][:, None] + use * n).ravel())
            unseen = np.flatnonzero(lv.row.take(images) < 0)
            new, order = images[unseen], np.arange(len(unseen))
            first = np.full(n, len(unseen))
            np.minimum.at(first, new, order)
            src = unseen[first.take(new) == order]
            if not src.size:
                break
            up, via = src // k, use[src % k]
            rows = front[up]
            front = np.arange(size, size + src.size)
            lv.row[images[src]] = front
            # u^-1 rows one generator at a time: the new rows reached by g
            # share the column index g^-1
            for g in np.flatnonzero(np.bincount(via)):
                made = np.flatnonzero(via == g)
                for a in range(0, made.size, step):
                    b = made[a:a + step]
                    lv.uinv[size + b] = lv.uinv.take(rows[b], axis=0).take(self._ginv[g], axis=1)
            rep = np.empty((src.size, len(P)), dtype=np.int32)
            for a in range(0, src.size, wide):
                b = slice(a, a + wide)
                rep[b] = compose_rows(self._gens, via[b], reps[-1][up[b]])
            orbit.append(images[src])
            reps.append(rep)
            size += src.size
            use = ids
        self.stats["coset_rows"] += size - len(lv.orbit)
        lv.orbit, lv.reps = np.concatenate(orbit), np.concatenate(reps)
        lv.fresh = True
        self.stats["extensions"] += 1

    def _level_ids(self, level: int) -> np.ndarray:
        """The numbers of the strong generators that fix base[:level], the
        generators of the level-th stabilizer, in `strong_generators` order."""
        ids = np.argsort(self._level_of, kind="stable")
        prefix = np.asarray(self.base[:level], dtype=np.intp)
        return ids[(self._gens[ids[:, None], prefix] == prefix).all(axis=1)]

    def _level_gens(self, level: int) -> np.ndarray:
        """The stack of the generators of the level-th stabilizer."""
        return self._gens[self._level_ids(level)]

    def _append_base_point(self, moved_by: Perm) -> None:
        """Add the first tracked point that `moved_by` moves as a base point."""
        moved = np.flatnonzero(np.asarray(moved_by).take(self.P) != self.P)
        if not moved.size:
            raise AssertionError("a new strong generator fixes every tracked point")
        self._add_level(int(self.P[moved[0]]))

    def _add_level(self, point: int) -> None:
        bound = None if self.order_bound is None else self.order_bound(tuple(self.base))
        self.base.append(point)
        self.levels.append(_Level(point, self.degree, bound, self.P))

    def _store(self, gens: np.ndarray, j: int) -> None:
        """Number a stack of new strong generators at level j and store them
        with their inverses (copies: a row may be a view of the caller's
        array or of a batch, which later batches overwrite)."""
        gens = np.asarray(gens, dtype=np.int32)
        self._gens = np.concatenate([self._gens, gens])
        self._ginv = np.concatenate([self._ginv, inverse_many(gens)])
        self._level_of += [j] * len(gens)

    def _add_generator(self, residue: Perm, j: int) -> None:
        if j == len(self.base):
            self._append_base_point(residue)
        self._store(np.asarray(residue)[None], j)
        self.stats["residues"] += 1
        for lv in self.levels[:j + 1]:
            lv.fresh = False

    # -- sifting ---------------------------------------------------------

    def sift(self, g: Perm, start_level: int = 0) -> tuple[Perm, int]:
        """Strip g through the chain; returns (residue, level reached)."""
        self.stats["sifts"] += 1
        levels = self.levels[start_level:]
        if not levels:
            return g, len(self.levels)
        h = np.asarray(g)                   # lists are accepted
        for l, lv in enumerate(levels, start_level):
            r = lv.row.item(h.item(lv.point))
            if r < 0:
                return h, l
            h = lv.uinv[r].take(h)
        return h, len(self.levels)

    def sift_many(self, H: np.ndarray, start_level: int = 0,
                  points: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise `sift` of a stack of permutations: (residues, levels).
        With `points`, a sorted array holding every base point, row i of H
        holds only the images of `points`, and so does its residue."""
        self.stats["sifts"] += len(H)
        residues = np.empty_like(H)
        reached = np.full(len(H), len(self.base), dtype=np.int64)
        active = np.arange(len(H))
        for l in range(start_level, len(self.base)):
            lv = self.levels[l]
            col = lv.point if points is None else np.searchsorted(points, lv.point)
            r = lv.row.take(H[:, col])
            out = r < 0
            if out.any():
                residues[active[out]] = H[out]
                reached[active[out]] = l
                active, r, H = active[~out], r[~out], H[~out]
            H = compose_rows(lv.uinv, r, H)
        residues[active] = H
        return residues, reached

    def contains(self, g: Perm) -> bool:
        if len(g) != self.degree:
            raise DegreeMismatch("degree mismatch")
        residue, level = self.sift(g)
        if not level:       # no level stepped: g itself, of any integer type
            return is_identity(np.asarray(g))
        # a residue that stepped a level is an int32 row
        return residue.tobytes() == self._identity_bytes

    def contains_many(self, H: np.ndarray) -> np.ndarray:
        """Row-wise `contains` of a stack of permutations."""
        if H.shape[1] != self.degree:
            raise DegreeMismatch("degree mismatch")
        residues, _ = self.sift_many(H)
        return (residues == self._identity).all(axis=1)

    # -- deterministic Schreier-Sims -------------------------------------

    def _first_nonmember(self, H: np.ndarray, P: np.ndarray, start_level: int,
                         full_row: Callable[[int], Perm]) -> Optional[tuple[int, Perm, int]]:
        """The first row of H whose residue, sifted from `start_level`, is not
        the identity: (row, residue, level reached), or None.  H holds the
        images of the tracked points P; that row is re-formed as a whole
        permutation by `full_row(row)` and sifted on all points, which gives
        the same level reached."""
        residues, _ = self.sift_many(H, start_level, P)
        bad = np.flatnonzero((residues != P).any(axis=1))
        if not bad.size:
            return None
        r = int(bad[0])
        return (r,) + self.sift(full_row(r), start_level)

    def _first_residue(self, i: int) -> Optional[tuple[Perm, int]]:
        """The first Schreier generator u_{g(pt)}^-1 g u_pt of level i, with
        pt in BFS order and g in `_level_gens` order, that does not sift to
        the identity through levels i+1..: (residue, level reached).  The
        generators are formed on the tracked points from the level's `reps`,
        in chunks of orbit points that double up to `chunk_rows(k |P|)`, so
        that little is formed past an early non-member; the count of
        Schreier generators stops at the first non-member, as in the
        one-at-a-time procedure."""
        lv = self.levels[i]
        k, P = len(lv.gens), self.P
        top = chunk_rows(k * len(P))
        s, per = 0, 1
        while s < len(lv.orbit):
            rows = slice(s, min(s + per, len(lv.orbit)))
            # row pt * k + g: g u_pt, then u_{g(pt)}^-1 g u_pt, on P
            gu = lv.gens.ravel()[(np.arange(k, dtype=np.intp) * self.degree)[:, None]
                                 + lv.reps[rows, None, :]].reshape(-1, len(P))
            back = lv.row.take(lv.gens[:, lv.orbit[rows]].T.ravel())
            sg = compose_rows(lv.uinv, back, gu)
            # a non-member is re-formed on all points, with u_pt the inverse
            # of its uinv row
            found = self._first_nonmember(sg, P, i + 1, lambda r: lv.uinv[back[r]][
                lv.gens[r % k][inverse_many(lv.uinv[[s + r // k]])[0]]])
            if found is not None:
                self.stats["schreier_generators"] += found[0] + 1
                return found[1:]
            self.stats["schreier_generators"] += len(sg)
            s, per = rows.stop, min(2 * per, top)
        return None

    def _settled(self, i: int) -> bool:
        """Whether the orbit product of levels i, i+1, ... equals the bound
        of level i, which proves those levels a complete chain (see
        `bsgs_build`); an AssertionError when it exceeds the bound."""
        bound = self.levels[i].bound
        if bound is None:
            return False
        size = math.prod(len(lv.orbit) for lv in self.levels[i:])
        if size > bound:
            raise AssertionError(f"level {i}: orbit product {size} exceeds the bound {bound} "
                                 f"on the stabilizer of the base prefix {self.base[:i]}")
        return size == bound

    def _schreier_sims(self, start: int) -> None:
        """Verify levels start, start-1, ..., 0, given that every level
        deeper than `start` is verified (its Schreier generators sift to the
        identity).  A residue found at level i lands as a strong generator
        at the level j > i it reached; it moves base[j], so no deeper level
        gains it, and the loop resumes at j.  A level whose orbit product
        meets its bound is verified without forming a Schreier generator.
        It stops, with every level extended, right after the extension whose
        orbit product meets the bound on the whole group."""
        i, stale = start, range(len(self.base))
        while i >= 0:
            for l in stale:
                self._recompute_transversal(l)
                if self._settled(0):
                    self.stats["stopped_at_bound"] = True
                    for m in range(len(self.base)):
                        self._recompute_transversal(m)
                    return
            settled = self._settled(i)
            self.stats["settled_levels"] += settled
            found = None if settled else self._first_residue(i)
            if found is None:
                i -= 1
            else:
                residue, i = found
                self._add_generator(residue, i)
            stale = [i]

    def extend_many(self, count: int, form: Callable[[slice, np.ndarray], np.ndarray]) -> bool:
        """Add each of `count` candidate permutations that is not yet in the
        group, in turn; returns True if any was new.

        `form(rows, points)` returns the images of `points` (an int array)
        under the candidates numbered by the slice `rows`, one row per
        candidate, in any integer type; a caller holding a stack H passes
        lambda rows, points: H[rows][:, points].  Membership is tested a
        chunk at a time, each chunk formed on the tracked points P only (all
        points without a frame).  The first candidate whose residue is not
        the identity is formed on all points, becomes a strong generator at
        the level j it reached, and the Schreier-Sims loop starts at j; the
        next chunk starts after it.  So a whole candidate is formed only for
        each one added.  Once the order meets the chain's bound on the whole
        group, no further chunk is formed."""
        changed = False
        start = 0
        P, every = self.P, np.arange(self.degree)
        while start < count and not (self.levels and self._settled(0)):
            chunk = form(slice(start, min(start + chunk_rows(len(P)), count)), P)
            found = self._first_nonmember(
                chunk, P, 0, lambda r: form(slice(start + r, start + r + 1), every)[0])
            if found is None:
                start += len(chunk)
                continue
            row, residue, j = found
            self._add_generator(residue, j)
            self._schreier_sims(j)
            changed = True
            start += row + 1
        return changed

    # -- reports ----------------------------------------------------------

    @property
    def order(self) -> int:
        out = 1
        for n in self.orbit_lengths():
            out *= n
        return out

    def orbit_lengths(self) -> list[int]:
        return [len(lv.orbit) for lv in self.levels]

    def strong_generators(self) -> list[Perm]:
        """By level, and in the order added within a level."""
        return list(self._gens[np.argsort(self._level_of, kind="stable")])


def bsgs_build(gens: Sequence[Perm], base_hint: Optional[Sequence[int]] = None,
               order_bound: Optional[OrderBound] = None,
               frame: Optional[Sequence[int]] = None) -> BSGS:
    """The stabilizer chain of <gens>.

    `order_bound`, when given, maps a tuple of points to a proven upper
    bound on the order of its pointwise stabilizer in a group H holding
    <gens> and every row later passed to `extend_many`; at the empty tuple
    it bounds |H|.  It is called once per level, when the level is added,
    with the base points above it, b_0..b_(i-1).  Let G be the group of the
    strong generators so far.  Each level's orbit is an orbit of a subgroup
    of G's stabilizer of the points above it, so the orbit product of
    levels i, i+1, ... is at most |G_(b_0..b_(i-1))|, hence at most the
    bound; a product above it raises an AssertionError that names the
    level, the prefix and both numbers.  Equality makes each of those
    orbits the whole orbit of G's stabilizer of the points above it, and
    G's stabilizer of the whole base trivial, so every element of
    G_(b_0..b_(i-1)), each Schreier generator of level i among them, sifts
    to the identity through levels i, i+1, ...: level i is verified without
    forming one.  At level 0 the chain's order is then |H|: the
    construction stops, and `extend_many` forms no further candidate.

    `frame`, when given, must be a set of points that only the identity
    fixes pointwise, in a group holding <gens> and every row later passed to
    `extend_many` (for a group of F_p-linear maps on the nonzero vectors of
    F_p^D, a basis: a linear map that fixes a basis is the identity).  The
    sifts then track only the points P of the frame and the base hint,
    fixed for the life of the chain, and each new base point is the first
    point of P that the new strong generator moves (some point of P moves,
    since only the identity fixes the frame pointwise).

    With the nonzero vectors as points code - 1 and e_k = p^k (point
    p^k - 1) as the frame, the chain is the one built without a frame.
    The codes below p^k are exactly span(e_0..e_(k-1)), so a linear map
    that fixes e_0..e_(k-1) fixes every point below p^k - 1: its first
    moved point is the first basis vector it moves, which is also its first
    moved point in P, and every base point, sift and residue is the same.
    """
    gens = [np.array(g, dtype=np.int32) for g in gens]
    if not gens:
        return BSGS(degree=0)
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise DegreeMismatch("generators act on different point sets")
    tracked = None if frame is None else sorted(set(frame).union(base_hint or []))
    b = BSGS(degree, order_bound=order_bound, tracked=tracked)
    for pt in base_hint or []:
        b._add_level(int(pt))
    nontrivial = [g for g in gens if not is_identity(g)]
    if not b.base and nontrivial:
        b._append_base_point(nontrivial[0])
    if nontrivial:
        b._store(np.stack(nontrivial), 0)
    b._schreier_sims(len(b.base) - 1)
    # deterministic verification: every strong generator sifts to identity
    sgs = b.strong_generators()
    assert not sgs or b.contains_many(np.stack(sgs)).all(), "strong generator fails to sift"
    return b


def stabilizer_order(G: BSGS, point: int) -> int:
    """|Stab(point)| = |G|/degree for a transitive G (orbit-stabilizer)."""
    if not G.base or G.orbit_lengths()[0] != G.degree:
        raise NotTransitive("group is not transitive on its degree")
    return G.order // G.degree


def stabilizer_generators(G: BSGS, point: int) -> list[Perm]:
    """Generators of Stab(point); requires the chain to start at point."""
    if not G.base or G.base[0] != point:
        raise ValueError("build the chain with base_hint=[point] first")
    return list(G._level_gens(1))


# ---------------------------------------------------------------------------
# small-group identification


@dataclass
class GroupId:
    tag: str
    order: int
    params: dict = field(default_factory=dict)


def identify_small_group(mul: Sequence[Sequence[int]], identity: int = 0) -> GroupId:
    """Identify a group given by its multiplication table (order at most
    IDENTIFY_LIMIT): cyclic, dicyclic, a semidirect product Z/a x| Z/b, or
    unknown.

    Everything is read from powers[a] = [a, a^2, ..., e], one list per element:
    the order of a is its length, a^-1 its second-to-last entry, a^k its
    entry k - 1 and <a> its set."""
    n = len(mul)
    if n > IDENTIFY_LIMIT:
        raise SizeCapExceeded(f"group of order {n} exceeds the identification "
                              f"bound {IDENTIFY_LIMIT}")
    e = identity
    powers = []
    for a in range(n):
        row = [a]
        while row[-1] != e:
            row.append(mul[row[-1]][a])
        powers.append(row)

    def conjugate(y, x):    # y x y^-1, y != e
        return mul[mul[y][x]][powers[y][-2]]

    if any(len(row) == n for row in powers):
        return GroupId(tag="cyclic", order=n, params={"k": n})
    # dicyclic Dic_k of order 4k: <a,b | a^(2k)=1, b^2=a^k, b a b^-1 = a^-1>
    if n % 4 == 0:
        k = n // 4
        for a in range(n):
            pa = powers[a]
            if len(pa) != 2 * k:
                continue
            cyc = set(pa)
            if any(mul[b][b] == pa[k - 1] and b not in cyc and conjugate(b, a) == pa[-2]
                   for b in range(n)):
                return GroupId(tag="dicyclic", order=n, params={"k": k})
    # Z/a x| Z/b with y x y^-1 = x^q; <x> and <y> meet only in e, which makes
    # the da * db = n products x^i y^j distinct
    for da in range(n - 1, 1, -1):
        if n % da:
            continue
        db = n // da
        ys = [y for y in range(n) if len(powers[y]) == db]
        for x in (x for x in range(n) if len(powers[x]) == da):
            px = powers[x]
            cyc = set(px)
            for y in ys:
                c = conjugate(y, x)
                if c in cyc and cyc.isdisjoint(powers[y][:-1]):
                    return GroupId(tag="semidirect", order=n,
                                   params={"a": da, "b": db, "q": px.index(c) + 1})
    return GroupId(tag="unknown", order=n)


# ---------------------------------------------------------------------------
# classical linear group orders (sandwich bound helpers)


def gl_order(d: int, q: int) -> int:
    out = q ** (d * (d - 1) // 2)
    for i in range(1, d + 1):
        out *= q ** i - 1
    return out


def sl_order(d: int, q: int) -> int:
    return gl_order(d, q) // (q - 1)


def gl_stabilizer_order(d: int, q: int, w: int) -> int:
    """|GL(d,q)_(W)|, the maps that fix a w-dimensional subspace W pointwise:
    in a basis that starts with one of W they are the block matrices
    [[1, A], [0, B]], A any w x (d - w) matrix and B in GL(d - w, q)."""
    return q ** (w * (d - w)) * gl_order(d - w, q)
