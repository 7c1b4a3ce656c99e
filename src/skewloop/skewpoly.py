"""The twisted polynomial ring R = K[t;sigma].

A skew polynomial is a tuple of field-element codes, low degree first,
with no trailing zeros; the zero polynomial is the empty tuple.  The
degree of zero is treated as -1 in comparisons (a sentinel for -infinity).
Multiplication twists coefficients past t: t*a = sigma(a)*t (`mul`);
`left_inverse_mod` is the extended right Euclidean algorithm, from which
`semifield.inverses` takes both inverses in S_f.  Modulo a monic f, the
rows R_k = t^k mod_r f (`t_powers`) carry the arithmetic: the reduced
norm's matrix and the product of S_f (`semifield`) read them.  Their
recurrence and chi's (`_berkowitz`) run on codes or on code arrays.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import zip_longest
from typing import Iterator, Sequence

import numpy as np

from .gf import TowerCtx, monic_rows, poly_is_irreducible

SkewPoly = tuple  # tuple of K element codes, low degree first, trimmed


class DivisionByZeroPoly(ZeroDivisionError, ValueError):
    """Also a ValueError, so the CLI reports it as a usage error."""


class NotMonic(ValueError):
    pass


class DegreeZero(ValueError):
    pass


def poly(coeffs: Sequence[int]) -> SkewPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f: SkewPoly) -> int:
    return len(f) - 1


def is_monic(f: SkewPoly) -> bool:
    return bool(f) and f[-1] == 1


def mul(ctx: TowerCtx, a: SkewPoly, b: SkewPoly) -> SkewPoly:
    """The product a b in R: sum a_i sigma^i(b_j) t^(i+j), one `mul_pow`
    per term."""
    K, qp, n = ctx.field, ctx.q_powers, ctx.n
    add, mul_pow = K.add, K.mul_pow
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            e = qp[i % n]
            for j, bj in enumerate(b):
                c[i + j] = add(c[i + j], mul_pow(ai, bj, e))
    return poly(c)


def right_divmod(ctx: TowerCtx, g: SkewPoly, f: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Unique (q, r) with g = q*f + r and deg(r) < deg(f)."""
    if not f:
        raise DivisionByZeroPoly("right division by the zero polynomial")
    K = ctx.field
    pw, qp, n = K.pow_int, ctx.q_powers, ctx.n
    df = len(f) - 1
    rem = list(g)
    qcoeffs = [0] * max(len(g) - df, 0)
    f_lead = f[-1]
    while len(rem) - 1 >= df and rem:
        d = len(rem) - 1 - df
        # leading term c t^d with (c t^d)(f_lead t^df) = c sigma^d(f_lead) t^(deg)
        e = qp[d % n]
        c = K.div(rem[-1], pw(f_lead, e))
        qcoeffs[d] = c
        minus_c = K.neg(c)
        for i, fi in enumerate(f):
            if fi:
                rem[i + d] = K.add(rem[i + d], K.mul_pow(minus_c, fi, e))
        while rem and rem[-1] == 0:
            rem.pop()
    return poly(qcoeffs), tuple(rem)


def left_inverse_mod(ctx: TowerCtx, x: SkewPoly, g: SkewPoly) -> SkewPoly:
    """u with u x = 1 mod Rg, for deg x < deg g, by the extended right
    Euclidean algorithm (O. Ore, Ann. of Math. 34, 1933).  The remainders
    r_0 = g, r_1 = x, r_(i+1) = r_(i-1) - q_i r_i keep r_i = s_i x mod Rg
    with s_0 = 0, s_1 = 1 and s_(i+1) = s_(i-1) - q_i s_i, as
    q_i (s_i x) = (q_i s_i) x; so only the left cofactors s_i are tracked,
    and deg s_i = deg g - deg r_(i-1) < deg g.  The last nonzero r_i is
    gcrd(x, g); AssertionError unless it is a constant c, and then
    u = c^-1 s_i, the one solution of degree < deg g."""
    K = ctx.field
    r0, r1, s0, s1 = g, x, (), (1,)
    while len(r1) > 1:
        q, r = right_divmod(ctx, r0, r1)
        minus_qs = mul(ctx, tuple(K.neg(c) for c in q), s1)
        s = poly([K.add(a, b) for a, b in zip_longest(s0, minus_qs, fillvalue=0)])
        r0, r1, s0, s1 = r1, r, s1, s
    assert r1, f"x and g share the right factor {r0}: x is no unit mod Rg"
    c = K.inv(r1[0])
    return tuple(K.mul(c, a) for a in s1)


def make_monic(ctx: TowerCtx, f: SkewPoly) -> SkewPoly:
    """Normalize by a left unit; S_f = S_{af} so this loses nothing."""
    if not f or f[-1] == 1:
        return f
    c = ctx.field.inv(f[-1])
    return tuple(ctx.field.mul(c, a) for a in f)


def _t_rows(f, count: int, add, neg, mul_pow, pw, q: int) -> list:
    """R_k = t^k mod_r f, k < count, as m coefficients each (f monic, degree
    m >= 1): R_0 = 1, and R_(k+1) = t R_k is sigma(R_k) shifted up, its top
    term sigma(c) t^m read as sigma(c) (t^m mod_r f).  sigma(a) = pw(a, q),
    b sigma(c) = mul_pow(b, c, q); a coefficient is a code or a code array."""
    t0, *tail = [neg(c) for c in f[:-1]]                  # t^m mod_r f
    rows = [[1] + [0] * len(tail)]
    while len(rows) < count:
        r, top = rows[-1], rows[-1][-1]
        row = [mul_pow(t0, top, q)]
        for a, b in zip(r, tail):
            row.append(add(pw(a, q), mul_pow(b, top, q)))
        rows.append(row)
    return rows


def t_powers(ctx: TowerCtx, f: SkewPoly, count: int) -> list[list[int]]:
    """R_k = t^k mod_r f for k < count, each as its m codes (`_t_rows`)."""
    K = ctx.field
    return _t_rows(f, count, K.add, K.neg, K.mul_pow, K.pow_int, ctx.q)


def _berkowitz(C, add, mul, neg) -> list:
    """det(y - C) for an m x m matrix C, highest degree first, by
    Berkowitz's division-free recurrence (S. J. Berkowitz, Inf. Process.
    Lett. 18, 1984).  With C_i the trailing block from (i, i) on, a its
    corner, R and c the rest of its first row and column and A = C_(i+1),
    chi(C_i) = T chi(A) for the Toeplitz T of first column
    (1, -a, -R c, -R A c, ..., -R A^(m-i-2) c).  It picks no pivots, so an
    entry may be a code or an array of codes, one per matrix."""
    def dot(u, v):
        pairs = zip(u, v)
        a, b = next(pairs)
        acc = mul(a, b)
        for a, b in pairs:
            acc = add(acc, mul(a, b))
        return acc

    m = len(C)
    cols = list(zip(*C))
    chi = [1]
    for i in range(m - 1, -1, -1):
        R, c = C[i][i + 1:], cols[i][i + 1:]
        col = [1, neg(C[i][i])]
        for j in range(m - 1 - i):
            if j:
                c = [dot(row[i + 1:], c) for row in C[i + 1:]]
            col.append(neg(dot(R, c)))
        new = [1]
        for k in range(1, len(chi) + 1):                  # col[0] = chi[0] = 1
            acc = add(col[k], chi[k]) if k < len(chi) else col[k]
            for j in range(1, min(k, len(chi))):
                acc = add(acc, mul(col[k - j], chi[j]))
            new.append(acc)
        chi = new
    return chi


def reduced_norm(ctx: TowerCtx, f: SkewPoly) -> SkewPoly:
    """chi_f, the characteristic polynomial of y = t^n acting on R/Rf.

    y is central, so left multiplication by y is K-linear on M = R/Rf; its
    matrix C_f in the basis 1, t, ..., t^(m-1) has row i = t^(i+n) mod_r f,
    and chi_f = det(y - C_f) (`_berkowitz`).  It lies in F_q[y]: on a
    simple factor of M where t acts invertibly, t is a sigma-semilinear
    bijection commuting with y, so chi = sigma(chi); where t does not, it acts
    as 0 (ker t is a submodule, as tR = Rt), so chi = y^d.  The result is a
    monic tuple of degree m, low degree first, with codes in F_q.
    """
    if not is_monic(f):
        raise NotMonic("reduced norm requires a monic polynomial")
    if degree(f) < 1:
        raise DegreeZero("constant polynomials are units")
    K = ctx.field
    chi = tuple(_berkowitz(t_powers(ctx, f, ctx.n + degree(f))[ctx.n:],
                           K.add, K.mul, K.neg)[::-1])
    assert all(ctx.in_fixed_field(c) for c in chi), \
        f"reduced norm of {f} has a coefficient outside F_q"
    return chi


def is_irreducible(ctx: TowerCtx, f: SkewPoly) -> bool:
    """chi_f = reduced_norm(f) is irreducible over F_q.

    Why this decides it.  The monic right divisors h of f are the quotients
    R/Rh of the module M = R/Rf, so f is irreducible iff M is simple (has
    length 1).  chi is multiplicative along a composition series of M, so
    chi_f is the product of the chi of its simple factors S.  On S, y acts
    through an irreducible h(y) in F_q[y] (End_R(S) is a division ring), so
    S is a simple module of R/R h(y) = M_n(F_q[y]/h) (for h = y: of R/Rt) and
    has K-dimension d = deg h; chi_S lies in F_q[y] (see reduced_norm) and
    divides a power of h, so chi_S = h.  Hence chi_f has as many irreducible
    factors as M has composition factors, and it is irreducible iff f is.
    """
    return poly_is_irreducible(ctx.field, reduced_norm(ctx, f), ctx.q)


def is_right_invariant(ctx: TowerCtx, f: SkewPoly) -> bool:
    """Rf is two-sided iff it is closed under right multiplication by the
    ring generators t and a primitive z of K, i.e. f t and f z lie in Rf.
    In closed form (f of degree m): iff f_i = 0 wherever i != m mod n and
    every f_i lies in F_q.  f z - sigma^m(z) f = sum_(i<m) f_i (sigma^i(z) -
    sigma^m(z)) t^i is its own remainder, zero iff f_i = 0 wherever
    i != m mod n (z is primitive, so sigma^i(z) = sigma^m(z) iff n | i - m).
    Then f_(m-1) = 0 or n = 1, so f t - t f = sum_(i<m-1) (f_i - sigma(f_i))
    t^(i+1) has degree < m: it is its own remainder, zero iff every f_i is
    fixed by sigma."""
    if not is_monic(f):
        raise NotMonic("right-invariance test requires a monic polynomial")
    start, off = degree(f) % ctx.n, list(f)
    del off[start::ctx.n]                                 # the f_i, i != m mod n
    return not any(off) and all(map(ctx.in_fixed_field, f[start::ctx.n]))


def is_admissible(ctx: TowerCtx, f: SkewPoly) -> bool:
    """Monic, degree >= 2, irreducible and not right-invariant: exactly the
    f for which S_f is a proper semifield."""
    return (is_monic(f) and degree(f) >= 2
            and is_irreducible(ctx, f) and not is_right_invariant(ctx, f))


def reduced_norms(ctx: TowerCtx, F) -> np.ndarray:
    """chi_f for every row f of F, an (#f, m+1) array of monic codes (low
    degree first): `reduced_norm` run once on code arrays, a coefficient
    being the column of its codes over all f."""
    K = ctx.field
    F = np.asarray(F, dtype=np.int64)
    m = F.shape[1] - 1
    if m < 1:
        raise DegreeZero("constant polynomials are units")
    if not (F[:, m] == 1).all():
        raise NotMonic("reduced norm requires a monic polynomial")
    neg = partial(K.mul_array, K.p - 1)                   # -1 is the digit p - 1
    sig = K.pow_array(np.arange(K.order), ctx.q)          # x -> x^q as a table
    rows = _t_rows(F.T, ctx.n + m, K.add_array, neg,
                   lambda b, c, _: K.mul_array(b, sig[c]), lambda a, _: sig[a], ctx.q)
    chi = _berkowitz(rows[ctx.n:], K.add_array, K.mul_array, neg)[::-1]
    chi = np.stack([np.broadcast_to(c, len(F)) for c in chi], axis=1)
    assert (sig[chi] == chi).all(), \
        "a reduced norm has a coefficient outside F_q"
    return chi


def irreducible_norms(ctx: TowerCtx, chi: np.ndarray) -> np.ndarray:
    """Which rows of a chi array (from `reduced_norms`) are irreducible over
    F_q: one `poly_is_irreducible` per distinct row, of which there are at
    most q^m however many rows there are.  Rows are ranked one column at a
    time, so no key exceeds #rows * |K|."""
    key = np.zeros(len(chi), dtype=np.int64)
    for col in chi.T[:-1]:                                # the last is 1
        _, first, key = np.unique(key * ctx.field.order + col,
                                  return_index=True, return_inverse=True)
    verdict = [poly_is_irreducible(ctx.field, h, ctx.q) for h in chi[first].tolist()]
    return np.array(verdict, dtype=bool)[key]


_ENUMERATE_CHUNK = 2 ** 14


def enumerate_admissible(ctx: TowerCtx, m: int) -> Iterator[SkewPoly]:
    """All monic degree-m admissible f, in lexicographic coefficient order.
    The |K|^m candidates go through `reduced_norms` a chunk at a time, and
    only the irreducible ones through the right-invariance test."""
    if m < 2:
        raise ValueError("admissible polynomials have degree at least 2")
    total = ctx.field.order ** m
    for start in range(0, total, _ENUMERATE_CHUNK):
        F = monic_rows(ctx.field.order, m,
                       np.arange(start, min(start + _ENUMERATE_CHUNK, total)))
        F = F[irreducible_norms(ctx, reduced_norms(ctx, F))]
        yield from (f for f in map(tuple, F.tolist()) if not is_right_invariant(ctx, f))


# ---------------------------------------------------------------------------
# textual syntax:  t^2 - g^5*t - [1,0]

def parse_poly(ctx: TowerCtx, text: str) -> SkewPoly:
    """Parse a polynomial literal like 't^2 - g^5*t - [1,0]'."""
    from .gf import parse_element

    K = ctx.field
    # a sign starts a term unless it follows "^" (g^-1) or sits in a list
    terms = re.split(r"(?<![\^\[,])(?=[+-])", text.replace(" ", ""))
    coeffs: dict[int, int] = {}
    for term in filter(None, terms):
        negate = term.startswith("-")
        term = term.lstrip("+-")
        if "t" in term:
            coeff_s, _, pow_s = term.partition("t")
            coeff_s = coeff_s.rstrip("*")
            exp = int(pow_s[1:]) if pow_s.startswith("^") else 1
            if exp < 0:
                raise ValueError(f"negative power of t in {text!r}")
            c = parse_element(K, coeff_s) if coeff_s else 1
        else:
            exp = 0
            c = parse_element(K, term)
        if negate:
            c = K.neg(c)
        coeffs[exp] = K.add(coeffs.get(exp, 0), c)
    deg = max(coeffs, default=-1)
    return poly([coeffs.get(i, 0) for i in range(deg + 1)])


def format_poly(ctx: TowerCtx, f: SkewPoly, var: str = "t") -> str:
    K = ctx.field
    if not f:
        return "0"
    parts = []
    for i in range(degree(f), -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(K.format_element(c))
        else:
            tp = var if i == 1 else f"{var}^{i}"
            parts.append(tp if c == 1 else f"{K.format_element(c)}*{tp}")
    return " + ".join(parts)


def poly_json(ctx: TowerCtx, f: SkewPoly) -> dict:
    return {"deg": degree(f), "coeffs": [ctx.field.format_element(c) for c in f]}
