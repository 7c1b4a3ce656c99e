"""The twisted polynomial ring R = K[t;sigma].

A skew polynomial is a tuple of field-element codes, low degree first,
with no trailing zeros; the zero polynomial is the empty tuple.  The
degree of zero is treated as -1 in comparisons (a sentinel for -infinity).
Multiplication twists coefficients past t: t*a = sigma(a)*t.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .gf import TowerCtx, poly_is_irreducible

SkewPoly = tuple  # tuple of K element codes, low degree first, trimmed


class DivisionByZeroPoly(ZeroDivisionError):
    pass


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


def t_power(i: int) -> SkewPoly:
    return (0,) * i + (1,)


def skew_mul(ctx: TowerCtx, f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """(a t^i)(b t^j) = a sigma^i(b) t^(i+j)."""
    if not f or not g:
        return ()
    K = ctx.field
    sig = ctx._sigma
    n = ctx.n
    res = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        si = sig[i % n]
        for j, b in enumerate(g):
            if b:
                res[i + j] = K.add(res[i + j], K.mul(a, si[b]))
    return poly(res)


def scalar_mul(ctx: TowerCtx, c: int, f: SkewPoly) -> SkewPoly:
    K = ctx.field
    if c == 0:
        return ()
    return tuple(K.mul(c, a) for a in f)


def right_divmod(ctx: TowerCtx, g: SkewPoly, f: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Unique (q, r) with g = q*f + r and deg(r) < deg(f)."""
    if not f:
        raise DivisionByZeroPoly("right division by the zero polynomial")
    K = ctx.field
    sig = ctx._sigma
    n = ctx.n
    df = len(f) - 1
    rem = list(g)
    qcoeffs = [0] * max(len(g) - df, 0)
    f_lead = f[-1]
    while len(rem) - 1 >= df and rem:
        d = len(rem) - 1 - df
        # leading term c t^d with (c t^d)(f_lead t^df) = c sigma^d(f_lead) t^(deg)
        c = K.div(rem[-1], sig[d % n][f_lead])
        qcoeffs[d] = c
        sd = sig[d % n]
        for i, fi in enumerate(f):
            if fi:
                rem[i + d] = K.sub(rem[i + d], K.mul(c, sd[fi]))
        while rem and rem[-1] == 0:
            rem.pop()
    return poly(qcoeffs), tuple(rem)


def right_rem(ctx: TowerCtx, g: SkewPoly, f: SkewPoly) -> SkewPoly:
    return right_divmod(ctx, g, f)[1]


def make_monic(ctx: TowerCtx, f: SkewPoly) -> SkewPoly:
    """Normalize by a left unit; S_f = S_{af} so this loses nothing."""
    if not f:
        return f
    if f[-1] == 1:
        return f
    return scalar_mul(ctx, ctx.field.inv(f[-1]), f)


def reduced_norm(ctx: TowerCtx, f: SkewPoly) -> SkewPoly:
    """chi_f, the characteristic polynomial of y = t^n acting on R/Rf.

    y is central, so left multiplication by y is K-linear on M = R/Rf; its
    matrix C_f in the basis 1, t, ..., t^(m-1) has row i = t^(i+n) mod_r f.
    chi_f is read off a Hessenberg form of C_f.  It lies in F_q[y]: on a
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
    mul, add = K.mul, K.add
    m, n = degree(f), ctx.n
    sig = ctx._sigma[1 % n]
    tail = [K.neg(c) for c in f[:-1]]                     # t^m = tail mod_r f
    rows, r = [], [1] + [0] * (m - 1)                     # r = t^k mod_r f
    for k in range(n + m - 1):
        if k >= n:
            rows.append(r)
        top = sig[r[-1]]                                  # t r = sigma(r) shifted
        r = [0] + [sig[a] for a in r[:-1]]
        if top:
            r = [add(a, mul(top, b)) for a, b in zip(r, tail)]
    rows.append(r)
    chi = _charpoly(K, rows)
    assert all(sig[c] == c for c in chi), f"reduced norm of {f} has a coefficient outside F_q"
    return chi


def _charpoly(K, H: list[list[int]]) -> SkewPoly:
    """det(y - H) over K.  H (overwritten) is brought to upper Hessenberg
    form by elementary similarities; then the characteristic polynomials of
    its leading blocks satisfy p_(k+1) = (y - H_kk) p_k
    - sum_(i<k) H_ik (H_(i+1,i) ... H_(k,k-1)) p_i."""
    mul, add, neg = K.mul, K.add, K.neg
    m = len(H)
    for k in range(m - 2):
        piv = next((i for i in range(k + 1, m) if H[i][k]), None)
        if piv is None:
            continue
        if piv != k + 1:                                  # swap rows and columns
            H[piv], H[k + 1] = H[k + 1], H[piv]
            for row in H:
                row[piv], row[k + 1] = row[k + 1], row[piv]
        minus_inv = neg(K.inv(H[k + 1][k]))
        for i in range(k + 2, m):
            u = mul(H[i][k], minus_inv)
            if u:                                         # row i += u row k+1
                Hi, Hk = H[i], H[k + 1]                   # (both 0 left of k)
                for j in range(k, m):
                    if Hk[j]:
                        Hi[j] = add(Hi[j], mul(u, Hk[j]))
                u = neg(u)
                for row in H:                             # column k+1 -= u column i
                    if row[i]:
                        row[k + 1] = add(row[k + 1], mul(u, row[i]))
    ps = [[1]]
    for k in range(m):
        c = neg(H[k][k])                                  # (y - H_kk) p_k
        nxt = [add(a, mul(c, b)) for a, b in zip([0] + ps[k], ps[k] + [0])]
        prod = 1
        for i in range(k - 1, -1, -1):
            prod = mul(prod, H[i + 1][i])
            if not prod:
                break
            c = neg(mul(H[i][k], prod))
            if c:
                for j, b in enumerate(ps[i]):
                    nxt[j] = add(nxt[j], mul(c, b))
        ps.append(nxt)
    return tuple(ps[m])


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
    ring generators t and a generator z of K, i.e. f*t and f*z lie in Rf."""
    if not is_monic(f):
        raise NotMonic("right-invariance test requires a monic polynomial")
    K = ctx.field
    ft = skew_mul(ctx, f, t_power(1))
    if right_rem(ctx, ft, f):
        return False
    z = K.primitive
    fz = skew_mul(ctx, f, (z,))
    if right_rem(ctx, fz, f):
        return False
    return True


def is_admissible(ctx: TowerCtx, f: SkewPoly) -> bool:
    """Monic, degree >= 2, irreducible and not right-invariant: exactly the
    f for which S_f is a proper semifield."""
    return (is_monic(f) and degree(f) >= 2
            and is_irreducible(ctx, f) and not is_right_invariant(ctx, f))


def enumerate_admissible(ctx: TowerCtx, m: int) -> Iterator[SkewPoly]:
    """All monic degree-m admissible f, in lexicographic coefficient order."""
    if m < 2:
        raise ValueError("admissible polynomials have degree at least 2")
    K = ctx.field
    for tail in itertools.product(range(K.order), repeat=m):
        f = tail + (1,)
        if is_admissible(ctx, f):
            yield f


# ---------------------------------------------------------------------------
# textual syntax:  t^2 - g^5*t - [1,0]

def parse_poly(ctx: TowerCtx, text: str) -> SkewPoly:
    """Parse a polynomial literal like 't^2 - g^5*t - [1,0]'."""
    from .gf import parse_element

    K = ctx.field
    text = text.replace("-", "+-").replace(" ", "")
    terms = [s for s in text.split("+") if s]
    coeffs: dict[int, int] = {}
    for term in terms:
        negate = term.startswith("-")
        if negate:
            term = term[1:]
        if "t" in term:
            coeff_s, _, pow_s = term.partition("t")
            coeff_s = coeff_s.rstrip("*")
            exp = int(pow_s[1:]) if pow_s.startswith("^") else 1
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
