"""The twisted polynomial ring R = K[t;sigma].

A skew polynomial is a tuple of field-element codes, low degree first,
with no trailing zeros; the zero polynomial is the empty tuple.  The
degree of zero is treated as -1 in comparisons (a sentinel for -infinity).
Multiplication twists coefficients past t: t*a = sigma(a)*t.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .gf import TowerCtx

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


def one() -> SkewPoly:
    return (1,)


def t_power(i: int) -> SkewPoly:
    return (0,) * i + (1,)


def skew_add(ctx: TowerCtx, f: SkewPoly, g: SkewPoly) -> SkewPoly:
    K = ctx.field
    n = max(len(f), len(g))
    return poly([K.add(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0)
                 for i in range(n)])


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


def is_irreducible(ctx: TowerCtx, f: SkewPoly) -> bool:
    """No monic right divisor of degree 1 <= d <= deg(f)/2.

    Why half the degree suffices.  The monic right divisors h of f are the
    quotients R/Rh of the module M = R/Rf, of K-dimension deg(h), and h is
    irreducible iff R/Rh is simple.  So f (degree m) is reducible iff M has
    length >= 2, and then M has a simple quotient of dimension <= m/2:
    - M is the direct sum of its primary parts over the centre F_q[y],
      y = t^n.  With two or more parts, one has dimension <= m/2; it is a
      quotient of M, and so is any simple quotient of it.
    - With one part, killed by a power of a prime h(y), every composition
      factor is a simple module killed by h, and there is only one up to
      isomorphism: R/R h(t^n) = M_n(F_q[y]/h) is simple for h != y, and
      for h = y, t spans the two-sided ideal Rt = tR, so t acts as 0 on a
      simple module and it is R/Rt.  All factors then have dimension
      m/length <= m/2, the simple top of M among them.
    A simple quotient of dimension d is R/Rh for a monic irreducible right
    divisor h of degree d, so testing remainder zero against the q^(n d)
    monic candidates of each degree d <= m/2 decides irreducibility.
    """
    if not is_monic(f):
        raise NotMonic("irreducibility test requires a monic polynomial")
    m = degree(f)
    if m < 1:
        raise DegreeZero("constant polynomials are units")
    K = ctx.field
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(K.order), repeat=d):
            cand = tail + (1,)
            if not right_rem(ctx, f, cand):
                return False
    return True


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


def format_poly(ctx: TowerCtx, f: SkewPoly) -> str:
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
            tp = "t" if i == 1 else f"t^{i}"
            parts.append(tp if c == 1 else f"{K.format_element(c)}*{tp}")
    return " + ".join(parts)


def poly_json(ctx: TowerCtx, f: SkewPoly) -> dict:
    return {"deg": degree(f), "coeffs": [ctx.field.format_element(c) for c in f]}
