"""Counting and classification: central irreducibles, orbit counts, class
counts of nonassociative cyclic algebras, similarity partitions, Sandler
existence, and assembled bound reports.

M(q,m) and the class count of t^m - a are orbit counts of one group family
on the elements of degree m in F_(q^m), each a Burnside sum of gcds
(`orbit_count`) with no size cap.  The class count is also read from the
field's log tables up to 2^16 and asserted equal.  The enumeration of
GammaL(1,q)-orbits that M(q,m) came from is now a test oracle; the sieve of
the irreducibles stays as the enumeration of N(q,m) up to 2^16.

Counts live over the center F_q[y] = F_q[t^n; sigma], so most arithmetic here
is plain (untwisted) polynomial arithmetic over F_q with q = p^r.  Similarity
is read from the reduced norm, so the module builds no semifield and imports
only `gf` and `skewpoly`.  A tower keeps one irreducibility verdict per
reduced norm, so a scan over many f runs one Rabin test per distinct chi_f,
and the searches for a field's modulus and primitive element are cached in
`gf`, so every tower over one F_(p^l) shares them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

import numpy as np

from . import skewpoly as sp
from .gf import (FieldCtx, SizeCapExceeded, TowerCtx, factorint, isprime, mobius,
                 monic_rows, primefactors)

CLASSIFY_LIMIT = 2 ** 16
_SUPERSCRIPT = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


class FormulaMismatch(AssertionError):
    pass


class PreconditionViolated(ValueError):
    pass


def _prime_power(q: int) -> tuple[int, int]:
    fac = factorint(q)
    if len(fac) != 1:
        raise PreconditionViolated(f"{q} is not a prime power")
    (p, r), = fac.items()
    return p, r


def _subfields(m: int) -> list[tuple[int, int]]:
    """(mu(d), m/d) for the squarefree d | m, d = 1 first: by
    inclusion-exclusion over the maximal subfields F_(q^(m/l)), l | m prime,
    a count over F_(q^m) less its proper subfields is the sum of mu(d) times
    the count over F_(q^(m/d))."""
    out = [(1, m)]
    for ell in primefactors(m):
        out += [(-mu, e // ell) for mu, e in out]
    return out


def theta(q: int, m: int) -> int:
    """Elements of F_{q^m} lying in a proper subfield, by inclusion-exclusion
    over the maximal subfields F_{q^{m/l}} for primes l | m."""
    _prime_power(q)
    if m < 2:
        raise PreconditionViolated("m >= 2 required")
    return -sum(mu * q ** e for mu, e in _subfields(m)[1:])


def count_central_irreducible(q: int, m: int) -> int:
    """N(q,m) via the Moebius sum, cross-checked against (q^m - theta)/m."""
    by_mobius = sum(mobius(l) * q ** (m // l)
                    for l in range(1, m + 1) if m % l == 0) // m
    num = q ** m - theta(q, m)
    if num % m or num // m != by_mobius:
        raise FormulaMismatch(
            f"N({q},{m}): Moebius sum {by_mobius} vs (q^m-theta)/m = {num}/{m}")
    return by_mobius


def enumerate_irreducible(K: FieldCtx, m: int) -> np.ndarray:
    """Monic irreducible degree-m polynomials over F_q by a product sieve:
    mark every monic product (irreducible g of degree e <= d/2) * (monic
    cofactor), all g of one degree against all cofactors at once.  Only
    degree m and the degrees up to m/2 its factors can have are sieved, and
    the coefficient arithmetic goes through q x q addition and
    multiplication tables, flattened so that a x b is entry a q + b (the
    callers' CLASSIFY_LIMIT keeps q <= 256), gathered with `take`.  A
    product's index is its coefficients read by Horner steps.  Rows of
    codes, low degree first, in itertools.product order."""
    q = K.order
    codes = np.arange(q)
    add = K.add_array(codes[:, None], codes).ravel().astype(np.int32)
    mul = K.mul_array(codes[:, None], codes).ravel().astype(np.int32)
    irr_by_deg: dict[int, np.ndarray] = {}
    for d in [*range(1, m // 2 + 1), m]:
        composite = np.zeros(q ** d, dtype=bool)
        for e in range(1, d // 2 + 1):
            g = q * irr_by_deg[e][:, None, :, None].astype(np.int32)
            h = monic_rows(q, d - e, np.arange(q ** (d - e))).astype(np.int32)
            prod = np.zeros((len(g), len(h), d + 1), dtype=np.int32)
            prod[:, :, e:] = h                  # g is monic: start from y^e h
            for i in range(e):
                window = prod[:, :, i:i + d - e + 1]
                window[:] = add.take(q * window + mul.take(g[:, :, i] + h))
            key = prod[:, :, 0]                 # c0 is the most significant digit
            for i in range(1, d):
                key = key * q + prod[:, :, i]
            composite[key] = True
        irr_by_deg[d] = monic_rows(q, d, np.flatnonzero(~composite))
    return irr_by_deg[m]


def count_irreducible_enum(q: int, m: int) -> int:
    """Enumeration oracle for N(q,m); q^m <= 2^16."""
    if q ** m > CLASSIFY_LIMIT:
        raise SizeCapExceeded(f"q^m = {q**m} exceeds {CLASSIFY_LIMIT}")
    p, r = _prime_power(q)
    K = FieldCtx.create(p, r)
    return len(enumerate_irreducible(K, m))


def orbit_count(q: int, m: int, step: int) -> int:
    """Orbits of G_step = {x -> lambda x^(p^i) : lambda in F_q^x, step | i < rm}
    (q = p^r, step | rm) on X_m, the elements of F_(q^m) of degree m over F_q.
    Step 1 gives M(q,m): a monic irreducible h of degree m is a Frob_q-orbit
    of roots in X_m, and h -> lambda^-m h^rho(lambda y) sends a root alpha to
    rho(alpha)/lambda.  Step r gives the classes a ~ k sigma^i(a) of
    `cyclic_algebra_classes`, as sigma = Frob_q.

    By Burnside's lemma (W. Burnside, Theory of Groups of Finite Order, 1897)
    the orbits are the mean count of fixed points over the (q-1) rm/step
    maps.  X_m is F_(q^m)^x less the subgroups F_(q^(m/l))^x, l | m prime,
    so a count over X_m is the sum over squarefree d | m of mu(d) times the
    count over F_(q^e)^x, e = m/d (`_subfields`).  Take logarithms y = h^Y,
    Y mod q^e - 1, for a generator h of F_(q^e)^x, put t = (q^e - 1)/(q - 1)
    and lambda = h^(j t), j mod q - 1: then lambda y^(p^i) = y iff
    (p^i - 1) Y = -j t (mod q^e - 1).  Summed over lambda, each Y with
    (p^i - 1) Y = 0 (mod t) meets exactly one j, since q^e - 1 = t (q - 1),
    and no other Y meets any; that condition reads Y mod t alone, so
    (q - 1) gcd(p^i - 1, t) values of Y qualify (gcd(0, t) = t at i = 0).
    The factor q - 1 cancels against |F_q^x|:

        orbits = step/(rm) sum_(step | i < rm) sum_d mu(d) gcd(p^i - 1, t_(m/d)),

    rm 2^omega(m)/step gcds.  Asserted: the sum is a multiple of rm/step, and
    the sandwich |X_m|/(m r (q-1)) <= orbits <= |X_m|/m (an orbit has at most
    |G_1| members and holds whole Frob_q-orbits, each of m members)."""
    p, r = _prime_power(q)
    if r * m % step:
        raise PreconditionViolated(f"step {step} does not divide rm = {r * m}")
    maps = r * m // step
    admissible = q ** m - theta(q, m)
    total = sum(mu * gcd(p ** i - 1, (q ** e - 1) // (q - 1))
                for i in range(0, r * m, step) for mu, e in _subfields(m))
    assert total % maps == 0, (
        f"Burnside sum {total} at (q, m, step) = ({q}, {m}, {step}) is no multiple of {maps}")
    orbits = total // maps
    assert admissible <= orbits * m * r * (q - 1) and orbits * m <= admissible, (
        f"{orbits} orbits at (q, m, step) = ({q}, {m}, {step}) violate the sandwich bounds")
    return orbits


def gammaL_orbit_count(q: int, m: int) -> int:
    """M(q,m): orbits of GammaL(1,q) = {(lambda, rho)} acting on the central
    irreducibles by f^{(lambda,rho)}(y) = lambda^{-m} f^rho(lambda y); the
    step-1 `orbit_count`."""
    return orbit_count(q, m, 1)


def numb_bound(q: int, m: int) -> Optional[int]:
    """Upper bound on isomorphism classes of degree-m nonassociative cyclic
    algebras; None when neither case applies."""
    if (q - 1) % m != 0:
        num = q ** m - q
        return num // (m * (q - 1))
    if isprime(m):
        num = q ** m - q - (q - 1) * (m - 1)
        return m - 1 + num // (m * (q - 1))
    return None


def cyclic_algebra_classes(tower: TowerCtx) -> tuple[int, list[int]]:
    """Isomorphism classes of (K/F, sigma, a), m = n: a ranges over elements
    in no proper subfield of K/F, modulo a ~ k*sigma^i(a) for k in F^x.

    In logarithms a = g^x, x mod |K|-1: a lies in F_(q^e) iff
    (|K|-1)/(q^e-1) divides x, F^x = <g^s> with s = (|K|-1)/(q-1) moves x
    by multiples of s, and sigma^i sends x to q^i x.  Every (|K|-1)/(q^e-1)
    divides s, so a class is a set of residues x mod s closed under
    x -> q x: the least code of each F^x-coset is one min over a
    (q-1) x s reshape of the exp table, and a class is represented by the
    least of those minima along its sigma-orbit."""
    K = tower.field
    q, m, n1 = tower.q, tower.n, K.order - 1
    if K.order > CLASSIFY_LIMIT:
        raise SizeCapExceeded(f"|K| = {K.order} exceeds {CLASSIFY_LIMIT}")
    s = n1 // (q - 1)
    coset_min = K.exp_array.reshape(q - 1, s).min(axis=0)
    x = np.arange(s)
    admissible = np.all([x % (n1 // (q ** e - 1)) != 0
                         for e in range(1, m) if m % e == 0], axis=0)
    orbits = np.array([pow(q, i, s) for i in range(m)])[:, None] * x[admissible] % s
    assert admissible[orbits].all(), "sigma moves an admissible a into a subfield"
    reps = sorted(set(coset_min[orbits].min(axis=0).tolist()))
    burnside = orbit_count(q, m, tower.r)
    assert len(reps) == burnside, (
        f"F_{K.order}/F_{q}: {len(reps)} classes, but the Burnside count is {burnside}")
    bound = numb_bound(q, m)
    if bound is not None:
        assert len(reps) <= bound, (
            f"F_{K.order}/F_{q}: {len(reps)} classes exceed numb_bound({q}, {m}) = {bound}; "
            + _burnside_text(K, q, m))
    return len(reps), reps


def _burnside_text(K: FieldCtx, q: int, m: int) -> str:
    """The Burnside sum of the class count over F_q < K, m = [K:F_q], naming
    each map a -> lambda sigma^k(a) but the identity that fixes admissible a,
    with its count.  For lambda = g^(j s), as in `orbit_count`, the fixed a
    in F_(q^e)^x solve (q^k - 1) Y = -j t (mod q^e - 1): q^gcd(k, e) - 1 =
    gcd(q^k - 1, q^e - 1) solutions when that gcd divides j t, none
    otherwise.  A map with k = 0 and lambda != 1 fixes nothing, so every map
    named has k >= 1."""
    s, group = (K.order - 1) // (q - 1), (q - 1) * m
    counts, maps = [], []
    for j in range(q - 1):
        for k in range(m):
            fixed = sum(mu * (q ** gcd(k, e) - 1) for mu, e in _subfields(m)
                        if j * (q ** e - 1) // (q - 1) % (q ** gcd(k, e) - 1) == 0)
            if fixed and (j or k):
                lam = K.exp[j * s]
                coef = "" if j == 0 else "−" if lam == K.neg(1) else f"{K.format_element(lam)}·"
                power = str(k).translate(_SUPERSCRIPT) if k > 1 else ""
                maps.append(f"x ↦ {coef}σ{power}(x) fixes {fixed} admissible a")
            if fixed:
                counts.append(fixed)
    return (f"{', '.join(maps)}: ({' + '.join(map(str, counts))})/{group} "
            f"= {sum(counts) // group}")


def similarity_classes(tower: TowerCtx, m: int,
                       fs: Sequence[sp.SkewPoly]) -> list[list[sp.SkewPoly]]:
    """Partition of the monic irreducible degree-m fs under similarity.

    Irreducible f and g are similar iff R/Rf = R/Rg iff chi_f = chi_g: both
    are then the simple module of R/R chi(y) = M_n(F_q[y]/chi) (of R/Rt for
    chi = y), which has only one.  So the classes are the fibres of the
    reduced norm, members in input order, classes ordered by first member.
    The fs are checked in input order, and the first that is not monic of
    degree m, or is reducible, raises ValueError."""
    fs = list(fs)
    good = next((i for i, f in enumerate(fs)
                 if sp.degree(f) != m or not sp.is_monic(f)), len(fs))
    groups: dict[tuple[int, ...], list[sp.SkewPoly]] = {}
    if good:
        chi = sp.reduced_norms(tower, np.array(fs[:good], dtype=np.int64))
        irreducible = sp.irreducible_norms(tower, chi)
        if not irreducible.all():
            raise ValueError(f"{fs[int(np.argmin(irreducible))]} is reducible: "
                             "similarity by reduced norm needs irreducible f")
        for f, h in zip(fs, chi.tolist()):
            groups.setdefault(tuple(h), []).append(f)
    if good < len(fs):
        if sp.degree(fs[good]) != m:
            raise ValueError(f"{fs[good]} does not have degree {m}")
        raise sp.NotMonic("reduced norm requires a monic polynomial")
    return sorted(groups.values(), key=lambda g: g[0])


def sandler_exists(p: int, r: int, l: int, m: int) -> tuple[bool, list[int]]:
    """gcd criterion for existence of a = alpha^u making t^m - a a proper
    semifield over F_{p^l}; returns (exists, admissible exponents mod p^l-1)."""
    if l % r != 0:
        raise PreconditionViolated("r must divide l")
    if not isprime(m) or (m not in (2, 3) and (p ** r - 1) % m != 0):
        raise PreconditionViolated("m must be prime dividing p^r - 1 (or 2, 3)")
    exists = gcd((p ** l - 1) * (p ** r - 1), p ** (m * r) - 1) > p ** r - 1
    s = (p ** (m * r) - 1) // (p ** r - 1)
    d = gcd(s, p ** l - 1)
    admissible = [u for u in range(p ** l - 1) if u % d != 0] if exists else []
    return exists, admissible


def kantor_bound(q: int, n: int, m: int) -> float:
    size = q ** (n * m)
    try:
        return size * math.sqrt(math.log2(size))
    except OverflowError:
        raise OverflowError(
            f"kantor_bound q^(nm) sqrt(log2 q^(nm)) is beyond float range at "
            f"q^(nm) = {q}^{n * m}; it needs q^(nm) below about 2^1019") from None


@dataclass
class CensusReport:
    q: int
    n: int
    m: int
    r: int
    n_qm: Optional[int] = None
    m_qm: Optional[int] = None
    sandwich_low: float = 0.0
    sandwich_high: float = 0.0
    numb: Optional[int] = None
    kantor: float = 0.0
    observed_classes: Optional[int] = None
    representatives: list[int] = field(default_factory=list)

    def json(self) -> dict:
        return {
            "q": self.q, "n": self.n, "m": self.m,
            "N": self.n_qm, "M": self.m_qm,
            "M_sandwich": [self.sandwich_low, self.sandwich_high],
            "numb_bound": self.numb,
            "kantor_bound": self.kantor,
            "observed_classes": self.observed_classes,
            "representatives": self.representatives,
        }


def bounds_report(q: int, n: int, m: int,
                  tower: Optional[TowerCtx] = None) -> CensusReport:
    """Assemble N, M (exact when q^m is small), the class-count bound, the
    Kantor bound, and observed class counts (n = m with a tower supplied).
    An exact M above its sandwich or a class count above the class-count
    bound fails the assertion in the function that counts it."""
    if n < 2:
        raise PreconditionViolated(f"n >= 2 required, got n = {n}")
    p, r = _prime_power(q)
    th = theta(q, m)
    try:
        low = (q ** m - th) / (m * r * (q - 1))
    except OverflowError:
        raise OverflowError(
            f"sandwich_low (q^m - theta)/(m r (q-1)) is beyond float range at "
            f"q^m = {q}^{m}; it needs q^m below 2^1024") from None
    rep = CensusReport(q=q, n=n, m=m, r=r,
                       sandwich_low=low,
                       sandwich_high=(q ** m - th) // m,
                       numb=numb_bound(q, m) if n == m else None,
                       kantor=kantor_bound(q, n, m))
    rep.n_qm = count_central_irreducible(q, m)
    rep.m_qm = gammaL_orbit_count(q, m)
    if tower is not None and n == m and tower.n == m:
        rep.observed_classes, rep.representatives = cyclic_algebra_classes(tower)
    return rep
