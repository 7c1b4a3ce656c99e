"""Counting and classification: central irreducibles, orbit counts, class
counts of nonassociative cyclic algebras, similarity partitions, Sandler
existence, and assembled bound reports.

Counts live over the center F_q[y] = F_q[t^n; sigma], so most arithmetic here
is plain (untwisted) polynomial arithmetic over F_q with q = p^r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import gcd
from typing import Optional, Sequence

import numpy as np
from sympy import factorint, mobius, primefactors

from . import skewpoly as sp
from .gf import FieldCtx, TowerCtx, apply_sigma
from .semifield import SemifieldCtx, annihilator

CLASSIFY_LIMIT = 2 ** 16


class FormulaMismatch(AssertionError):
    pass


class TooLarge(ValueError):
    pass


class PreconditionViolated(ValueError):
    pass


def _prime_power(q: int) -> tuple[int, int]:
    fac = factorint(q)
    if len(fac) != 1:
        raise PreconditionViolated(f"{q} is not a prime power")
    (p, r), = fac.items()
    return p, r


def theta(q: int, m: int) -> int:
    """Elements of F_{q^m} lying in a proper subfield, by inclusion-exclusion
    over the maximal subfields F_{q^{m/l}} for primes l | m."""
    _prime_power(q)
    if m < 2:
        raise PreconditionViolated("m >= 2 required")
    primes = primefactors(m)
    total = 0
    for mask in range(1, 1 << len(primes)):
        prod = 1
        for i, ell in enumerate(primes):
            if mask >> i & 1:
                prod *= ell
        sign = -1 if bin(mask).count("1") % 2 == 0 else 1
        total += sign * q ** (m // prod)
    return total


def count_central_irreducible(q: int, m: int) -> int:
    """N(q,m) via the Moebius sum, cross-checked against (q^m - theta)/m."""
    by_mobius = sum(int(mobius(l)) * q ** (m // l)
                    for l in range(1, m + 1) if m % l == 0) // m
    num = q ** m - theta(q, m)
    if num % m or num // m != by_mobius:
        raise FormulaMismatch(
            f"N({q},{m}): Moebius sum {by_mobius} vs (q^m-theta)/m = {num}/{m}")
    return by_mobius


# -- monic polynomials over F_q as rows of a code array (low degree first) --

def _monic_array(q: int, d: int) -> np.ndarray:
    """All q^d monic degree-d polynomials, row n in itertools.product order
    (c0 the most significant digit of n), with the leading 1 as last column."""
    digits = np.arange(q ** d)[:, None] // q ** np.arange(d - 1, -1, -1) % q
    return np.hstack([digits, np.ones((q ** d, 1), dtype=digits.dtype)])


def enumerate_irreducible(K: FieldCtx, m: int) -> list[tuple[int, ...]]:
    """Monic irreducible degree-m polynomials over F_q by a product sieve:
    mark every monic product (irreducible of degree <= m/2) * (monic cofactor),
    one irreducible g at a time against all cofactors at once."""
    q = K.order
    irr_by_deg: dict[int, np.ndarray] = {}
    for d in range(1, m + 1):
        composite = np.zeros(q ** d, dtype=bool)
        weights = q ** np.arange(d - 1, -1, -1)
        for e in range(1, d // 2 + 1):
            h = _monic_array(q, d - e)
            for g in irr_by_deg[e].tolist():
                prod = np.zeros((len(h), d + 1), dtype=np.int64)
                prod[:, e:] = h                 # g is monic: start from y^e h
                for i, c in enumerate(g[:e]):
                    if c:
                        window = prod[:, i:i + d - e + 1]
                        window[:] = K.add_array(window, K.mul_array(c, h))
                composite[prod[:, :d] @ weights] = True
        irr_by_deg[d] = _monic_array(q, d)[~composite]
    return list(map(tuple, irr_by_deg[m].tolist()))


def count_irreducible_enum(q: int, m: int) -> int:
    """Enumeration oracle for N(q,m); q^m <= 2^16."""
    if q ** m > CLASSIFY_LIMIT:
        raise TooLarge(f"q^m = {q**m} exceeds {CLASSIFY_LIMIT}")
    p, r = _prime_power(q)
    K = FieldCtx.create(p, r)
    return len(enumerate_irreducible(K, m))


def gammaL_orbit_count(q: int, m: int) -> int:
    """M(q,m): orbits of GammaL(1,q) = {(lambda, rho)} acting on the central
    irreducibles by f^{(lambda,rho)}(y) = lambda^{-m} f^rho(lambda y).

    The maps form a group, so the orbit of f is its image set: each map is
    applied to every irreducible at once, and an orbit is counted at its
    member of least index."""
    if q ** m > CLASSIFY_LIMIT:
        raise TooLarge(f"q^m = {q**m} exceeds {CLASSIFY_LIMIT}")
    p, r = _prime_power(q)
    K = FieldCtx.create(p, r)
    polys = np.array(enumerate_irreducible(K, m), dtype=np.int64)
    weights = q ** np.arange(m - 1, -1, -1)
    index = np.full(q ** m, -1, dtype=np.int64)
    index[polys[:, :m] @ weights] = np.arange(len(polys))
    least = np.arange(len(polys))
    for lam in range(1, q):
        # coefficient of y^i picks up lambda^{i-m}; rho is a Frobenius power
        scale = K.pow_array(lam, np.arange(m + 1) - m)
        for rho in range(r):
            images = K.mul_array(K.pow_array(polys, p ** rho), scale)
            j = index[images[:, :m] @ weights]
            assert (j >= 0).all(), "GammaL image of an irreducible is not irreducible"
            np.minimum(least, j, out=least)
    orbits = int(np.count_nonzero(least == np.arange(len(polys))))
    lo = (q ** m - theta(q, m)) / (m * r * (q - 1))
    hi = (q ** m - theta(q, m)) // m
    assert lo <= orbits <= hi, "GammaL orbit count violates the sandwich bounds"
    return orbits


def numb_bound(q: int, m: int) -> Optional[int]:
    """Upper bound on isomorphism classes of degree-m nonassociative cyclic
    algebras; None when neither case applies."""
    if (q - 1) % m != 0:
        num = q ** m - q
        return num // (m * (q - 1))
    if len(factorint(m)) == 1 and list(factorint(m).values()) == [1]:
        num = q ** m - q - (q - 1) * (m - 1)
        return m - 1 + num // (m * (q - 1))
    return None


def _in_proper_subfield(tower: TowerCtx, a: int) -> bool:
    """a inside some F_{q^e}, e | n, e < n (subfields of K containing F)."""
    n = tower.n
    for e in range(1, n):
        if n % e == 0 and apply_sigma(tower, a, e) == a:
            return True
    return False


def cyclic_algebra_classes(tower: TowerCtx) -> tuple[int, list[int]]:
    """Isomorphism classes of (K/F, sigma, a), m = n: a ranges over elements
    in no proper subfield of K/F, modulo a ~ k*sigma^i(a) for k in F^x."""
    K = tower.field
    m = tower.n
    if K.order > CLASSIFY_LIMIT:
        raise TooLarge(f"|K| = {K.order} exceeds {CLASSIFY_LIMIT}")
    admissible = [a for a in range(1, K.order) if not _in_proper_subfield(tower, a)]
    fixed = [c for c in tower.fixed_field_elements() if c != 0]
    seen: set[int] = set()
    reps: list[int] = []
    for a in admissible:
        if a in seen:
            continue
        orbit = {K.mul(k, apply_sigma(tower, a, i))
                 for k in fixed for i in range(m)}
        assert orbit <= set(admissible)
        seen |= orbit
        reps.append(min(orbit))
    q = tower.field.p ** tower.r
    bound = numb_bound(q, m)
    if bound is not None:
        assert len(reps) <= bound, "class count exceeds its stated upper bound"
    return len(reps), sorted(reps)


def similar(tower: TowerCtx, f: sp.SkewPoly, g: sp.SkewPoly) -> bool:
    """g*u = 0 mod_r f for some nonzero u of degree < deg(f): the kernel of
    the F_p-linear map u -> (g u mod_r f) is nonzero."""
    return bool(annihilator(SemifieldCtx(tower=tower, f=f), g))


def similarity_classes(tower: TowerCtx, m: int,
                       fs: Sequence[sp.SkewPoly]) -> list[list[sp.SkewPoly]]:
    """Partition of the monic irreducible degree-m fs under similarity.

    Irreducible f and g are similar iff R/Rf = R/Rg iff chi_f = chi_g: both
    are then the simple module of R/R chi(y) = M_n(F_q[y]/chi) (of R/Rt for
    chi = y), which has only one.  So the classes are the fibres of the
    reduced norm, members in input order, classes ordered by first member."""
    groups: dict[sp.SkewPoly, list[sp.SkewPoly]] = {}
    for f in fs:
        if sp.degree(f) != m:
            raise ValueError(f"{f} does not have degree {m}")
        chi = sp.reduced_norm(tower, f)
        if not sp.is_irreducible_central(tower, chi):
            raise ValueError(f"{f} is reducible: similarity by reduced norm "
                             "needs irreducible f")
        groups.setdefault(chi, []).append(f)
    return sorted(groups.values(), key=lambda g: g[0])


def sandler_exists(p: int, r: int, l: int, m: int) -> tuple[bool, list[int]]:
    """gcd criterion for existence of a = alpha^u making t^m - a a proper
    semifield over F_{p^l}; returns (exists, admissible exponents mod p^l-1)."""
    if l % r != 0:
        raise PreconditionViolated("r must divide l")
    if m not in (2, 3) and (len(factorint(m)) != 1 or (p ** r - 1) % m != 0):
        raise PreconditionViolated("m must be prime dividing p^r - 1 (or 2, 3)")
    exists = gcd((p ** l - 1) * (p ** r - 1), p ** (m * r) - 1) > p ** r - 1
    s = (p ** (m * r) - 1) // (p ** r - 1)
    d = gcd(s, p ** l - 1)
    admissible = [u for u in range(p ** l - 1) if u % d != 0] if exists else []
    return exists, admissible


def kantor_bound(q: int, n: int, m: int) -> float:
    size = q ** (n * m)
    return size * math.sqrt(math.log2(size))


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
    violations: list[str] = field(default_factory=list)

    def json(self) -> dict:
        return {
            "q": self.q, "n": self.n, "m": self.m,
            "N": self.n_qm, "M": self.m_qm,
            "M_sandwich": [self.sandwich_low, self.sandwich_high],
            "numb_bound": self.numb,
            "kantor_bound": self.kantor,
            "observed_classes": self.observed_classes,
            "representatives": self.representatives,
            "violations": self.violations,
        }


def bounds_report(q: int, n: int, m: int,
                  tower: Optional[TowerCtx] = None) -> CensusReport:
    """Assemble N, M (exact when q^m is small), the class-count bound, the
    Kantor bound, and observed class counts (n = m with a tower supplied)."""
    p, r = _prime_power(q)
    th = theta(q, m)
    rep = CensusReport(q=q, n=n, m=m, r=r,
                       sandwich_low=(q ** m - th) / (m * r * (q - 1)),
                       sandwich_high=(q ** m - th) // m,
                       numb=numb_bound(q, m) if n == m else None,
                       kantor=kantor_bound(q, n, m))
    rep.n_qm = count_central_irreducible(q, m)
    if q ** m <= CLASSIFY_LIMIT:
        rep.m_qm = gammaL_orbit_count(q, m)
    if tower is not None and n == m and tower.n == m:
        count, reps = cyclic_algebra_classes(tower)
        rep.observed_classes = count
        rep.representatives = reps
        if rep.numb is not None and count > rep.numb:
            rep.violations.append("observed classes exceed the class-count bound")
        if rep.m_qm is not None and rep.m_qm > rep.sandwich_high:
            rep.violations.append("M exceeds its upper sandwich bound")
    return rep
