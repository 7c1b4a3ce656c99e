"""Exact arithmetic in F_{p^l} together with the tower F_{p^r} <= F_{p^l}.

Elements are encoded as integers: the element with coordinate vector
(c0, c1, ..., c_{l-1}) w.r.t. the power basis of the modulus root is the
integer sum(c_i * p**i).  Zero is 0 and the multiplicative identity is 1.
All arithmetic goes through discrete-log tables (built eagerly for orders
up to 2**20), so single operations are O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from sympy import isprime

LOG_TABLE_LIMIT = 2 ** 20
ADD_TABLE_LIMIT = 4096


class NotPrime(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class NonPrimitiveModulusRoot(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers over Z/pZ (coefficient lists, low degree first)

def _pp_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pp_mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _pp_divmod(res, mod, p)[1]


def _pp_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    _pp_trim(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv_lead % p
        d = len(a) - 1 - db
        q[d] = c
        for i in range(db + 1):
            a[i + d] = (a[i + d] - c * b[i]) % p
        _pp_trim(a)
    return q, a


def _pp_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _pp_divmod(a, mod, p)[1]
    while e:
        if e & 1:
            result = _pp_mulmod(result, base, mod, p)
        base = _pp_mulmod(base, base, mod, p)
        e >>= 1
    return result


def _pp_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    _pp_trim(a)
    _pp_trim(b)
    while b:
        a, b = b, _pp_divmod(a, b, p)[1]
    return a


def _pp_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _pp_trim(out)


def poly_is_irreducible_zp(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over Z/pZ via the x^(p^d) distinct-degree criterion."""
    c = _pp_trim(list(coeffs))
    deg = len(c) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    x = [0, 1]
    if _pp_sub(_pp_powmod(x, p ** deg, c, p), x, p):
        return False
    for ell in _prime_divisors(deg):
        diff = _pp_sub(_pp_powmod(x, p ** (deg // ell), c, p), x, p)
        g = _pp_gcd(c, diff, p) if diff else c
        if len(g) - 1 >= 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------


@dataclass
class FieldCtx:
    """The finite field F_{p^l} with a fixed modulus and primitive element.

    The distinguished primitive element is the residue of x (the modulus
    root) whenever that root is primitive, which the default modulus
    guarantees.
    """

    p: int
    l: int
    modulus: tuple[int, ...]
    primitive: int
    order: int = field(init=False)
    exp: list[int] = field(init=False, repr=False)
    log: list[Optional[int]] = field(init=False, repr=False)
    _add_table: Optional[list[list[int]]] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        self.order = self.p ** self.l
        if self.order > LOG_TABLE_LIMIT:
            raise NotImplementedError("fields beyond 2^20 elements are out of scope")
        self._build_log_tables()
        if self.order <= ADD_TABLE_LIMIT:
            tbl = [[self._add_slow(a, b) for b in range(self.order)] for a in range(self.order)]
            self._add_table = tbl

    # -- construction ----------------------------------------------------

    @staticmethod
    def create(p: int, l: int, modulus: Optional[Sequence[int]] = None) -> "FieldCtx":
        if not isprime(p):
            raise NotPrime(f"{p} is not prime")
        if modulus is None:
            modulus = default_modulus(p, l)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != l + 1 or modulus[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {l}")
        if not poly_is_irreducible_zp(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over Z/{p}Z")
        if l == 1:
            prim = next(g for g in range(1, p) if _is_primitive_root(g, p))
        else:
            prim = _find_primitive(p, l, modulus)
        return FieldCtx(p=p, l=l, modulus=modulus, primitive=prim)

    def _build_log_tables(self) -> None:
        n1 = self.order - 1
        exp = [0] * n1
        log: list[Optional[int]] = [None] * self.order
        cur = 1
        for j in range(n1):
            exp[j] = cur
            if log[cur] is not None:
                raise NonPrimitiveModulusRoot(
                    "distinguished element is not primitive for this modulus")
            log[cur] = j
            cur = self._mul_slow(cur, self.primitive)
        if cur != 1:
            raise NonPrimitiveModulusRoot("primitive element order mismatch")
        self.exp = exp
        self.log = log

    # -- encode / decode -------------------------------------------------

    def coeffs(self, e: int) -> list[int]:
        out = []
        for _ in range(self.l):
            out.append(e % self.p)
            e //= self.p
        return out

    def encode(self, coeffs: Sequence[int]) -> int:
        e = 0
        for c in reversed(list(coeffs)):
            e = e * self.p + (c % self.p)
        return e

    def elements(self) -> Iterator[int]:
        return iter(range(self.order))

    # -- arithmetic ------------------------------------------------------

    def _add_slow(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        e, p = 0, self.p
        mult = 1
        for _ in range(self.l):
            e += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return e

    def add(self, a: int, b: int) -> int:
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_slow(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        e, p = 0, self.p
        mult = 1
        for _ in range(self.l):
            e += ((-a) % p) * mult
            a //= p
            mult *= p
        return e

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_slow(self, a: int, b: int) -> int:
        res = _pp_mulmod(self.coeffs(a), self.coeffs(b), self.modulus, self.p)
        return self.encode(res + [0] * (self.l - len(res)))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        la, lb = self.log[a], self.log[b]
        return self.exp[(la + lb) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self.exp[(-self.log[a]) % (self.order - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow_int(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("order of zero")
        n1 = self.order - 1
        j = self.log[a]
        from math import gcd
        return n1 // gcd(j, n1)

    def format_element(self, e: int) -> str:
        if e == 0:
            return "0"
        if e == 1:
            return "g^0"
        return f"g^{self.log[e]}"


def _find_primitive(p: int, l: int, modulus: Sequence[int]) -> int:
    """Smallest-code primitive element of Z/pZ[x]/(modulus); prefers x itself."""
    n1 = p ** l - 1
    fac = _prime_divisors(n1)

    def is_prim(code: int) -> bool:
        coeffs = []
        e = code
        for _ in range(l):
            coeffs.append(e % p)
            e //= p
        return all(_pp_powmod(coeffs, n1 // ell, modulus, p) != [1] for ell in fac)

    if is_prim(p):
        return p
    for code in range(2, p ** l):
        if code != p and is_prim(code):
            return code
    raise NonPrimitiveModulusRoot("no primitive element found (non-field modulus?)")


def _is_primitive_root(g: int, p: int) -> bool:
    n1 = p - 1
    return all(pow(g, n1 // ell, p) != 1 for ell in _prime_divisors(n1))


def default_modulus(p: int, l: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible degree-l polynomial over
    Z/pZ whose root is primitive (coefficients compared low-degree-first)."""
    import itertools

    if l == 1:
        # linear: x - g, smallest primitive root g
        for g in range(1, p):
            if p == 2 or _is_primitive_root(g, p):
                return ((-g) % p, 1)
    n1 = p ** l - 1
    fac = _prime_divisors(n1)
    for tail in itertools.product(range(p), repeat=l):
        coeffs = list(tail) + [1]
        if coeffs[0] == 0:
            continue
        if not poly_is_irreducible_zp(coeffs, p):
            continue
        # root x primitive <=> x^(n1/ell) != 1 for every prime ell | n1
        x = [0, 1]
        if all(_pp_powmod(x, n1 // ell, coeffs, p) != [1] for ell in fac):
            return tuple(coeffs)
    raise ReducibleModulus(f"no primitive irreducible of degree {l} over F_{p}")


# ---------------------------------------------------------------------------


@dataclass
class TowerCtx:
    """The tower F = F_{p^r} <= K = F_{p^l} with sigma(x) = x^(p^r) of order n."""

    field: FieldCtx
    r: int
    n: int
    q: int = field(init=False)
    _sigma: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        K = self.field
        self.q = K.p ** self.r
        n1 = K.order - 1
        tables = []
        for i in range(self.n):
            e = pow(K.p, self.r * i, n1) if n1 > 1 else 1
            tbl = [0] * K.order
            for a in range(1, K.order):
                tbl[a] = K.exp[(K.log[a] * e) % n1]
            tables.append(tbl)
        self._sigma = tables

    def sigma(self, a: int, i: int = 1) -> int:
        return self._sigma[i % self.n][a]

    def in_fixed_field(self, a: int) -> bool:
        return self._sigma[1 % self.n][a] == a

    def fixed_field_elements(self) -> list[int]:
        return [a for a in range(self.field.order) if self.in_fixed_field(a)]


def make_tower(p: int, r: int, n: int, modulus: Optional[Sequence[int]] = None) -> TowerCtx:
    """Build F_{p^r} <= F_{p^(n r)} with sigma(x) = x^(p^r)."""
    if not isprime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 2:
        raise ValueError("n must be at least 2")
    l = n * r
    K = FieldCtx.create(p, l, modulus)
    tower = TowerCtx(field=K, r=r, n=n)
    # sigma must have exact order n
    if any(tower.sigma(a, 0) != a for a in range(K.order)):
        raise AssertionError("sigma^0 is not the identity")
    # Fix(sigma) must have exactly p^r elements
    if K.order <= 2 ** 16:
        fixed = sum(1 for a in range(K.order) if tower.in_fixed_field(a))
        if fixed != p ** r:
            raise AssertionError(f"fixed field has {fixed} elements, expected {p ** r}")
    return tower


def apply_sigma(ctx: TowerCtx, x: int, i: int = 1) -> int:
    """sigma^i(x) = x^(p^(r i)); i is reduced mod n, negatives allowed."""
    return ctx.sigma(x, i % ctx.n)


def rel_norm(ctx: TowerCtx, x: int) -> int:
    """N_{K/F}(x) = prod_{i<n} sigma^i(x)."""
    K = ctx.field
    out = 1
    for i in range(ctx.n):
        out = K.mul(out, ctx.sigma(x, i))
    return out if x != 0 else 0


def norm_kernel(ctx: TowerCtx) -> tuple[int, int]:
    """A generator of ker(N_{K/F}) and its order s = (q^n - 1)/(q - 1).

    At finite-field scale Hilbert 90 gives the generator sigma(alpha)/alpha.
    """
    K = ctx.field
    s = (K.order - 1) // (ctx.q - 1)
    alpha = K.exp[1]
    g = K.div(ctx.sigma(alpha, 1), alpha)
    if K.mult_order(g) != s:
        raise AssertionError("norm-kernel generator has unexpected order")
    return g, s


@dataclass(frozen=True)
class FieldAutomorphism:
    """x |-> x^(p^j); fixes_f reports pointwise fixing of F = F_{p^r}."""

    exponent: int
    fixes_f: bool


def field_automorphisms(ctx: TowerCtx) -> list[FieldAutomorphism]:
    """All l automorphisms of K as Frobenius powers."""
    K = ctx.field
    out = []
    for j in range(K.l):
        fixes = all(K.pow_int(a, K.p ** j) == a for a in ctx.fixed_field_elements())
        out.append(FieldAutomorphism(exponent=j, fixes_f=fixes))
    return out


# ---------------------------------------------------------------------------
# textual element syntax:  g^k | 0 | [c0,c1,...]

def parse_element(K: FieldCtx, text: str) -> int:
    text = text.strip()
    if text == "0":
        return 0
    if text == "1":
        return 1
    if text.startswith("g^"):
        k = int(text[2:])
        return K.exp[k % (K.order - 1)]
    if text == "g":
        return K.primitive
    if text.startswith("[") and text.endswith("]"):
        coeffs = [int(c) for c in text[1:-1].split(",") if c.strip() != ""]
        if len(coeffs) > K.l:
            raise ValueError(f"too many coordinates for degree-{K.l} field")
        return K.encode(coeffs + [0] * (K.l - len(coeffs)))
    raise ValueError(f"cannot parse field element {text!r}")


def parse_field_descriptor(text: str) -> tuple[int, int]:
    """Parse 'p^l' (or plain 'p') into (p, l)."""
    text = text.strip()
    if "^" in text:
        p_s, l_s = text.split("^")
        return int(p_s), int(l_s)
    return int(text), 1
