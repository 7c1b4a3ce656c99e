"""Exact arithmetic in F_{p^l} together with the tower F_{p^r} <= F_{p^l}.

Elements are encoded as integers: the element with coordinate vector
(c0, c1, ..., c_{l-1}) w.r.t. the power basis of the modulus root is the
integer sum(c_i * p**i).  Zero is 0 and the multiplicative identity is 1.
Every field up to 2**20 elements keeps three tables of about |K| entries
for its primitive element g: exp, log, and the Zech logarithms
zech[j] = log(1 + g^j).  Products, quotients, sums, negatives and powers
are then O(1) lookups, and nothing grows with |K|^2.  The tables are built
once, as int64 arrays that give elementwise products, sums and powers of
whole code arrays, and as lists for the scalar operations.  The Frobenius
sigma^i of a tower is the power a -> a^(q^i), so a tower keeps only its n
exponents q^i mod (|K|-1), and a term a sigma^i(b) of a skew product is
one exp lookup (`FieldCtx.mul_pow`).

The module also holds the integer helpers (trial division) and the plain
polynomial arithmetic over a field (remainder, power mod, the gcd
irreducibility test) that the modulus search runs over Z/pZ and skewpoly
runs over K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Sequence

import numpy as np

LOG_TABLE_LIMIT = 2 ** 20


class SizeCapExceeded(ValueError):
    """An input exceeds a size cap of the library: the 2^20 field, the Mlt
    degree, the census, subloop and isomorphism sizes, or small-group
    identification.  The one cap exception; the CLI exits with code 3 on it."""


class NotPrime(ValueError):
    pass


class ReducibleModulus(ValueError):
    pass


class NonPrimitiveModulusRoot(ValueError):
    pass


# ---------------------------------------------------------------------------
# integers, by trial division: the n met here are prime powers q, group
# orders p^l - 1 <= 2^20 and small degrees, so it is cheap

def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1, primes ascending."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primefactors(n: int) -> list[int]:
    return list(factorint(n))


def isprime(n: int) -> bool:
    return n >= 2 and factorint(n) == {n: 1}


def mobius(n: int) -> int:
    fac = factorint(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


# ---------------------------------------------------------------------------
# plain polynomials over a field F (a FieldCtx): lists of F's codes, low
# degree first.  skewpoly runs them over K, the modulus search over Z/pZ.

def poly_rem(F, a: list[int], b: Sequence[int]) -> list[int]:
    """a mod b (b trimmed and nonzero); a is reduced in place and returned
    trimmed."""
    mul, add = F.mul, F.add
    minus_inv = F.neg(F.inv(b[-1]))
    while len(a) >= len(b):
        c = mul(a.pop(), minus_inv)                       # cancel the top term
        if c:
            d = len(a) - len(b) + 1
            for j, x in enumerate(b[:-1]):
                if x:
                    a[d + j] = add(a[d + j], mul(c, x))
    while a and not a[-1]:
        a.pop()
    return a


def poly_mul_mod(F, a: list[int], b: list[int], h: Sequence[int]) -> list[int]:
    """a b mod h."""
    mul, add = F.mul, F.add
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, c in enumerate(b):
                if c:
                    prod[i + j] = add(prod[i + j], mul(x, c))
    return poly_rem(F, prod, h)


def poly_pow_mod(F, g: list[int], e: int, h: Sequence[int]) -> list[int]:
    """g^e mod h for e >= 1 and g reduced mod h, by squaring."""
    out = g
    for bit in bin(e)[3:]:
        out = poly_mul_mod(F, out, out, h)
        if bit == "1":
            out = poly_mul_mod(F, out, g, h)
    return out


def poly_is_irreducible(F, h: Sequence[int], q: int) -> bool:
    """Monic h of degree >= 1 with coefficients in the subfield F_q of F is
    irreducible over F_q iff it has no irreducible factor of degree <=
    deg(h)/2, i.e. gcd(h, y^(q^i) - y) = 1 for 1 <= i <= deg(h)/2 (Rabin,
    SIAM J. Comput. 9, 1980)."""
    z = [0, 1]                                            # z = y^(q^i) mod h
    for _ in range((len(h) - 1) // 2):
        z = poly_pow_mod(F, z, q, h)
        b = z + [0] * (2 - len(z))
        b[1] = F.sub(b[1], 1)                             # z - y
        a, b = list(h), poly_rem(F, b, h)
        while b:
            a, b = b, poly_rem(F, a, b)
        if len(a) > 1:
            return False
    return True


def monic_rows(q: int, d: int, index) -> np.ndarray:
    """Rows `index` of the q^d monic degree-d polynomials over a field of
    order q, numbered in itertools.product order of (c0, ..., c_(d-1)) (c0
    the most significant digit): codes low degree first, the leading 1 as
    last column."""
    index = np.asarray(index, dtype=np.int64)
    digits = index[:, None] // q ** np.arange(d - 1, -1, -1) % q
    return np.hstack([digits, np.ones((len(index), 1), dtype=np.int64)])


@cache
def _prime_field(p: int) -> "FieldCtx":
    """Z/pZ as a FieldCtx: codes are the residues themselves."""
    return FieldCtx.create(p, 1)


def poly_is_irreducible_zp(coeffs: Sequence[int], p: int) -> bool:
    """Irreducibility over Z/pZ of a monic polynomial with coefficients in
    [0, p); constants count as reducible."""
    if len(coeffs) < 3:      # no arithmetic: create(p, 1) checks its modulus here
        return len(coeffs) == 2
    return poly_is_irreducible(_prime_field(p), coeffs, p)


def _pow_is_one(coeffs: Sequence[int], e: int, modulus: Sequence[int], p: int) -> bool:
    """(sum_i coeffs[i] x^i)^e == 1 in Z/pZ[x]/(modulus), for coeffs of
    degree below the modulus."""
    g = list(coeffs)
    while g and not g[-1]:                                # reduced means trimmed
        g.pop()
    return poly_pow_mod(_prime_field(p), g, e, modulus) == [1]


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
    zech: list[Optional[int]] = field(init=False, repr=False)
    # exp, log and zech as int64 arrays.  Z = 2(|K|-1) stands for log 0 and
    # for the Zech logarithm of 1 + g^j = 0; _exp_wide runs to 2Z with
    # _exp_wide[k] = g^k below Z and 0 from Z on, so the sum of two logs
    # indexes it unreduced and reads 0 whenever one of them is Z
    exp_array: np.ndarray = field(init=False, repr=False, compare=False)
    _exp_wide: np.ndarray = field(init=False, repr=False, compare=False)
    _log_array: np.ndarray = field(init=False, repr=False, compare=False)
    _zech_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.order = self.p ** self.l
        self._build_log_tables()

    # -- construction ----------------------------------------------------

    @staticmethod
    def create(p: int, l: int, modulus: Optional[Sequence[int]] = None) -> "FieldCtx":
        if p ** l > LOG_TABLE_LIMIT:               # before the searches below
            raise SizeCapExceeded("fields beyond 2^20 elements are out of scope")
        if not isprime(p):
            raise NotPrime(f"{p} is not prime")
        if modulus is None:
            modulus = default_modulus(p, l)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != l + 1 or modulus[-1] != 1:
            raise ReducibleModulus(f"modulus must be monic of degree {l}")
        if not poly_is_irreducible_zp(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} is reducible over Z/{p}Z")
        return FieldCtx(p=p, l=l, modulus=modulus,
                        primitive=primitive_element(p, l, modulus))

    def _build_log_tables(self) -> None:
        """exp by doubling.  Row i of the F_p-matrix A holds the digits of
        x^i g, so (digits of a) @ A are the digits of a g, and the block of
        powers g^0 .. g^(k-1) times A^k is the block g^k .. g^(2k-1)."""
        p, l, n1 = self.p, self.l, self.order - 1
        dtype = np.int32 if l * (p - 1) ** 2 < 2 ** 31 else np.int64
        weights = p ** np.arange(l, dtype=dtype)
        low = np.array(self.modulus[:-1], dtype=dtype)    # x^l = -low . x^i
        row = self.primitive // weights % p
        rows = []
        for _ in range(l):
            rows.append(row)
            row = (np.concatenate([[0], row[:-1]]) - row[-1] * low) % p
        A = np.array(rows, dtype=dtype)
        codes = np.ones(1, dtype=dtype)
        while len(codes) <= n1:
            block = codes[:n1 + 1 - len(codes), None] // weights % p
            codes = np.concatenate([codes, block @ A % p @ weights])
            A = A @ A % p
        if np.bincount(codes[:n1]).max() > 1:
            raise NonPrimitiveModulusRoot(
                "distinguished element is not primitive for this modulus")
        if codes[n1] != 1:
            raise NonPrimitiveModulusRoot("primitive element order mismatch")
        exp = codes[:n1].astype(np.int64)
        log = np.full(self.order, 2 * n1, dtype=np.int64)
        log[exp] = np.arange(n1)
        one_plus = exp - exp % p + (exp + 1) % p          # 1 changes the lowest digit
        self._exp_wide = np.zeros(4 * n1 + 1, dtype=np.int64)
        self._exp_wide[:2 * n1] = np.tile(exp, 2)
        self.exp_array = self._exp_wide[:n1]
        self._log_array, self._zech_array = log, log[one_plus]
        self.exp, self.log = exp.tolist(), log.tolist()
        self.log[0] = None
        # indexing self.log shares its int objects and maps 1 + g^j = 0 to
        # log[0] = None
        self.zech = [self.log[c] for c in one_plus.tolist()]

    # -- encode ----------------------------------------------------------

    def encode(self, coeffs: Sequence[int]) -> int:
        e = 0
        for c in reversed(list(coeffs)):
            e = e * self.p + (c % self.p)
        return e

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        """a + b = a (1 + b/a) = g^(log a + zech[log b - log a])."""
        if a == 0:
            return b
        if b == 0:
            return a
        la = self.log[a]
        z = self.zech[(self.log[b] - la) % (self.order - 1)]
        return 0 if z is None else self.exp[(la + z) % (self.order - 1)]

    def neg(self, a: int) -> int:
        """-a = g^(log(-1)) a, with -1 the constant digit p - 1."""
        if a == 0:
            return 0
        return self.exp[(self.log[a] + self.log[self.p - 1]) % (self.order - 1)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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

    def mul_pow(self, a: int, b: int, e: int) -> int:
        """a * b^e for e >= 1 in one exp lookup, as a sigma^i(b) = a b^(q^i)."""
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + e * self.log[b]) % (self.order - 1)]

    def pow_int(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise ZeroDivisionError
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.order - 1)]

    # -- elementwise arithmetic on int64 code arrays -----------------------

    def mul_array(self, a, b) -> np.ndarray:
        """Elementwise a * b of code arrays (numpy broadcasting)."""
        log = self._log_array
        return self._exp_wide[log[a] + log[b]]

    def add_array(self, a, b) -> np.ndarray:
        """Elementwise a + b of code arrays, by Zech logarithms as `add`."""
        log = self._log_array
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        la = log[a]
        s = self._exp_wide[la + self._zech_array[(log[b] - la) % (self.order - 1)]]
        return np.where(a == 0, b, np.where(b == 0, a, s))

    def pow_array(self, a, e) -> np.ndarray:
        """Elementwise a ** e of a code array and integer exponents."""
        a, e = np.asarray(a, dtype=np.int64), np.asarray(e, dtype=np.int64)
        if np.any((a == 0) & (e < 0)):
            raise ZeroDivisionError("negative power of zero")
        n1 = self.order - 1
        return np.where(a == 0, e == 0, self.exp_array[self._log_array[a] * (e % n1) % n1])

    def format_element(self, e: int) -> str:
        if e == 0:
            return "0"
        if e == 1:
            return "g^0"
        return f"g^{self.log[e]}"


def primitive_element(p: int, l: int, modulus: Sequence[int]) -> int:
    """Smallest-code primitive element of Z/pZ[x]/(modulus); for l > 1 it
    prefers x itself."""
    if l == 1:
        return next(g for g in range(1, p) if _is_primitive_root(g, p))
    n1 = p ** l - 1
    fac = primefactors(n1)

    def is_prim(code: int) -> bool:
        coeffs = [code // p ** i % p for i in range(l)]
        return not any(_pow_is_one(coeffs, n1 // ell, modulus, p) for ell in fac)

    if is_prim(p):
        return p
    for code in range(2, p ** l):
        if code != p and is_prim(code):
            return code
    raise NonPrimitiveModulusRoot("no primitive element found (non-field modulus?)")


def _is_primitive_root(g: int, p: int) -> bool:
    n1 = p - 1
    return all(pow(g, n1 // ell, p) != 1 for ell in primefactors(n1))


def default_modulus(p: int, l: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible degree-l polynomial over
    Z/pZ whose root is primitive (coefficients compared low-degree-first)."""
    import itertools

    if l == 1:
        # linear: x - g, smallest primitive root g
        for g in range(1, p):
            if _is_primitive_root(g, p):
                return ((-g) % p, 1)
    n1 = p ** l - 1
    fac = primefactors(n1)
    for c0 in range(1, p):
        # the norm (-1)^l c0 of a primitive root generates F_p^x
        if not _is_primitive_root((-1) ** l * c0 % p, p):
            continue
        for rest in itertools.product(range(p), repeat=l - 1):
            coeffs = [c0, *rest, 1]
            if not poly_is_irreducible_zp(coeffs, p):
                continue
            # root x primitive <=> x^(n1/ell) != 1 for every prime ell | n1
            if not any(_pow_is_one([0, 1], n1 // ell, coeffs, p) for ell in fac):
                return tuple(coeffs)
    raise ReducibleModulus(f"no primitive irreducible of degree {l} over F_{p}")


# ---------------------------------------------------------------------------


@dataclass
class TowerCtx:
    """The tower F = F_{p^r} <= K = F_{p^l} with sigma(x) = x^(p^r) of order n.
    sigma^i is the field power a -> a^(q^i); `q_powers[i]` = q^i mod (|K|-1)
    is its exponent, for 0 <= i < n."""

    field: FieldCtx
    r: int
    n: int
    q: int = field(init=False)
    q_powers: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.q = self.field.p ** self.r
        self.q_powers = tuple(pow(self.q, i, self.field.order - 1) for i in range(self.n))

    def sigma(self, a: int, i: int = 1) -> int:
        """sigma^i(a) = a^(q^i); i is reduced mod n, negatives allowed."""
        return self.field.pow_int(a, self.q_powers[i % self.n])

    def in_fixed_field(self, a: int) -> bool:
        return self.sigma(a) == a

    def fixed_field_elements(self) -> list[int]:
        codes = np.arange(self.field.order)
        return np.flatnonzero(self.field.pow_array(codes, self.q) == codes).tolist()


def make_tower(p: int, r: int, n: int, modulus: Optional[Sequence[int]] = None) -> TowerCtx:
    """Build F_{p^r} <= F_{p^(n r)} with sigma(x) = x^(p^r)."""
    if n < 2:
        raise ValueError("n must be at least 2")
    l = n * r
    K = FieldCtx.create(p, l, modulus)                    # checks p is prime
    tower = TowerCtx(field=K, r=r, n=n)
    # Fix(sigma) must have exactly p^r elements, i.e. sigma has order n
    fixed = len(tower.fixed_field_elements())
    if fixed != p ** r:
        raise AssertionError(f"fixed field has {fixed} elements, expected {p ** r}")
    return tower


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
