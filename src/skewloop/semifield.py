"""The semifield S_f = K[t;sigma]/K[t;sigma]f and its structure maps.

Elements of S_f are the skew polynomials of degree < m, encoded as integers
in base |K|: digit i is the coefficient of t^i.  Each K-digit is itself
written in base p, so the base-p digits of a code are the element's
coordinate vector over F_p in the basis e_k = p^k, k < D = l*m.
`to_vector` and `from_vector` are this codec, on single codes or arrays.

The product g u mod_r f is sum_(i,j) g_i sigma^i(u_j) R_(i+j), since a left
scalar commutes with the right remainder; R_k = t^k mod_r f, k < 2m, are
built once (`t_rows`), and `SemifieldCtx.times` is the one definition
(`nuc_r_membership` and `t_power_diagnostics` call it directly).  It is
F_p-bilinear, so it is fixed by its structure constants
tensor[i, j] = to_vector(e_i e_j), a D x D x D array over F_p (Knuth's
cubical array of a semifield).  All batch arithmetic -- product tables,
associators, the nuclei equations and translation matrices -- is a
contraction with that tensor mod p.  Inverses form no tensor: each is a
few skew-polynomial divisions (`inverses`).

`SemifieldCtx.images` is the one kernel that applies a stack of D x D
matrices over F_p to coordinate vectors (product table rows and the
translations `loops.gl_bound` certifies).  It runs as one float64 GEMM:
with entries in [0, p) every sum it forms is an integer of at most
D (p-1)^2, exact in float64 while that is below 2^53, and it is reduced
mod p in int32 while D (p-1)^2 < 2^31 (else int64) before the codes are
formed (exact linear algebra mod p on floating-point BLAS, as in
FFLAS-FFPACK).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import skewpoly as sp
from .gf import LOG_TABLE_LIMIT, SizeCapExceeded, TowerCtx
from .permgroup import chunk_rows


class ReducibleF(ValueError):
    """f reducible: S_f would have zero divisors."""


class RightInvariantF(ValueError):
    """f right-invariant: S_f would be associative."""


class ZeroElement(ValueError):
    pass


@dataclass
class SemifieldCtx:
    tower: TowerCtx
    f: sp.SkewPoly
    m: int = field(init=False)
    size: int = field(init=False)
    dim_prime: int = field(init=False)
    t_rows: list[list[int]] = field(init=False, repr=False, compare=False)
    # filled on first use by `_weights`, `_bound`, `tensor`, `_translations`
    # and `_nuclei`: declared fields, set to None at construction, not
    # cached_property, which would materialise the instance __dict__ and
    # slow every later attribute read
    _weight_row: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _bound_poly: Optional[sp.SkewPoly] = field(init=False, repr=False, compare=False)
    _structure_constants: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _translation_stack: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    _nuclei_report: Optional[NucleiReport] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.m = sp.degree(self.f)
        K = self.tower.field
        self.size = K.order ** self.m
        self.dim_prime = K.l * self.m
        self.t_rows = sp.t_powers(self.tower, self.f, 2 * self.m)
        self._weight_row = self._bound_poly = self._structure_constants = None
        self._translation_stack = self._nuclei_report = None

    # -- element encoding ------------------------------------------------

    def encode(self, g: Sequence[int]) -> int:
        K = self.tower.field
        code = 0
        for c in reversed(g):
            code = code * K.order + c
        return code

    def decode(self, code: int) -> sp.SkewPoly:
        K = self.tower.field
        digits = []
        for _ in range(self.m):
            digits.append(code % K.order)
            code //= K.order
        return sp.poly(digits)

    @property
    def one(self) -> int:
        return 1

    @property
    def t(self) -> int:
        return self.tower.field.order

    @property
    def p(self) -> int:
        return self.tower.field.p

    def times(self, g: sp.SkewPoly, u: int) -> int:
        """Code of g u mod_r f, for g of degree <= m and the code u: the ring
        product `skewpoly.mul`, its t^k read as R_k from k = m on."""
        K, m = self.tower.field, self.m
        c = sp.mul(self.tower, g, self.decode(u))
        low = list(c[:m]) + [0] * (m - len(c))
        for k in range(m, len(c)):
            if c[k]:
                low = [K.add(a, K.mul(c[k], b)) for a, b in zip(low, self.t_rows[k])]
        return self.encode(low)

    def mul(self, x: int, y: int) -> int:
        return self.times(self.decode(x), y)

    # -- prime-field coordinates ----------------------------------------

    @property
    def _weights(self) -> np.ndarray:
        """p^k for k < D; Python integers once a code can pass 2^63 - 1."""
        if self._weight_row is None:
            dtype = np.int64 if self.size <= 2 ** 63 else object
            self._weight_row = np.array([self.p ** k for k in range(self.dim_prime)], dtype=dtype)
        return self._weight_row

    def to_vector(self, codes) -> np.ndarray:
        """Base-p digits of each code: shape (..., D)."""
        w = self._weights
        return (np.asarray(codes, dtype=w.dtype)[..., None] // w % self.p).astype(np.int64)

    def from_vector(self, vecs) -> np.ndarray:
        """Codes of coordinate vectors (last axis of length D)."""
        return np.asarray(vecs, dtype=np.int64) @ self._weights

    def basis(self) -> list[int]:
        """Prime-field basis e_k = p^k: x^j t^i is e_(i l + j)."""
        return [self.p ** k for k in range(self.dim_prime)]

    @property
    def _bound(self) -> sp.SkewPoly:
        """c = chi_f(t^n), with chi_f = `skewpoly.reduced_norm(f)`: central,
        and in Rf, since chi_f(y) annihilates R/Rf (Cayley-Hamilton); for
        irreducible f, Rc is the largest two-sided ideal in Rf (the bound)."""
        if self._bound_poly is None:
            n = self.tower.n
            c = [0] * (n * self.m + 1)
            c[::n] = sp.reduced_norm(self.tower, self.f)
            self._bound_poly = tuple(c)
        return self._bound_poly

    # -- structure constants ---------------------------------------------

    @property
    def tensor(self) -> np.ndarray:
        """tensor[i, j] = to_vector(e_i e_j), from `mul`."""
        if self._structure_constants is None:
            basis = self.basis()
            self._structure_constants = self.to_vector(
                [[self.mul(a, b) for b in basis] for a in basis])
        return self._structure_constants

    @property
    def _translations(self) -> np.ndarray:
        """Stack whose product with to_vector(x) is (R_x, L_x), the matrices
        of y -> yx and y -> xy (column i: e_i x, resp. x e_i)."""
        if self._translation_stack is None:
            T = self.tensor
            self._translation_stack = np.stack([T.transpose(2, 0, 1), T.transpose(2, 1, 0)])
        return self._translation_stack

    @property
    def _nuclei(self) -> NucleiReport:
        """Nuc_l, Nuc_m, Nuc_r as the kernels of x -> [x,e_i,e_j], [e_i,x,e_j]
        and [e_i,e_j,x] (exact by trilinearity of the associator); Nuc as the
        kernel of all three, the center as Nuc cut by x e_i = e_i x."""
        if self._nuclei_report is not None:
            return self._nuclei_report
        A = _associator_tensor(self)
        left, middle, right = (np.moveaxis(A, slot, -1) for slot in range(3))
        T = self.tensor
        commutator = np.moveaxis(T - T.transpose(1, 0, 2), 0, -1) % self.p
        nl, nm, nr = (_subspace(self, c) for c in (left, middle, right))
        if set(nr.elements) != set(nuc_r_membership(self)):
            raise AssertionError("Nuc_r: associator nullspace and membership formula disagree")
        nuc = _subspace(self, left, middle, right)
        center = _subspace(self, left, middle, right, commutator)
        self._nuclei_report = NucleiReport(nuc_l=nl, nuc_m=nm, nuc_r=nr, nuc=nuc, center=center)
        return self._nuclei_report

    def mul_vectors(self, x, y) -> np.ndarray:
        """Products of coordinate vectors, broadcast over leading axes."""
        return np.einsum("...i,...j,ijk->...k", x, y, self.tensor) % self.p

    def images(self, Y, mats) -> np.ndarray:
        """images[k, y] = code of Y[y] @ mats[k] mod p, for coordinate rows Y
        and a stack of D x D matrices with entries in [0, p), in one float64
        GEMM, and the codes in a float64 product with the weights p^k;
        OverflowError where D (p-1)^2 or |S| leaves the exact range.
        Callers that reuse Y pass it as float64, which is then not copied."""
        D, p = self.dim_prime, self.p
        peak = D * (p - 1) ** 2
        if peak >= 2 ** 53:
            raise OverflowError(f"D (p-1)^2 = {peak} is not exact in float64")
        if self.size > 2 ** 53:
            raise OverflowError(f"|S| = {p}^{D} codes are not exact in float64")
        mats = np.asarray(mats)
        # row kD + j of the stacked matrix is column j of mats[k]
        stacked = mats.transpose(0, 2, 1).reshape(len(mats) * D, D).astype(np.float64)
        vecs = (stacked @ np.asarray(Y, dtype=np.float64).T).astype(
            np.int32 if peak < 2 ** 31 else np.int64)
        vecs -= p * (vecs // p)    # vecs %= p; numpy floor-divides by a scalar faster
        codes = self._weights.astype(np.float64) @ vecs.reshape(len(mats), D, -1)
        return codes.astype(np.int64)

    def product_table(self, codes) -> np.ndarray:
        """table[a, b] = code of codes[a] * codes[b] (int32), a chunk of rows
        at a time: each row x is the matrix of y -> xy applied to all y."""
        D = self.dim_prime
        codes = np.asarray(codes)
        Y = self.to_vector(codes).astype(np.float64)
        T = self.tensor.reshape(D, D * D)
        table = np.empty((len(codes), len(codes)), dtype=np.int32)
        step = chunk_rows(len(codes) * D)
        for s in range(0, len(codes), step):
            rows = (Y[s:s + step] @ T).reshape(-1, D, D) % self.p   # rows[x][j] = x e_j
            table[s:s + step] = self.images(Y, rows)
        return table


def build_semifield(tower: TowerCtx, f: sp.SkewPoly) -> SemifieldCtx:
    """Validated S_f: f monic (normalized on input), irreducible, not
    right-invariant."""
    f = sp.make_monic(tower, f)
    if sp.degree(f) < 2:
        raise ValueError("S_f needs deg(f) >= 2")
    if not sp.is_irreducible(tower, f):
        raise ReducibleF(f"{f} is reducible: S_f has zero divisors")
    if sp.is_right_invariant(tower, f):
        raise RightInvariantF(f"{f} is right-invariant: S_f is associative")
    return SemifieldCtx(tower=tower, f=f)


def _rref(A: np.ndarray, p: int) -> list[int]:
    """Row-reduce A over F_p in place to reduced echelon form: A is int64
    with entries in [0, p), and its first len(pivots) rows come out with a
    leading 1 in the returned pivot columns and zeros elsewhere in those
    columns; the other rows come out zero."""
    pivots: list[int] = []
    for col in range(A.shape[1]):
        r = len(pivots)
        if r == len(A):
            break
        if A[r, col] == 0:
            piv = r + int((A[r:, col] != 0).argmax())
            if A[piv, col] == 0:
                continue
            A[r], A[piv] = A[piv], A[r].copy()
        row = A[r] * pow(int(A[r, col]), -1, p) % p
        A -= A[:, col, None] * row
        A %= p
        A[r] = row
        pivots.append(col)
    return pivots


def _kernel(rows: np.ndarray, p: int) -> list[list[int]]:
    """Basis of {v : rows v = 0} over F_p (entries of rows in [0, p)), one
    vector per free column of the reduced form: 1 there, 0 at the other
    free columns."""
    A = np.array(rows, dtype=np.int64)
    pivots = _rref(A, p)
    free = [c for c in range(A.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -A[:len(pivots), free].T % p
    return basis.tolist()


def inverses(S: SemifieldCtx, x: int) -> tuple[int, int]:
    """(left inverse, right inverse) of x: the y of degree < m with y*x = 1
    and x*y = 1, by `skewpoly.left_inverse_mod` in R = K[t;sigma].

    Left: u x = 1 mod Rf with deg u < m is y*x = 1, read off at once.
    Right: with c = chi_f(t^n) (`SemifieldCtx._bound`), take u x = 1 mod Rc.
    Rc is two-sided (c is central), so A = R/Rc is a finite associative
    ring, in which u x = 1 forces x u = 1: r -> x r is injective (x r = 0
    gives r = u x r = 0), hence onto, x w = 1, and u = u x w = w.  As Rc lies
    in Rf, x u = 1 mod Rf, and so x (u mod_r f) = x u - (x q) f = 1 mod Rf.
    Such a u exists whenever S_f is a division algebra: chi_f is irreducible,
    so A = M_n(F_q[y]/chi_f) is simple, R/Rf is a simple A-module, hence
    faithful, and x acts on it injectively, so x is a unit of A.  If x is a
    zero divisor (f reducible) one of the two cofactor searches meets a
    common right factor and raises AssertionError."""
    if x == 0:
        raise ZeroElement("zero has no inverse")
    tw, v = S.tower, S.decode(x)
    left = sp.left_inverse_mod(tw, v, S.f)
    right = sp.right_divmod(tw, sp.left_inverse_mod(tw, v, S._bound), S.f)[1]
    return S.encode(left), S.encode(right)


@dataclass
class NucleusInfo:
    elements: list[int]
    basis_vectors: list[list[int]]
    cardinality: int
    field_tag: Optional[str]


@dataclass
class NucleiReport:
    nuc_l: NucleusInfo
    nuc_m: NucleusInfo
    nuc_r: NucleusInfo
    nuc: NucleusInfo
    center: NucleusInfo


def _span_elements(S: SemifieldCtx, basis_vecs: list[list[int]]) -> list[int]:
    """The codes of the F_p-span of the basis, sorted; SizeCapExceeded, before
    anything is allocated, when it has more than LOG_TABLE_LIMIT elements."""
    r = len(basis_vecs)
    if S.p ** r > LOG_TABLE_LIMIT:
        raise SizeCapExceeded(
            f"a nucleus of order {S.p}^{r} = {S.p ** r} exceeds {LOG_TABLE_LIMIT} elements: "
            f"listing it needs {S.p ** r * r * 8} bytes for its int64 coefficients alone")
    coeffs = np.array(list(itertools.product(range(S.p), repeat=r)),
                      dtype=np.int64).reshape(S.p ** r, r)
    B = np.array(basis_vecs, dtype=np.int64).reshape(r, S.dim_prime)
    return sorted(S.from_vector(coeffs @ B % S.p).tolist())


def _field_tag(S: SemifieldCtx, elems: list[int],
               basis_vecs: list[list[int]]) -> Optional[str]:
    """Tag the subspace as a subfield when it contains 1 and is closed under
    the product; by bilinearity the basis pairs decide closure exactly."""
    es = set(elems)
    if S.one not in es:
        return None
    B = np.array(basis_vecs, dtype=np.int64)
    prods = S.from_vector(S.mul_vectors(B[:, None], B[None, :]))
    if not es.issuperset(prods.ravel().tolist()):
        return None
    return f"F_{len(es)}"


def _subspace(S: SemifieldCtx, *conditions: np.ndarray) -> NucleusInfo:
    """The kernel of the linear conditions: arrays whose last axis runs over
    the coordinates of x, every other position one equation."""
    D = S.dim_prime
    rows = np.concatenate([c.reshape(-1, D) for c in conditions])
    # one row per distinct nonzero code; the RREF does not depend on row order
    codes, first = np.unique(S.from_vector(rows), return_index=True)
    basis_vecs = _kernel(rows[first[codes != 0]], S.p)
    elems = _span_elements(S, basis_vecs)
    return NucleusInfo(elements=elems, basis_vectors=basis_vecs,
                       cardinality=len(elems), field_tag=_field_tag(S, elems, basis_vecs))


def _associator_tensor(S: SemifieldCtx) -> np.ndarray:
    """A[a, b, c] = to_vector([e_a, e_b, e_c])."""
    T = S.tensor
    return (np.einsum("abl,lck->abck", T, T) - np.einsum("bcl,alk->abck", T, T)) % S.p


def nuc_r_membership(S: SemifieldCtx) -> list[int]:
    """Nuc_r via the membership formula {g in R_m : f g in Rf}: the kernel of
    the F_p-linear map g -> (f g mod_r f), built without the tensor."""
    return _span_elements(S, _kernel(S.to_vector([S.times(S.f, b) for b in S.basis()]).T, S.p))


def nuclei(S: SemifieldCtx) -> NucleiReport:
    """The nuclei and the center of S, computed once per S
    (`SemifieldCtx._nuclei`)."""
    return S._nuclei


def nuclei_bruteforce(S: SemifieldCtx) -> tuple[list[int], list[int], list[int]]:
    """Full |S_f|^3 associator scan over the product table, a chunk of x at a
    time; test oracle only."""
    P = S.product_table(np.arange(S.size))
    n = S.size
    left = np.empty(n, dtype=bool)
    middle = np.ones(n, dtype=bool)
    right = np.ones(n, dtype=bool)
    step = chunk_rows(n * n)
    for s in range(0, n, step):
        xs = slice(s, s + step)
        ok = P[P[xs]] == P[xs][:, P]    # ok[x, y, z]: (xy)z == x(yz)
        left[xs] = ok.all(axis=(1, 2))
        middle &= ok.all(axis=(0, 2))
        right &= ok.all(axis=(0, 1))
    return tuple(np.flatnonzero(v).tolist() for v in (left, middle, right))


@dataclass
class TPowerReport:
    associative: bool
    closure_order: Optional[int]


def t_power_diagnostics(S: SemifieldCtx) -> TPowerReport:
    """The powers of t in S_f, all decided by one question: is f t in Rf?

    Write x.y = xy mod_r f.  Every bracketing of t^k with k <= m is
    t^k mod_r f: below degree m nothing is reduced, and a bracketing of t^m
    is t^i . t^(m-i) with both factors plain powers.  A bracketing of
    t^(m+1) is t^i . t^(m+1-i): for 1 <= i < m it is t^(m+1) mod_r f (at
    i = 1 because t f lies in Rf), but (t^m mod_r f) . t = (t^m - f) t mod_r f
    is that minus f t mod_r f.  So the powers of t are associative, they
    have one value each, and t^(m+1) has one value, all exactly when f t
    lies in Rf (`associative`).  Then t lies in Nuc_r = {g : f g in Rf}, a
    finite field, every bracketing of t^k is the field power, and the
    distinct powers form the cyclic group of the multiplicative order of t.
    """
    t, tm = S.t, S.encode(S.t_rows[S.m])
    assoc = not S.times(S.f, t)
    assert (S.mul(tm, t) == S.mul(t, tm)) == assoc, "ft in Rf vs t^m t = t t^m mismatch"
    order = None
    if assoc:
        x, order = t, 1
        while x != S.one:
            x, order = S.mul(x, t), order + 1
            if order > S.size:
                raise AssertionError("power cycle not found")
    return TPowerReport(associative=assoc, closure_order=order)


def analysis_json(S: SemifieldCtx) -> dict:
    rep = nuclei(S)
    diag = t_power_diagnostics(S)
    return {
        "size": S.size,
        "f": sp.poly_json(S.tower, S.f),
        "nuclei": {
            "left": {"cardinality": rep.nuc_l.cardinality, "tag": rep.nuc_l.field_tag},
            "middle": {"cardinality": rep.nuc_m.cardinality, "tag": rep.nuc_m.field_tag},
            "right": {"cardinality": rep.nuc_r.cardinality, "tag": rep.nuc_r.field_tag},
            "nucleus": {"cardinality": rep.nuc.cardinality, "tag": rep.nuc.field_tag},
            "center": {"cardinality": rep.center.cardinality, "tag": rep.center.field_tag},
        },
        "t_powers": {
            "associative": diag.associative,
            "closed": diag.associative,
            "closure_order": diag.closure_order,
            "power_associative_m_plus_1": diag.associative,
        },
    }
