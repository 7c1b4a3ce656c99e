"""Test oracles shared by several test modules.

Each is a small, direct formula that a test compares the library against;
none is called by the library, the CLI, the benchmark or the demos.
"""

import csv
import itertools
from math import gcd

import numpy as np

from skewloop import census as cs
from skewloop import loops as lp
from skewloop import semifield as sfd
from skewloop import skewpoly as sp
from skewloop.gf import FieldCtx, SizeCapExceeded


# (p, r, n, m) of a battery of towers and degrees: every admissible f of
# each is small enough to list with the scalar tests
BATTERY = [(2, 1, 2, 2), (2, 1, 2, 3), (2, 1, 2, 4), (2, 1, 3, 2), (2, 1, 3, 3), (2, 1, 4, 2),
           (2, 1, 5, 2), (2, 2, 2, 2), (3, 1, 2, 2), (3, 1, 2, 3), (3, 1, 3, 2), (5, 1, 2, 2),
           (7, 1, 2, 2)]


def inverse(g):
    """Test oracle: the inverse of one permutation, by a scatter."""
    inv = np.empty_like(g)
    inv[g] = np.arange(len(g), dtype=g.dtype)
    return inv


def sift(G, g):
    """Test oracle for `BSGS.sift` on Python lists: (residue, level reached).
    The row of h(base point) is its index in the level's orbit list."""
    h = [int(x) for x in g]
    for level, lv in enumerate(G.levels):
        orbit = lv.orbit.tolist()
        if h[lv.point] not in orbit:
            return h, level
        u_inv = lv.uinv[orbit.index(h[lv.point])].tolist()
        h = [u_inv[x] for x in h]
    return h, len(G.levels)


def orbit(gens, point):
    """Test oracle: the orbit of `point` under a list of permutations, by a
    breadth-first search on Python lists."""
    gens = [[int(x) for x in g] for g in gens]
    seen, queue = [point], [point]
    while queue:
        q = queue.pop(0)
        for g in gens:
            if g[q] not in seen:
                seen.append(g[q])
                queue.append(g[q])
    return seen


def gl_pointwise_stabilizer_order(K, d, fixed):
    """Test oracle: the number of invertible d x d matrices over the field K
    (elements coded 0..q-1) that fix every vector of `fixed` (tuples of d
    codes), by listing all q^(d^2) matrices; a matrix is invertible when it
    maps no nonzero vector to zero."""
    vectors = list(itertools.product(range(K.order), repeat=d))[1:]

    def apply(rows, v):
        out = []
        for row in rows:
            s = 0
            for a, x in zip(row, v):
                s = K.add(s, K.mul(a, x))
            out.append(s)
        return tuple(out)

    count = 0
    for entries in itertools.product(range(K.order), repeat=d * d):
        rows = [entries[i * d:(i + 1) * d] for i in range(d)]
        if (all(apply(rows, v) == tuple(v) for v in fixed)
                and all(any(apply(rows, v)) for v in vectors)):
            count += 1
    return count


def skew_mul(tw, f, g):
    """Test oracle: the product in K[t;sigma], term by term:
    (a t^i)(b t^j) = a sigma^i(b) t^(i+j)."""
    K = tw.field
    res = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            res[i + j] = K.add(res[i + j], K.mul(a, tw.sigma(b, i)))
    return sp.poly(res)


def right_rem(tw, g, f):
    """Test oracle: g mod_r f, from `skewpoly.right_divmod`."""
    return sp.right_divmod(tw, g, f)[1]


def skew_add(tw, f, g):
    """Test oracle: the sum of two skew polynomials, coefficientwise."""
    K = tw.field
    n = max(len(f), len(g))
    out = [K.add(f[i] if i < len(f) else 0, g[i] if i < len(g) else 0) for i in range(n)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def add(S, x, y):
    """Test oracle: x + y in S_f, on the F_p coordinate vectors."""
    return int(S.from_vector((S.to_vector(x) + S.to_vector(y)) % S.p))


def associator(S, x, y, z):
    """Test oracle: [x,y,z] = (xy)z - x(yz); codes in, codes out (arrays
    broadcast)."""
    X, Y, Z = (S.to_vector(v) for v in (x, y, z))
    diff = S.mul_vectors(S.mul_vectors(X, Y), Z) - S.mul_vectors(X, S.mul_vectors(Y, Z))
    return S.from_vector(diff % S.p)


def rel_norm(tw, x):
    """Test oracle: N_{K/F}(x) = prod_{i<n} sigma^i(x) = x^((q^n - 1)/(q - 1))."""
    return tw.field.pow_int(x, (tw.field.order - 1) // (tw.q - 1))


def apply_aut(S, phi, x):
    """Test oracle: phi(x) for an H_(tau,k) or a G_c from its matrix; codes
    in, codes out (a code or an array of codes)."""
    x = np.asarray(x)
    return S.images(S.to_vector(x.ravel()), phi.matrix[None])[0].reshape(x.shape)[()]


def match_inner_to_hk(S, inners, auts):
    """Test oracle for the claim "every G_c is an H_(id,k) with N(k) = 1":
    for each G_c the H_(id,k) with the same matrix, {c: k}.  AssertionError
    when a G_c has no match or its k has norm other than 1."""
    by_matrix = {H.matrix.tobytes(): H for H in auts if H.tau_exp == 0}
    out = {}
    for ia in inners:
        H = by_matrix.get(ia.matrix.tobytes())
        if H is None:
            raise AssertionError(f"G_c for c={ia.c} matches no H_(id,k)")
        assert rel_norm(S.tower, H.k) == 1
        out[ia.c] = H.k
    return out


def s_gcd_count(p, r, m, l):
    """Test oracle: S(r,m,l) = gcd((p^{rm}-1)/(p^r-1), p^l-1), the number of
    k in K^x with k^s = 1 for s = (q^m - 1)/(q - 1)."""
    if l % r != 0:
        raise ValueError("r must divide l")
    s = (p ** (r * m) - 1) // (p ** r - 1)
    return gcd(s, p ** l - 1)


def read_latin_csv(path):
    """Test oracle: parse the CSV that `loops.write_latin_csv` writes back
    into a loop, through `loops.loop_from_table`."""
    with open(path) as fh:
        rd = csv.reader(fh)
        n = int(next(rd)[1])
        next(rd)  # legend
        rows = [[int(v) for v in next(rd)] for _ in range(n)]
    return lp.loop_from_table(rows)


def in_proper_subfield(tw, a):
    """Test oracle: which codes of the array a lie inside some F_{q^e},
    e | n, e < n (the subfields of K containing F), by sigma^e(a) = a; one
    `pow_array` per proper divisor e."""
    K, n = tw.field, tw.n
    a = np.asarray(a, dtype=np.int64)
    inside = np.zeros(a.shape, dtype=bool)
    for e in range(1, n):
        if n % e == 0:
            inside |= K.pow_array(a, tw.q_powers[e]) == a
    return inside


def cyclic_algebra_classes(tw):
    """Test oracle for `census.cyclic_algebra_classes`: walk K^x, and form
    the orbit {k sigma^i(a) : k in F^x, i < n} of each admissible a not yet
    seen, as the products of the array of k and the array of sigma^i(a);
    (class count, sorted least orbit members)."""
    K = tw.field
    inside = in_proper_subfield(tw, np.arange(K.order))   # 0 is inside F
    fixed = np.array([c for c in tw.fixed_field_elements() if c != 0])
    exponents = np.array(tw.q_powers)
    seen = np.zeros(K.order, dtype=bool)
    reps = []
    for a in np.flatnonzero(~inside).tolist():
        if seen[a]:
            continue
        orbit = K.mul_array(fixed[:, None], K.pow_array(a, exponents)).ravel()
        assert not inside[orbit].any()
        seen[orbit] = True
        reps.append(int(orbit.min()))
    return len(reps), sorted(reps)


def gammaL_orbit_count(q, m):
    """Test oracle for `census.gammaL_orbit_count`, the enumeration it ran
    before the Burnside sum.  M(q,m): orbits of GammaL(1,q) = {(lambda, rho)}
    acting on the central irreducibles by f^{(lambda,rho)}(y) =
    lambda^{-m} f^rho(lambda y).

    The maps form a group, so the orbit of f is its image set: each map is
    applied to every irreducible at once, and an orbit is counted at its
    member of least index."""
    if q ** m > cs.CLASSIFY_LIMIT:
        raise SizeCapExceeded(f"q^m = {q**m} exceeds {cs.CLASSIFY_LIMIT}")
    p, r = cs._prime_power(q)
    K = FieldCtx.create(p, r)
    polys = cs.enumerate_irreducible(K, m)
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
    lo = (q ** m - cs.theta(q, m)) / (m * r * (q - 1))
    hi = (q ** m - cs.theta(q, m)) // m
    assert lo <= orbits <= hi, "GammaL orbit count violates the sandwich bounds"
    return orbits


def t_power_walk(S):
    """Test oracle for `semifield.t_power_diagnostics`: form the values of
    every bracketing of t^k, k = 2, 3, ..., until one t^k has two values or
    a value repeats; then every bracketing of the remaining powers up to
    t^(m+1).  (powers_associative, powers_closed, closure_order,
    power_associative_m_plus_1) with the first as "f t in Rf"."""
    tw, m, t = S.tower, S.m, S.t

    def bracketings(k):
        return {S.mul(u, v) for i in range(1, k) for u in vals[i] for v in vals[k - i]}

    vals = {1: {t}}
    powers_seen = {t}
    closed = True
    k = 1
    while True:
        k += 1
        vals[k] = bracketings(k)
        if len(vals[k]) > 1:
            closed = False
            break
        val, = vals[k]
        if val in powers_seen:
            break
        powers_seen.add(val)
        assert k <= S.size, "power cycle not found"
    for k in range(len(vals) + 1, m + 2):
        vals[k] = bracketings(k)
    ft = skew_mul(tw, S.f, (0, 1))
    return (not right_rem(tw, ft, S.f), closed,
            len(powers_seen) if closed else None, len(vals[m + 1]) == 1)


def annihilator(S, g):
    """Test oracle: a basis (coordinate vectors) of {u in R_m : g u in Rf},
    the kernel of the F_p-linear map u -> (g u mod_r f)."""
    return sfd._kernel(S.to_vector([S.times(g, b) for b in S.basis()]).T, S.p)


def similar(tw, f, g):
    """Test oracle for `census.similarity_classes`: equal degrees (the
    K-dimensions of R/Rf and R/Rg), and g u = 0 mod_r f for some nonzero u
    of degree < deg(f): u -> (g u mod_r f) has a kernel."""
    return sp.degree(f) == sp.degree(g) and bool(annihilator(sfd.SemifieldCtx(tower=tw, f=f), g))


def charpoly(K, H):
    """Test oracle: det(y - H) over K, low degree first.  H (overwritten) is
    brought to upper Hessenberg form by elementary similarities; then the
    characteristic polynomials of its leading blocks satisfy
    p_(k+1) = (y - H_kk) p_k - sum_(i<k) H_ik (H_(i+1,i) ... H_(k,k-1)) p_i."""
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


def reduced_norm(tw, f):
    """Test oracle for `skewpoly.reduced_norm`: `charpoly` of C_f, whose
    row i is t^(n+i) mod_r f from right division."""
    m = sp.degree(f)
    rows = [right_rem(tw, (0,) * (tw.n + i) + (1,), f) for i in range(m)]
    return charpoly(tw.field, [list(r) + [0] * (m - len(r)) for r in rows])


def inverses(S, x):
    """Test oracle for `semifield.inverses`: the solutions of y*x = 1 and
    x*y = 1 over F_p, from the reduced forms of [R_x | e_0] and [L_x | e_0];
    AssertionError where R_x or L_x is singular."""
    D = S.dim_prime
    system = np.zeros((2, D, D + 1), dtype=np.int64)
    system[:, :, :D] = S._translations @ S.to_vector(x) % S.p
    system[:, 0, D] = 1                                  # e_0 = to_vector(1)
    for M in system:
        assert sfd._rref(M, S.p) == list(range(D)), "R_x or L_x is singular"
    left, right = S.from_vector(system[:, :, D]).tolist()
    return left, right


def inner_automorphisms(S):
    """Test oracle for `autgroup.inner_automorphisms`: G_c for every nonzero
    c in Nuc, one (c, matrix) per distinct matrix, the least c first seen.
    Row i of the matrix is G_c(e_i) = (c_l e_i) c, the column i of R_c L_(c_l)."""
    R, L = S._translations
    seen = {}
    for c in sfd.nuclei(S).nuc.elements:
        if c:
            c_left, _ = sfd.inverses(S, c)
            M = (R @ S.to_vector(c) @ (L @ S.to_vector(c_left))).T % S.p
            seen.setdefault(M.tobytes(), (c, M))
    return list(seen.values())
