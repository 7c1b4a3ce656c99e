"""Test oracles shared by several test modules.

Each is a small, direct formula that a test compares the library against;
none is called by the library, the CLI, the benchmark or the demos.
"""

import csv
from math import gcd

import numpy as np

from skewloop import loops as lp


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
