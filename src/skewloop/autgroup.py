"""Automorphisms of S_f and its multiplicative loop.

Two families: the H_{tau,k} maps (tau a field automorphism of K, k in K^x
subject to a compatibility equation against the coefficients of f), and the
inner automorphisms G_c(x) = (c_l x)c for invertible nucleus elements c.
Both are F_p-linear, so each is stored as its D x D matrix over F_p with
row i = to_vector(phi(e_i)); a map acts on coordinate row vectors by
x -> x M mod p, and "a after b" is M_b M_a.  Multiplicativity is decided
exactly by the D^2 basis pairs, since both sides of phi(xy) = phi(x)phi(y)
are bilinear.  Nothing here grows with |S|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import permgroup as pg
from . import semifield as sfd
from . import skewpoly as sp
from .gf import SizeCapExceeded


class NotClosed(RuntimeError):
    """The enumerated parameter set is not closed under composition."""


@dataclass(frozen=True, eq=False)
class AutHK:
    """H_{tau,k} with tau = (x -> x^(p^tau_exp)); matrix[i] = to_vector(H(e_i))."""

    tau_exp: int
    k: int
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class InnerAut:
    """G_c(x) = (c_l x)c for an invertible nucleus element c; matrix as AutHK."""

    c: int
    matrix: np.ndarray


def _tau_apply(S: sfd.SemifieldCtx, tau_exp: int, z: int) -> int:
    K = S.tower.field
    return K.pow_int(z, K.p ** tau_exp)


def _sigma_prefix(S: sfd.SemifieldCtx, k: int, i: int) -> int:
    """prod_{l=0}^{i-1} sigma^l(k) = k^(1 + q + ... + q^(i-1))."""
    q = S.tower.q
    return S.tower.field.pow_int(k, (q ** i - 1) // (q - 1))


def realize_hk(S: sfd.SemifieldCtx, tau_exp: int, k: int) -> AutHK:
    """x_i t^i -> tau(x_i)(prod_{l<i} sigma^l(k)) t^i, on the basis only:
    e_(il+j) = x^j t^i goes to tau(x^j) lam_i t^i, a block of l digits."""
    K = S.tower.field
    l = K.l
    M = np.zeros((S.dim_prime, S.dim_prime), dtype=np.int64)
    for i in range(S.m):
        lam = _sigma_prefix(S, k, i)
        targets = [K.mul(_tau_apply(S, tau_exp, K.p ** j), lam) for j in range(l)]
        M[i * l:(i + 1) * l, i * l:(i + 1) * l] = S.to_vector(targets)[:, :l]
    return AutHK(tau_exp=tau_exp, k=k, matrix=M)


def _is_multiplicative(S: sfd.SemifieldCtx, M: np.ndarray) -> bool:
    """phi(e_i e_j) = phi(e_i) phi(e_j) on the D^2 basis pairs; exact, since
    both sides of phi(xy) = phi(x) phi(y) are bilinear in (x, y)."""
    D, p = S.dim_prime, S.p
    images = M @ (M @ S.tensor.reshape(D, D * D) % p).reshape(D, D, D) % p
    return np.array_equal(S.tensor @ M % p, images)


def _ring_scaling_ok(S: sfd.SemifieldCtx, tau_exp: int, k: int) -> bool:
    """The ring-level extension of H_{tau,k} maps f to (prod_{l<m} sigma^l(k)) f."""
    K = S.tower.field
    lam_m = _sigma_prefix(S, k, S.m)
    g_f = sp.poly([K.mul(_tau_apply(S, tau_exp, c), _sigma_prefix(S, k, i))
                   for i, c in enumerate(S.f)])
    return g_f == tuple(K.mul(lam_m, c) for c in S.f)


def solve_aut_conditions(S: sfd.SemifieldCtx) -> list[AutHK]:
    """All H_(tau,k), tau-major and k by code.  With x = log k the
    coefficient equation tau(a_i) = (prod_{l=i}^{m-1} sigma^l(k)) a_i reads
    x e_i = (p^tau - 1) log a_i mod |K|-1, e_i = (q^m - q^i)/(q - 1), at
    each a_i != 0 (stored coefficients are -a_i; the sign cancels), and is
    tested for every x at once.  Every solution is verified multiplicative
    and checked to scale f by a unit at ring level."""
    K, q = S.tower.field, S.tower.q
    n1 = K.order - 1
    x = np.arange(n1, dtype=np.int64)
    residues = [(x * ((q ** S.m - q ** i) // (q - 1) % n1) % n1, K.log[c])
                for i, c in enumerate(S.f[:S.m]) if c]
    out = []
    for tau_exp in range(K.l):
        ok = np.ones(n1, dtype=bool)
        for r, log_c in residues:
            ok &= r == (K.p ** tau_exp - 1) * log_c % n1
        for k in np.sort(K.exp_array[ok]).tolist():
            H = realize_hk(S, tau_exp, k)
            assert _is_multiplicative(S, H.matrix), \
                f"H_(tau^{tau_exp},{k}) solves the coefficient equation but is not multiplicative"
            assert _ring_scaling_ok(S, tau_exp, k)
            out.append(H)
    return out


def compose_params(S: sfd.SemifieldCtx, a: AutHK, b: AutHK) -> tuple[int, int]:
    """(tau,k)(tau',k') = (tau tau', tau(k')k); the left factor acts after."""
    K = S.tower.field
    return ((a.tau_exp + b.tau_exp) % K.l,
            K.mul(_tau_apply(S, a.tau_exp, b.k), a.k))


def _cayley_table(S: sfd.SemifieldCtx,
                  maps: list[AutHK] | list[InnerAut]) -> tuple[list[list[int]], int]:
    """table[i][j] = index of maps[i] after maps[j] (matrix M_j M_i) and the
    index of the identity; NotClosed if either is missing from maps.  With
    more maps than `pg.identify_small_group` takes it raises
    SizeCapExceeded before forming any product."""
    if len(maps) > pg.IDENTIFY_LIMIT:
        raise SizeCapExceeded(f"{len(maps)} maps exceed the group identification "
                              f"bound {pg.IDENTIFY_LIMIT}")
    index = {phi.matrix.tobytes(): i for i, phi in enumerate(maps)}
    table = []
    for i, a in enumerate(maps):
        row = []
        for j, b in enumerate(maps):
            key = (b.matrix @ a.matrix % S.p).tobytes()
            if key not in index:
                raise NotClosed(f"map {i} after map {j} is missing from the set")
            row.append(index[key])
        table.append(row)
    identity = index.get(np.eye(S.dim_prime, dtype=np.int64).tobytes())
    if identity is None:
        raise NotClosed("the identity is missing from the set")
    return table, identity


def aut_group_structure(S: sfd.SemifieldCtx, auts: list[AutHK]) -> pg.GroupId:
    """Identify the group of the maps; the parameter law is cross-checked
    against their matrix products."""
    table, identity = _cayley_table(S, auts)
    for a, row in zip(auts, table):
        for b, k in zip(auts, row):
            assert compose_params(S, a, b) == (auts[k].tau_exp, auts[k].k), \
                "parameter law disagrees with map composition"
    return pg.identify_small_group(table, identity=identity)


def inner_automorphisms(S: sfd.SemifieldCtx) -> list[InnerAut]:
    """G_c(x) = (c_l x)c, one per coset c Z^x of the centre's units in Nuc^x,
    c its least code, in increasing c: G_c G_d = G_(dc) and G_c = id iff c
    is central, so G_c = G_d iff c/d is central.  A coset is the centre's
    vectors times R_c, the matrix of y -> yc; each gives a new map (asserted)."""
    report = sfd.nuclei(S)
    basis = np.eye(S.dim_prime, dtype=np.int64)
    central = S.to_vector(report.center.elements[1:])    # elements[0] = 0
    covered, maps = set(), {}
    for c in report.nuc.elements[1:]:
        if c in covered:
            continue
        R_c = S._translations[0] @ S.to_vector(c)
        covered.update(S.from_vector(central @ R_c.T % S.p).tolist())
        c_left, _ = sfd.inverses(S, c)
        M = S.mul_vectors(S.mul_vectors(S.to_vector(c_left), basis), S.to_vector(c))
        assert M.tobytes() not in maps, f"G_c for c={c} repeats an earlier coset's map"
        assert np.array_equal(M[0], basis[0]), f"G_c for c={c} moves 1"
        assert _is_multiplicative(S, M), f"G_c for c={c} is not multiplicative"
        maps[M.tobytes()] = InnerAut(c=c, matrix=M)
    return list(maps.values())


def inner_group_structure(S: sfd.SemifieldCtx, inners: list[InnerAut]) -> pg.GroupId:
    """{G_c} = Nuc^x / centre^x is a group (G_c G_d = G_(dc)); a missing
    product or identity raises NotClosed."""
    return pg.identify_small_group(*_cayley_table(S, inners))
