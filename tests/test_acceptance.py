"""End-to-end acceptance matrix: nine criteria, one pass/fail line each.

Criteria 2 and 3 assert |Mlt| = |GL(4,q)| for the order-80 (q = 3) and
order-624 (q = 5) loops, and |Inn| = |Mlt|/|L|.  The translations are
F_q-linear, so Mlt <= GL(4,q); their F_q-determinants are {1,2} on both F_9
loops and {1,2,3,4} on both F_25 loops, which generate F_q^*, so Mlt is not
inside SL(4,q).  Each test certifies this from 4x4 matrices and sympy
determinants, without the Schreier-Sims code.  The older SL-scale reference
values (12130560 / 151632 and 29016000000 / 46500000) are smaller by the
factor q - 1 (2 on F_9, 4 on F_25) and cannot hold for these f and moduli.
"""

import itertools
import time

import numpy as np
import pytest
import sympy
from sympy.combinatorics import Permutation, PermutationGroup

import oracles
from skewloop import autgroup as ag
from skewloop import census as cs
from skewloop import gf
from skewloop import loops as lp
from skewloop import permgroup as pg
from skewloop import semifield as sfd
from skewloop import skewpoly as sp


def report(n: int, failures: list[str], elapsed: float) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f" ({'; '.join(failures)})" if failures else ""
    print(f"ACCEPTANCE {n}: {status}{detail}  [{elapsed:.1f}s]")
    assert not failures, f"criterion {n}: {failures}"


def check(failures: list[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


def translation_dets(S) -> set[int]:
    """F_p-determinants of every L_x and R_x (x != 0) of S: the matrix of
    y -> x*y (or y*x) on S.basis(), determinant by sympy mod p.  Uses no
    permutation-group code, so it checks |Mlt| independently."""
    p = S.tower.field.p
    basis = S.basis()
    dets = set()
    for x in range(1, S.size):
        for prod in (lambda e: S.mul(x, e), lambda e: S.mul(e, x)):
            matrix = sympy.Matrix([S.to_vector(prod(e)) for e in basis]).T
            dets.add(int(matrix.det()) % p)
    return dets


def generated_units(gens: set[int], p: int) -> set[int]:
    """The subgroup of F_p^* generated by gens."""
    out = {1}
    while True:
        grown = out | {a * g % p for a in out for g in gens}
        if grown == out:
            return out
        out = grown


def det_certificate(fails: list[str], label: str, S, M) -> None:
    """Mlt <= GL(4,q) and det(Mlt) = F_q^*, so |Mlt| = |SL(4,q)|(q-1) =
    |GL(4,q)| exactly when SL(4,q) <= Mlt; an SL-scale order fails here."""
    q, p = S.tower.q, S.tower.field.p
    check(fails, q == p and S.dim_prime == 4, f"{label} F_p-dets are F_q-dets")
    dets = translation_dets(S)
    check(fails, generated_units(dets, p) == set(range(1, p)),
          f"{label} dets {sorted(dets)} do not generate F_{q}^*")
    check(fails, M.order == pg.sl_order(4, q) * (q - 1) == pg.gl_order(4, q),
          f"{label} |Mlt| {M.order} != |GL(4,{q})|")


# -- shared instance battery (criteria 5-7) ---------------------------------

_BATTERY = None


def battery():
    """>= 20 admissible f across F_4, F_8, F_9, F_16, F_25 with m in {2,3};
    each entry: (S, loop, mlt, inn_order)."""
    global _BATTERY
    if _BATTERY is not None:
        return _BATTERY
    plan = [
        (gf.make_tower(2, 1, 2), 2, 3),   # F_4, m=2, loop order 15
        (gf.make_tower(2, 1, 2), 3, 3),   # F_4, m=3, 63
        (gf.make_tower(2, 1, 3), 2, 3),   # F_8, m=2, 63
        (gf.make_tower(3, 1, 2), 2, 4),   # F_9, m=2, 80
        (gf.make_tower(3, 1, 2), 3, 2),   # F_9, m=3, 728
        (gf.make_tower(2, 2, 2), 2, 4),   # F_16 with sigma = x^4, m=2, 255
        (gf.make_tower(5, 1, 2), 2, 4),   # F_25, m=2, 624
    ]
    out = []
    for tower, m, take in plan:
        K = tower.field
        fs = list(itertools.islice(sp.enumerate_admissible(tower, m), take))
        # include a binomial t^m - a (Nuc = K there, exercised by criterion 6)
        for a in range(1, K.order):
            f = tuple([K.neg(a)] + [0] * (m - 1) + [1])
            if sp.is_admissible(tower, f):
                fs.append(f)
                break
        for f in fs:
            S = sfd.build_semifield(tower, f)
            L = lp.build_loop(S)
            M = lp.mlt_group(L)
            inn_order, _ = lp.inn_group(L, M)
            out.append((S, L, M, inn_order))
    assert len(out) >= 20
    _BATTERY = out
    return out


def test_acceptance_1_order15():
    t0 = time.time()
    fails = []
    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    S = sfd.build_semifield(tw, (K.neg(K.p), 0, 1))
    L = lp.build_loop(S)
    M = lp.mlt_group(L)
    check(fails, L.size == 15, "loop order")
    check(fails, M.order == 20160, f"|Mlt| {M.order}")
    check(fails, lp.inn_group(L, M)[0] == 1344, "|Inn|")
    inners = ag.inner_automorphisms(S)
    gid = ag.inner_group_structure(S, inners)
    check(fails, (len(inners), gid.tag, gid.order) == (3, "cyclic", 3),
          "inner autos Z/3")
    check(fails, lp.cyclicity(L)[1], "right cyclic")
    elapsed = time.time() - t0
    check(fails, elapsed < 5, "runtime")
    report(1, fails, elapsed)


def test_acceptance_2_order80():
    t0 = time.time()
    fails = []
    tw = gf.make_tower(3, 1, 2, modulus=[2, 2, 1])
    K = tw.field
    for label, a, tag, order in (("A_1", K.p, "cyclic", 4),
                                 ("A_2", K.add(K.p, 1), "dicyclic", 8)):
        S = sfd.build_semifield(tw, (K.neg(a), 0, 1))
        L = lp.build_loop(S)
        M = lp.mlt_group(L)
        check(fails, L.size == 80, f"{label} loop order")
        # GL(4,3); the SL-scale reference 12130560 / 151632 is off by q-1 = 2
        check(fails, M.order == 24261120, f"{label} |Mlt| got {M.order}")
        inn_order, _ = lp.inn_group(L, M)
        check(fails, inn_order == 303264, f"{label} |Inn| got {inn_order}")
        det_certificate(fails, label, S, M)
        translations = [Permutation(perm.tolist()) for a in range(L.size)
                        for perm in (L.left_translation(a), L.right_translation(a))]
        sym_order = PermutationGroup(translations).order()
        check(fails, sym_order == M.order, f"{label} sympy |Mlt| {sym_order}")
        gid = ag.aut_group_structure(S, ag.solve_aut_conditions(S))
        check(fails, (gid.tag, gid.order) == (tag, order), f"{label} Aut")
    count, _ = cs.cyclic_algebra_classes(tw)
    check(fails, count == 2, "classes at (3,2)")
    check(fails, cs.numb_bound(3, 2) == 2, "bound met with equality")
    elapsed = time.time() - t0
    check(fails, elapsed < 120, "runtime")
    report(2, fails, elapsed)


def test_acceptance_3_order624():
    t0 = time.time()
    fails = []
    tw = gf.make_tower(5, 1, 2, modulus=[3, 0, 1])
    K = tw.field
    sqrt2 = K.p
    for label, a, min_auts in (("sqrt2", sqrt2, 12),
                               ("1+2sqrt2", K.add(1, K.mul(2, sqrt2)), 6)):
        S = sfd.build_semifield(tw, (K.neg(a), 0, 1))
        L = lp.build_loop(S)
        M = lp.mlt_group(L)
        check(fails, L.size == 624, f"{label} loop order")
        # GL(4,5); the SL-scale reference 29016000000 / 46500000 is off by q-1 = 4
        check(fails, M.order == 116064000000, f"{label} |Mlt| got {M.order}")
        inn_order, _ = lp.inn_group(L, M)
        check(fails, inn_order == 186000000, f"{label} |Inn| got {inn_order}")
        det_certificate(fails, label, S, M)
        auts = ag.solve_aut_conditions(S)
        check(fails, len(auts) >= min_auts, f"{label} >= {min_auts} autos")
    elapsed = time.time() - t0
    check(fails, elapsed < 600, "runtime")
    report(3, fails, elapsed)


def test_acceptance_4_census():
    t0 = time.time()
    fails = []
    check(fails, [cs.gammaL_orbit_count(q, 2) for q in (2, 3, 4, 5)] == [1, 2, 1, 3],
          "M(q,2) row")
    try:
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            for m in range(2, 9):
                n = cs.count_central_irreducible(q, m)  # internal cross-check
                if q ** m <= 2 ** 16:
                    check(fails, n == cs.count_irreducible_enum(q, m),
                          f"enumeration at ({q},{m})")
    except cs.FormulaMismatch as exc:
        fails.append(str(exc))
    elapsed = time.time() - t0
    check(fails, elapsed < 60, "runtime")
    report(4, fails, elapsed)


def test_acceptance_5_structural_invariants():
    t0 = time.time()
    fails = []
    for S, L, M, inn_order in battery():
        tag = f"f={sp.format_poly(S.tower, S.f)}/q={S.tower.q}"
        q, n, m = S.tower.q, S.tower.n, S.m
        check(fails, L.size == q ** (n * m) - 1, f"{tag} |L|")
        rep = sfd.nuclei(S)
        check(fails, rep.nuc_l.cardinality == q ** n, f"{tag} Nuc_l")
        check(fails, rep.nuc_m.cardinality == q ** n, f"{tag} Nuc_m")
        check(fails, rep.nuc_r.cardinality == q ** m, f"{tag} Nuc_r")
        check(fails, M.order == L.size * inn_order, f"{tag} |Mlt|=|L||Inn|")
        # translations are linear over the center F_q, dimension n*m
        check(fails, pg.sl_order(n * m, q) <= M.order <= pg.gl_order(n * m, q),
              f"{tag} sandwich")
        if S.size <= 81:
            nl, nm, nr = sfd.nuclei_bruteforce(S)
            check(fails, set(nl) == set(rep.nuc_l.elements) and
                  set(nm) == set(rep.nuc_m.elements) and
                  set(nr) == set(rep.nuc_r.elements), f"{tag} brute nuclei")
        check(fails, set(sfd.nuc_r_membership(S)) == set(rep.nuc_r.elements),
              f"{tag} Nuc_r membership")
    elapsed = time.time() - t0
    check(fails, elapsed < 300, "runtime")
    report(5, fails, elapsed)


def test_acceptance_6_inner_laws():
    t0 = time.time()
    fails = []
    hit = 0
    for S, L, M, inn_order in battery():
        rep = sfd.nuclei(S)
        if rep.nuc.cardinality != S.tower.field.order:
            continue
        hit += 1
        tag = f"f={sp.format_poly(S.tower, S.f)}/q={S.tower.q}"
        q, n = S.tower.q, S.tower.n
        s = (q ** n - 1) // (q - 1)
        inners = ag.inner_automorphisms(S)
        check(fails, len(inners) == s, f"{tag} count s")
        gid = ag.inner_group_structure(S, inners)
        check(fails, (gid.tag, gid.order) == ("cyclic", s), f"{tag} cyclic s")
        auts = ag.solve_aut_conditions(S)
        try:
            match = oracles.match_inner_to_hk(S, inners, auts)
            check(fails, len(match) == len(inners), f"{tag} H_id_k match")
        except AssertionError:
            fails.append(f"{tag} norm-1 match")
    check(fails, hit > 0, "no instance with Nuc = K^x")
    report(6, fails, time.time() - t0)


def preserves_table(table, images) -> bool:
    """Full loop-table oracle: images[0] = 0 and h(ab) = h(a)h(b) on every
    pair of nonzero elements (table indices are codes minus one)."""
    if images[0] != 0:
        return False
    h = np.array(images[1:], dtype=np.int32) - 1
    return bool(np.array_equal(h[table], table[h][:, h]))


def test_acceptance_7_aut_verification():
    t0 = time.time()
    fails = []
    for S, L, M, inn_order in battery():
        tag = f"f={sp.format_poly(S.tower, S.f)}/q={S.tower.q}"
        auts = ag.solve_aut_conditions(S)
        # image tables built here from the matrices, for the pointwise oracles
        tables = {(H.tau_exp, H.k): oracles.apply_aut(S, H, np.arange(S.size)) for H in auts}
        for H in auts:
            check(fails, ag._is_multiplicative(S, H.matrix),
                  f"{tag} multiplicative ({H.tau_exp},{H.k})")
            if S.size <= 625:
                check(fails, preserves_table(L.table, tables[(H.tau_exp, H.k)]),
                      f"{tag} loop table ({H.tau_exp},{H.k})")
            check(fails, ag._ring_scaling_ok(S, H.tau_exp, H.k),
                  f"{tag} ring scaling ({H.tau_exp},{H.k})")
        for a in auts:
            for b in auts:
                params = ag.compose_params(S, a, b)
                ok = params in tables and np.array_equal(
                    tables[(a.tau_exp, a.k)][tables[(b.tau_exp, b.k)]], tables[params])
                check(fails, ok, f"{tag} composition")
                if not ok:
                    break
    report(7, fails, time.time() - t0)


def _sandler_tuples():
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        for r in range(1, 9):
            for n in range(2, 9):
                l = r * n
                for m in range(2, n + 1):
                    if p ** (l * m) > 2 ** 16:
                        continue
                    try:
                        cs.sandler_exists(p, r, l, m)
                    except cs.PreconditionViolated:
                        continue
                    out.append((p, r, l, m))
    return out


def test_acceptance_8_sandler():
    t0 = time.time()
    fails = []
    tuples = _sandler_tuples()
    check(fails, len(tuples) >= 10, "tuple coverage")
    for p, r, l, m in tuples:
        exists, admissible = cs.sandler_exists(p, r, l, m)
        tw = gf.make_tower(p, r, l // r)
        K = tw.field
        direct = []
        for u in range(K.order - 1):
            f = tuple([K.neg(K.exp[u])] + [0] * (m - 1) + [1])
            if sp.is_admissible(tw, f):
                direct.append(u)
        check(fails, exists == bool(direct) and sorted(admissible) == direct,
              f"({p},{r},{l},{m})")
    # alpha^12 at (p,l,m) = (11,2,5): integers only, no field construction
    exists, admissible = cs.sandler_exists(11, 1, 2, 5)
    check(fails, exists and 12 in admissible, "(11,2,5) u=12")
    report(8, fails, time.time() - t0)


def test_acceptance_9_declared_substitutions():
    t0 = time.time()
    fails = []
    # degree-65535 multiplication group: sandwich bounds instead of a BSGS
    lo, hi = pg.sl_order(16, 2), pg.gl_order(16, 2)
    check(fails, lo == hi and lo > 0, "sandwich at (16,2)")
    # non-Lagrange at astronomical order: same machinery on the order-15 loop
    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    S = sfd.build_semifield(tw, (K.neg(K.p), 0, 1))
    L = lp.build_loop(S)
    orders, weak, strong = lp.subloops_and_lagrange(L)
    check(fails, orders == [1, 3, 6, 15] and not weak and not strong,
          "small-loop Lagrange machinery")
    # asymptotic bound: the formula value at the declared parameters
    check(fails, cs.kantor_bound(2, 4, 4) == 2 ** 16 * 4.0, "bound formula")
    report(9, fails, time.time() - t0)
