"""Nonassociative quaternion-like algebras: f = t^2 - a over K = F_9 and
K = F_25 with sigma the Frobenius.

Over F_9 there are exactly two isomorphism classes, represented by a
primitive element and by an element of multiplicative order 4; their loops
share |Mlt| and |Inn| but differ in the automorphism-parameter group
(cyclic of order 4 versus the quaternion group Dic_2).  Over F_25 there are
three classes; the script reports the a = sqrt(2) and a = 1 + 2 sqrt(2)
representatives.
"""

from skewloop import autgroup, census, gf, loops, semifield


def describe(tower, a, label):
    K = tower.field
    S = semifield.build_semifield(tower, (K.neg(a), 0, 1))
    L = loops.build_loop(S)
    M = loops.mlt_group(L)
    inn_order, _ = loops.inn_group(L, M)
    auts = autgroup.solve_aut_conditions(S)
    gid = autgroup.aut_group_structure(S, auts)
    inners = autgroup.inner_automorphisms(S)
    print(f"\na = {label} ({K.format_element(a)}), |L| = {L.size}")
    print(f"  |Mlt| = {M.order}, |Inn| = {inn_order}")
    print(f"  H_(tau,k) solutions: {len(auts)}, group {gid.tag} of order "
          f"{gid.order}")
    print(f"  inner automorphisms G_c: {len(inners)} "
          f"({autgroup.inner_group_structure(S, inners).tag})")
    return S


def main():
    # F_9 with modulus x^2 + 2x + 2: x is primitive, x + 1 has order 4
    tower9 = gf.make_tower(3, 1, 2, modulus=[2, 2, 1])
    K9 = tower9.field
    print("=== K = F_9, f = t^2 - a ===")
    count, reps = census.cyclic_algebra_classes(tower9)
    print(f"isomorphism classes: {count} "
          f"(reps {[K9.format_element(r) for r in reps]}; "
          f"upper bound {census.numb_bound(3, 2)})")
    describe(tower9, K9.p, "primitive")
    describe(tower9, K9.add(K9.p, 1), "order 4")

    # F_25 = F_5(sqrt 2) with modulus x^2 - 2
    tower25 = gf.make_tower(5, 1, 2, modulus=[3, 0, 1])
    K25 = tower25.field
    print("\n=== K = F_25, f = t^2 - a ===")
    count, _ = census.cyclic_algebra_classes(tower25)
    print(f"isomorphism classes: {count} "
          f"(upper bound {census.numb_bound(5, 2)})")
    sqrt2 = K25.p
    describe(tower25, sqrt2, "sqrt(2)")
    describe(tower25, K25.add(1, K25.mul(2, sqrt2)), "1 + 2 sqrt(2)")


if __name__ == "__main__":
    main()
