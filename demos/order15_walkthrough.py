"""Walk through the smallest interesting example: K = F_4 over F = F_2 with
sigma the Frobenius x -> x^2, and f = t^2 - x for x a generator of F_4^x.

The quotient S_f = K[t;sigma]/K[t;sigma]f is a proper semifield of order 16
and its nonzero elements form a loop of order 15.  The script builds the
loop, computes nuclei, the multiplication group and inner mapping group,
and checks cyclicity and the (failing) Lagrange property.
"""

from skewloop import gf, loops, semifield, skewpoly


def main():
    tower = gf.make_tower(2, 1, 2)
    K = tower.field
    x = K.p  # the residue class of the modulus variable; a generator of F_4^x
    print(f"K = F_{K.order}, modulus {list(K.modulus)}, sigma = Frobenius^"
          f"{tower.r}, fixed field F_{tower.q}")

    f = (K.neg(x), 0, 1)  # t^2 - x
    print(f"f = {skewpoly.format_poly(tower, f)}")
    print(f"  irreducible: {skewpoly.is_irreducible(tower, f)}")
    print(f"  right invariant: {skewpoly.is_right_invariant(tower, f)}")

    S = semifield.build_semifield(tower, f)
    print(f"\n|S_f| = {S.size}; sample product: "
          f"t * t = {S.decode(S.mul(S.t, S.t))} (= x, since t^2 = x mod f)")

    rep = semifield.nuclei(S)
    print("\nnuclei:")
    for name, info in (("left", rep.nuc_l), ("middle", rep.nuc_m),
                       ("right", rep.nuc_r), ("nucleus", rep.nuc),
                       ("center", rep.center)):
        print(f"  {name:8s} |.| = {info.cardinality:2d}  ({info.field_tag})")

    L = loops.build_loop(S)
    M = loops.mlt_group(L)
    inn_order, _ = loops.inn_group(L, M)
    print(f"\nloop order {L.size}")
    print(f"|Mlt(L)| = {M.order}  (= |GL(4,2)| = |SL(4,2)|)")
    print(f"|Inn(L)| = {inn_order}  (= |Mlt| / |L| = {M.order // L.size})")

    left, right, wit = loops.cyclicity(L)
    print(f"\nleft cyclic: {left}, right cyclic: {right}; "
          f"a right generator: element #{wit['right']}")

    orders, weak, strong = loops.subloops_and_lagrange(L)
    print(f"subloop orders: {orders}")
    print(f"Lagrange holds: {weak} (the subloop of order 6 does not "
          f"divide 15)")


if __name__ == "__main__":
    main()
