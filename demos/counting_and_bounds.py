"""Counting central irreducibles and classifying the semifields they give.

Prints the N(q,m) table (monic irreducible f in K[t;sigma] of degree m with
coefficients generating K, counted by two independent formulas), the
Gamma L(1,q)-orbit counts M(q,m) that bound isotopy classes, the gcd
existence criterion for binomials t^m - a, and a similarity check that
detects isotopic quotients.
"""

from skewloop import census, gf, skewpoly


def main():
    print("N(q,m): central irreducible count (Moebius sum, cross-checked)")
    header = "q\\m " + "".join(f"{m:>8d}" for m in range(2, 6))
    print(header)
    for q in (2, 3, 4, 5, 7, 8, 9):
        row = f"{q:<4d}"
        for m in range(2, 6):
            row += f"{census.count_central_irreducible(q, m):>8d}"
        print(row)

    print("\nM(q,2): orbit count under (a_i) -> (rho(a_i) lambda^(i-m))")
    for q in (2, 3, 4, 5, 7, 8, 9):
        print(f"  M({q},2) = {census.gammaL_orbit_count(q, 2)}")

    print("\nbinomial existence, f = t^m - alpha^u over F_(p^l):")
    for p, r, l, m in [(2, 1, 2, 2), (3, 1, 2, 2), (5, 1, 2, 2), (11, 1, 2, 5)]:
        exists, admissible = census.sandler_exists(p, r, l, m)
        show = admissible[:8] + (["..."] if len(admissible) > 8 else [])
        print(f"  (p,r,l,m)=({p},{r},{l},{m}): exists={exists}, "
              f"admissible u = {show}")

    # similarity: f and g fall in one class of census.similarity_classes
    # (equal reduced norms), so R/Rf and R/Rg are isomorphic R-modules
    tower = gf.make_tower(2, 1, 2)
    K = tower.field
    f = (K.neg(K.p), 0, 1)            # t^2 - x
    g = (K.neg(K.add(K.p, 1)), 0, 1)  # t^2 - (x+1)
    print(f"\nsimilar({skewpoly.format_poly(tower, f)}, "
          f"{skewpoly.format_poly(tower, g)}) = "
          f"{len(census.similarity_classes(tower, 2, [f, g])) == 1}  (M(2,2) = 1: a single class)")

    rep = census.bounds_report(5, 2, 2, tower=gf.make_tower(5, 1, 2))
    print("\nbounds report at (q,n,m) = (5,2,2):")
    for key, value in rep.json().items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()
