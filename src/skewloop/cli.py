"""Command-line front end.

Subcommands: field info; skew irreducible|divmod; semifield analyze;
loop mlt|inn|aut|inner|cyclic|lagrange|latin; census count|classify|bounds;
verify.  Exit codes: 0 success, 2 usage, 3 cap violation (the one cap
exception `gf.SizeCapExceeded`, or a number beyond float range), 4 internal
invariant failure.  JSON output renders group orders as decimal strings so
the format is independent of native integer width.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import autgroup as ag
from . import census as cs
from . import loops as lp
from . import permgroup as pg
from . import semifield as sfd
from . import skewpoly as sp
from .gf import SizeCapExceeded, TowerCtx, make_tower, parse_field_descriptor

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INVARIANT = 4


def _tower_from_args(args) -> TowerCtx:
    p, l = parse_field_descriptor(args.field)
    r = args.sigma_r
    if r < 1:
        raise ValueError(f"--sigma-r must be at least 1, got {r}")
    if l % r != 0 or l // r < 2:
        raise ValueError(f"sigma-r {r} does not split {args.field} into a tower")
    modulus = None
    if args.mod:
        modulus = [int(c) % p for c in args.mod.split(",")]
    return make_tower(p, r, l // r, modulus=modulus)


def _semifield_from_args(args) -> sfd.SemifieldCtx:
    tower = _tower_from_args(args)
    f = sp.parse_poly(tower, args.f)
    return sfd.build_semifield(tower, f)


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_field_info(args) -> int:
    tower = _tower_from_args(args)
    K = tower.field
    _emit(args, {
        "order": K.order,
        "characteristic": K.p,
        "degree": K.l,
        "modulus": list(K.modulus),
        "generator_order": K.order - 1,
        "sigma_order": tower.n,
        "fixed_field_order": K.p ** tower.r,
    })
    return EXIT_OK


def cmd_skew_irreducible(args) -> int:
    tower = _tower_from_args(args)
    f = sp.parse_poly(tower, args.f)
    f = sp.make_monic(tower, f)
    verdict = sp.is_irreducible(tower, f)
    _emit(args, {
        "f": sp.format_poly(tower, f),
        "irreducible": verdict,
        "right_invariant": sp.is_right_invariant(tower, f),
        "admissible": sp.is_admissible(tower, f),
        "reduced_norm": sp.format_poly(tower, sp.reduced_norm(tower, f), var="y"),
    })
    return EXIT_OK


def cmd_skew_divmod(args) -> int:
    tower = _tower_from_args(args)
    g = sp.parse_poly(tower, args.g)
    f = sp.parse_poly(tower, args.f)
    q, r = sp.right_divmod(tower, g, f)
    _emit(args, {
        "quotient": sp.format_poly(tower, q),
        "remainder": sp.format_poly(tower, r),
    })
    return EXIT_OK


def cmd_semifield_analyze(args) -> int:
    S = _semifield_from_args(args)
    _emit(args, sfd.analysis_json(S))
    return EXIT_OK


def _loop_from_args(args) -> lp.LoopCtx:
    S = _semifield_from_args(args)
    if S.size - 1 > pg.DEGREE_CAP:
        d, q = S.tower.n * S.m, S.tower.q
        raise SizeCapExceeded(
            f"loop degree {S.size - 1} exceeds cap {pg.DEGREE_CAP}\n"
            f"SL/GL sandwich: {pg.sl_order(d, q)} <= |Mlt| <= {pg.gl_order(d, q)}; "
            f"a BSGS at this degree would need {4 * (S.size - 1) ** 2} bytes per level "
            f"(one {S.size - 1}x{S.size - 1} int32 table of inverse coset representatives)")
    return lp.build_loop(S)


def cmd_loop(args) -> int:
    if args.what == "latin":
        L = _loop_from_args(args)
        lp.write_latin_csv(L, args.out)
        print(f"wrote {L.size}x{L.size} Latin square to {args.out}")
        return EXIT_OK
    if args.what in ("aut", "inner"):
        S = _semifield_from_args(args)
        if args.what == "aut":
            auts = ag.solve_aut_conditions(S)
            payload = {"hk_count": len(auts),
                       "hk_parameters": [[H.tau_exp, H.k] for H in auts]}
            try:
                gid = ag.aut_group_structure(S, auts)
            except SizeCapExceeded:
                _emit(args, payload)    # the maps are found; only their group is capped
                raise
            _emit(args, {**payload, "group_tag": gid.tag, "group_order": str(gid.order)})
        else:
            inners = ag.inner_automorphisms(S)
            gid = ag.inner_group_structure(S, inners)
            _emit(args, {
                "inner_count": len(inners),
                "group_tag": gid.tag,
                "group_order": str(gid.order),
            })
        return EXIT_OK

    L = _loop_from_args(args)
    if args.what == "mlt":
        M = lp.mlt_group(L)
        _emit(args, {
            "order": str(M.order),
            "degree": L.size,
            "base_length": len(M.base),
            "orbit_lengths": M.orbit_lengths(),
        })
    elif args.what == "inn":
        M = lp.mlt_group(L)
        inn_order, gens = lp.inn_group(L, M)
        _emit(args, {
            "order": str(inn_order),
            "mlt_order": str(M.order),
            "generator_count": len(gens),
        })
    elif args.what == "cyclic":
        left, right, witnesses = lp.cyclicity(L)
        _emit(args, {"left_cyclic": left, "right_cyclic": right,
                     "witnesses": witnesses})
    elif args.what == "lagrange":
        orders, weak, strong = lp.subloops_and_lagrange(L)
        _emit(args, {"subloop_orders": orders, "weak_lagrange": weak,
                     "strong_lagrange": strong})
    return EXIT_OK


def cmd_census(args) -> int:
    if args.what == "count":
        _emit(args, {
            "q": args.q, "m": args.m,
            "theta": cs.theta(args.q, args.m),
            "N": cs.count_central_irreducible(args.q, args.m),
            "M": cs.gammaL_orbit_count(args.q, args.m),
        })
    elif args.what == "classify":
        tower = _tower_from_args(args)
        count, reps = cs.cyclic_algebra_classes(tower)
        K = tower.field
        _emit(args, {
            "classes": count,
            "representatives": [K.format_element(a) for a in reps],
            "bound": cs.numb_bound(K.p ** tower.r, tower.n),
        })
    else:
        rep = cs.bounds_report(args.q, args.n, args.m)
        _emit(args, rep.json())
    return EXIT_OK


# -- verify: the worked-example regression matrix ---------------------------

def _check(name: str, fn) -> tuple[str, bool, str]:
    try:
        fn()
        return name, True, ""
    except AssertionError as exc:
        return name, False, str(exc)


def _tier1_checks() -> list[tuple[str, bool, str]]:
    results = []
    tw = make_tower(2, 1, 2)
    K = tw.field
    S = sfd.build_semifield(tw, (K.neg(K.p), 0, 1))
    L = lp.build_loop(S)
    M = lp.mlt_group(L)

    results.append(_check("quat2 loop order 15", lambda: _expect(L.size, 15)))
    results.append(_check("quat2 |Mlt| = 20160", lambda: _expect(M.order, 20160)))
    results.append(_check("quat2 |Inn| = 1344",
                          lambda: _expect(lp.inn_group(L, M)[0], 1344)))
    inners = ag.inner_automorphisms(S)
    results.append(_check("quat2 inner automorphisms Z/3", lambda: _expect(
        (len(inners), ag.inner_group_structure(S, inners).tag), (3, "cyclic"))))
    results.append(_check("quat2 right cyclic",
                          lambda: _expect(lp.cyclicity(L)[1], True)))
    results.append(_check("N(q,m) formulas agree (q<=16, m<=8)", lambda: [
        cs.count_central_irreducible(q, m)
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16) for m in range(2, 9)]))
    return results


def _tier2_checks() -> list[tuple[str, bool, str]]:
    results = []
    results.append(_check("M(q,2) = 1,2,1,3 for q=2,3,4,5", lambda: _expect(
        [cs.gammaL_orbit_count(q, 2) for q in (2, 3, 4, 5)], [1, 2, 1, 3])))

    # quat3: K = F_9 with x primitive, x+1 of order 4 (the two class reps)
    tw3 = make_tower(3, 1, 2, modulus=[2, 2, 1])
    K3 = tw3.field
    for label, a, tag, order in (("A_1", K3.p, "cyclic", 4),
                                 ("A_2", K3.add(K3.p, 1), "dicyclic", 8)):
        S = sfd.build_semifield(tw3, (K3.neg(a), 0, 1))
        L = lp.build_loop(S)
        results.append(_check(f"quat3 {label} loop order 80",
                              lambda L=L: _expect(L.size, 80)))
        M = lp.mlt_group(L)
        results.append(_check(f"quat3 {label} |Mlt| = |GL(4,3)| = 24261120",
                              lambda M=M: _expect(M.order, 24261120)))
        results.append(_check(f"quat3 {label} |Inn| = 303264",
                              lambda L=L, M=M: _expect(lp.inn_group(L, M)[0], 303264)))
        auts = ag.solve_aut_conditions(S)
        gid = ag.aut_group_structure(S, auts)
        results.append(_check(f"quat3 {label} Aut {tag} of order {order}",
                              lambda g=gid, t=tag, o=order: _expect((g.tag, g.order), (t, o))))
    results.append(_check("2 classes at (q,m)=(3,2)", lambda: _expect(
        cs.cyclic_algebra_classes(tw3)[0], 2)))
    for label, tw, m in (("F_9", tw3, 2), ("F_4", make_tower(2, 1, 2), 3)):
        results.append(_check(f"{label} m={m}: N(q,m) reduced-norm classes of "
                              "(q^nm-1)/(q^m-1) admissible f",
                              lambda tw=tw, m=m: _expect_census_identities(tw, m)))

    # quat4: K = F_25 = F_5(sqrt 2)
    tw4 = make_tower(5, 1, 2, modulus=[3, 0, 1])
    K4 = tw4.field
    sqrt2 = K4.p
    for label, a, min_auts in (("sqrt2", sqrt2, 12),
                               ("1+2sqrt2", K4.add(1, K4.mul(2, sqrt2)), 6)):
        S = sfd.build_semifield(tw4, (K4.neg(a), 0, 1))
        L = lp.build_loop(S)
        results.append(_check(f"quat4 a={label} loop order 624",
                              lambda L=L: _expect(L.size, 624)))
        M = lp.mlt_group(L)
        results.append(_check(f"quat4 a={label} |Mlt| = |GL(4,5)| = 116064000000",
                              lambda M=M: _expect(M.order, 116064000000)))
        results.append(_check(f"quat4 a={label} |Inn| = 186000000",
                              lambda L=L, M=M: _expect(lp.inn_group(L, M)[0], 186000000)))
        auts = ag.solve_aut_conditions(S)
        results.append(_check(f"quat4 a={label} >= {min_auts} H automorphisms",
                              lambda A=auts, n=min_auts: _expect(len(A) >= n, True)))
    return results


def _expect(got, want) -> None:
    assert got == want, f"got {got}, want {want}"


def _expect_census_identities(tw: TowerCtx, m: int) -> None:
    """(class count, class sizes, admissible count) of the degree-m
    admissible f is (N(q,m), {s}, N(q,m) s) with s = (q^(nm)-1)/(q^m-1)."""
    fs = list(sp.enumerate_admissible(tw, m))
    classes = cs.similarity_classes(tw, m, fs)
    n_qm = cs.count_central_irreducible(tw.q, m)
    size = (tw.q ** (tw.n * m) - 1) // (tw.q ** m - 1)
    _expect((len(classes), {len(c) for c in classes}, len(fs)), (n_qm, {size}, n_qm * size))


def cmd_verify(args) -> int:
    t0 = time.time()
    results = _tier1_checks()
    if args.tier >= 2:
        results += _tier2_checks()
    width = max(len(name) for name, _, _ in results)
    failed = 0
    for name, ok, detail in results:
        line = f"{name:<{width}}  {'PASS' if ok else 'FAIL'}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} passed in {time.time() - t0:.1f}s")
    return EXIT_OK if failed == 0 else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skewloop")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tower_flags(p, need_f=True):
        p.add_argument("--field", required=True, help="p^l, e.g. 3^2")
        p.add_argument("--mod", help="comma-separated modulus coefficients, low degree first")
        p.add_argument("--sigma-r", type=int, default=1, dest="sigma_r",
                       help="sigma = x -> x^(p^r)")
        if need_f:
            p.add_argument("--f", required=True, help='skew polynomial, e.g. "t^2 - g^1"')
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p_field = sub.add_parser("field")
    field_sub = p_field.add_subparsers(dest="what", required=True)
    add_tower_flags(field_sub.add_parser("info"), need_f=False)

    p_skew = sub.add_parser("skew")
    skew_sub = p_skew.add_subparsers(dest="what", required=True)
    add_tower_flags(skew_sub.add_parser("irreducible"))
    p_div = skew_sub.add_parser("divmod")
    add_tower_flags(p_div)
    p_div.add_argument("--g", required=True, help="dividend")

    p_sf = sub.add_parser("semifield")
    sf_sub = p_sf.add_subparsers(dest="what", required=True)
    add_tower_flags(sf_sub.add_parser("analyze"))

    p_loop = sub.add_parser("loop")
    loop_sub = p_loop.add_subparsers(dest="what", required=True)
    for what in ("mlt", "inn", "aut", "inner", "cyclic", "lagrange", "latin"):
        p = add_tower_flags(loop_sub.add_parser(what))
        if what == "latin":
            p.add_argument("--out", required=True, help="CSV output path")

    p_census = sub.add_parser("census")
    census_sub = p_census.add_subparsers(dest="what", required=True)
    p_count = census_sub.add_parser("count")
    p_count.add_argument("--q", type=int, required=True)
    p_count.add_argument("--m", type=int, required=True)
    p_count.add_argument("--format", choices=("text", "json"), default="text")
    p_classify = census_sub.add_parser("classify")
    add_tower_flags(p_classify, need_f=False)
    p_bounds = census_sub.add_parser("bounds")
    for flag in ("--q", "--n", "--m"):
        p_bounds.add_argument(flag, type=int, required=True)
    p_bounds.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--tier", type=int, choices=(1, 2), default=2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    dispatch = {
        "field": cmd_field_info,
        "semifield": cmd_semifield_analyze,
        "loop": cmd_loop,
        "census": cmd_census,
        "verify": cmd_verify,
    }
    try:
        if args.command == "skew":
            handler = cmd_skew_irreducible if args.what == "irreducible" else cmd_skew_divmod
        else:
            handler = dispatch[args.command]
        return handler(args)
    except (SizeCapExceeded, OverflowError) as exc:
        print(f"cap violation: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (AssertionError, cs.FormulaMismatch, ag.NotClosed) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
