"""The benchmark's workloads: seeded inputs and fixed query lists.

Every workload is a closed loop: one caller issues queries back to back and
waits for each answer.  `setup(rec, seed)` builds the towers and validated
semifields a pass needs (the seed only chooses inputs; library-internal seeds
keep their defaults); `run(rec, inputs)` is one pass over the query list.

groups     Mlt and Inn by Schreier-Sims on six loops of order 80 to 728.
           Loads gf, semifield, loops, permgroup; bypasses autgroup, census.
structure  Semifield arithmetic: nuclei, inverses, H_(tau,k) scan, inner
           automorphisms, brute-force nuclei.  Loads gf, skewpoly, semifield,
           autgroup; builds no Mlt, bypasses permgroup and census.
census     Counting and classification: N(q,m), M(q,m), similarity, cyclic
           algebra classes, the gcd criterion, admissible enumeration.  Loads
           gf, skewpoly, census; builds no semifield and no loop.

The 728-point loop of `groups` is fixed (the first admissible f of F_9, m=3,
as in the acceptance battery): across six admissible f its mlt_group took
7.1 s to 9.6 s (2-core x86-64), too wide a spread for a steady
`query_max_s`.
"""

from __future__ import annotations

import hashlib
import json
import random

from skewloop import autgroup as ag
from skewloop import census as cs
from skewloop import gf
from skewloop import loops as lp
from skewloop import semifield as sfd
from skewloop import skewpoly as sp

import checks


def digest(obj) -> str:
    """Short hash of a long exact output, so the stored outputs stay small."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def admissible_list(tower, m: int) -> list:
    return list(sp.enumerate_admissible(tower, m))


def enumerate_admissible(rec, tw, m: int) -> list:
    fs = rec.call("skewpoly.enumerate_admissible", admissible_list, tw, m)
    rec.count("skewpoly.candidates", tw.field.order ** m)
    rec.count("skewpoly.admissible", len(fs))
    return fs


def binomial(K, a: int, m: int) -> tuple:
    """t^m - a."""
    return (K.neg(a),) + (0,) * (m - 1) + (1,)


def sample_admissible(rec, rng: random.Random, tower, m: int, count: int) -> list:
    """`count` distinct admissible monic f of degree m, drawn uniformly."""
    K = tower.field
    out: list = []
    while len(out) < count:
        f = tuple(rng.randrange(K.order) for _ in range(m)) + (1,)
        if f not in out and rec.call("skewpoly.is_admissible", sp.is_admissible, tower, f):
            out.append(f)
    return out


def tower(rec, p: int, r: int, n: int, modulus=None):
    return rec.call("gf.make_tower", gf.make_tower, p, r, n, modulus=modulus)


def semifield(rec, tw, f):
    return rec.call("semifield.build_semifield", sfd.build_semifield, tw, f)


# ---------------------------------------------------------------------------
# groups

def groups_setup(rec, seed: int) -> list:
    rng = random.Random(seed)
    f9 = tower(rec, 3, 1, 2, modulus=[2, 2, 1])
    f25 = tower(rec, 5, 1, 2, modulus=[3, 0, 1])
    f9b = tower(rec, 3, 1, 2)
    f16 = tower(rec, 2, 2, 2)
    K9, K25 = f9.field, f25.field
    sqrt2 = K25.p
    plan = [
        ("F9:A_1", f9, binomial(K9, K9.p, 2)),
        ("F9:A_2", f9, binomial(K9, K9.add(K9.p, 1), 2)),
        ("F25:sqrt2", f25, binomial(K25, sqrt2, 2)),
        ("F25:1+2sqrt2", f25, binomial(K25, K25.add(1, K25.mul(2, sqrt2)), 2)),
        ("F9m3:728", f9b, (1, 0, 2, 1)),
    ]
    (f255,) = sample_admissible(rec, rng, f16, 2, 1)
    plan.append(("F16m2:255", f16, f255))
    return [(label, semifield(rec, tw, f)) for label, tw, f in plan]


def groups_run(rec, instances: list) -> None:
    for label, S in instances:
        q, n, m = S.tower.q, S.tower.n, S.m
        L = M = None
        with rec.query(f"{label}/build_loop"):
            L = rec.call("loops.build_loop", lp.build_loop, S)
            rec.count("loops.table_entries", L.size ** 2)
            rec.check(checks.loop_order(L.size, q, n, m))
            rec.output(L.size)
        with rec.query(f"{label}/mlt_group"):
            M = rec.call("loops.mlt_group", lp.mlt_group, L)
            rec.count("permgroup.base_len", len(M.base))
            rec.count("permgroup.strong_gens", len(M.strong_generators()))
            rec.check(checks.mlt_sandwich(M.order, n * m, q))
            rec.output({"order": M.order, "base": M.base, "orbits": M.orbit_lengths()})
        with rec.query(f"{label}/inn_group"):
            inn, _ = rec.call("loops.inn_group", lp.inn_group, L, M)
            rec.check(checks.mlt_factorisation(M.order, L.size, inn))
            rec.output(inn)
            if label in checks.SL_REFERENCE:
                ref_mlt, ref_inn = checks.SL_REFERENCE[label]
                rec.notes.setdefault("sl_reference", {})[label] = {
                    "mlt": M.order, "mlt_sl_reference": ref_mlt,
                    "inn": inn, "inn_sl_reference": ref_inn,
                    "mlt_ratio": M.order / ref_mlt, "inn_ratio": inn / ref_inn}
        with rec.query(f"{label}/cyclicity"):
            left, right, witnesses = rec.call("loops.cyclicity", lp.cyclicity, L)
            rec.output([left, right, witnesses["left"], witnesses["right"]])
        with rec.query(f"{label}/contains"):
            outside = [a for a in range(L.size)
                       for g in (L.left_translation(a), L.right_translation(a))
                       if not rec.call("permgroup.contains", M.contains, g)]
            rec.count("permgroup.sifts", 2 * L.size)
            rec.check([f"translation of {a} not in Mlt" for a in outside[:5]])
            rec.output(len(outside))
        if label.startswith("F16m2"):
            with rec.query(f"{label}/subloops_and_lagrange"):
                orders, weak, strong = rec.call(
                    "loops.subloops_and_lagrange", lp.subloops_and_lagrange, L)
                rec.check(checks.lagrange(orders, weak, strong, L.size))
                rec.output([orders, weak, strong])


# ---------------------------------------------------------------------------
# structure

INVERSES_PER_F = 32
# (label, tower arguments, m, samples, brute-force nuclei on the first sample)
STRUCTURE_SAMPLES = [
    ("F4m3", (2, 1, 2), 3, 2, True),
    ("F8m2", (2, 1, 3), 2, 2, False),
    ("F16m2", (2, 2, 2), 2, 2, False),
    ("F25m2", (5, 1, 2), 2, 2, False),
    ("F9m3", (3, 1, 2), 3, 1, False),
]


def structure_setup(rec, seed: int) -> list:
    rng = random.Random(seed)
    f4 = tower(rec, 2, 1, 2)
    f9 = tower(rec, 3, 1, 2, modulus=[2, 2, 1])
    K9 = f9.field
    names = {binomial(K9, K9.p, 2): "A_1", binomial(K9, K9.add(K9.p, 1), 2): "A_2"}
    plan = []
    for f in enumerate_admissible(rec, f4, 2):
        plan.append((f"F4m2:{f}", f4, f, True))
    for f in enumerate_admissible(rec, f9, 2):
        plan.append((f"F9:{names.get(f, f)}", f9, f, False))
    towers = {(2, 1, 2): f4, (3, 1, 2): f9}
    for name, args, m, count, brute in STRUCTURE_SAMPLES:
        tw = towers.get(args) or tower(rec, *args)
        for i, f in enumerate(sample_admissible(rec, rng, tw, m, count)):
            plan.append((f"{name}:{f}", tw, f, brute and i == 0))
    out = []
    for label, tw, f, brute in plan:
        S = semifield(rec, tw, f)
        xs = [rng.randrange(1, S.size) for _ in range(INVERSES_PER_F)]
        out.append((label, S, xs, brute))
    return out


def structure_run(rec, instances: list) -> None:
    for label, S, xs, brute in instances:
        K = S.tower.field
        q, n, m = S.tower.q, S.tower.n, S.m
        auts = None
        with rec.query(f"{label}/analysis_json"):
            rep = rec.call("semifield.analysis_json", sfd.analysis_json, S)
            nuc = rep["nuclei"]
            rec.check(checks.nuclei_orders(nuc["left"]["cardinality"],
                                           nuc["middle"]["cardinality"],
                                           nuc["right"]["cardinality"], q, n, m))
            rec.output(rep)
        with rec.query(f"{label}/inverses"):
            pairs = [rec.call("semifield.inverses", sfd.inverses, S, x) for x in xs]
            rec.check(checks.inverse_pairs(S, xs, pairs))
            rec.output(pairs)
        with rec.query(f"{label}/solve_aut_conditions"):
            auts = rec.call("autgroup.solve_aut_conditions", ag.solve_aut_conditions, S)
            rec.count("autgroup.candidates", K.l * (K.order - 1))
            rec.count("autgroup.found", len(auts))
            rec.output([[H.tau_exp, H.k] for H in auts])
        with rec.query(f"{label}/aut_group_structure"):
            gid = rec.call("autgroup.aut_group_structure", ag.aut_group_structure, S, auts)
            rec.check(checks.aut_group(label, gid.tag, gid.order, len(auts)))
            rec.output([gid.tag, gid.order, gid.params])
        with rec.query(f"{label}/inner_automorphisms"):
            inners = rec.call("autgroup.inner_automorphisms", ag.inner_automorphisms, S)
            rec.output([ia.c for ia in inners])
        if brute:
            report = None
            with rec.query(f"{label}/nuclei"):
                report = rec.call("semifield.nuclei", sfd.nuclei, S)
                rec.output([report.nuc_l.elements, report.nuc_m.elements,
                            report.nuc_r.elements])
            with rec.query(f"{label}/nuclei_bruteforce"):
                brute_sets = rec.call("semifield.nuclei_bruteforce", sfd.nuclei_bruteforce, S)
                rec.count("semifield.associators", 3 * S.size ** 3)
                rec.check(checks.nuclei_agree(
                    brute_sets, (report.nuc_l.elements, report.nuc_m.elements,
                                 report.nuc_r.elements)))
                rec.output([sorted(s) for s in brute_sets])


# ---------------------------------------------------------------------------
# census

CENSUS_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
CENSUS_M = range(2, 9)
ORBIT_CASES = [(2, 2), (3, 2), (4, 2), (5, 2), (7, 3), (9, 3), (16, 3), (25, 2), (49, 2)]
# towers with n = m for cyclic_algebra_classes; F_9 is always included, the
# seed picks CYCLIC_PICKS of the others
CYCLIC_POOL = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (5, 1, 2), (2, 1, 4), (7, 1, 2),
               (3, 1, 3), (2, 3, 2), (2, 1, 5), (11, 1, 2), (13, 1, 2)]
CYCLIC_PICKS = 4
ENUMERATE_CASES = [((5, 1, 2), 2), ((3, 1, 2), 3), ((7, 1, 2), 2)]


def sandler_tuples() -> list[tuple[int, int, int, int]]:
    """(p, r, l, m) of the acceptance battery with p^(lm) <= 2^16 for which
    the gcd criterion applies."""
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


def census_setup(rec, seed: int) -> dict:
    rng = random.Random(seed)
    f9 = tower(rec, 3, 1, 2, modulus=[2, 2, 1])
    f4 = tower(rec, 2, 1, 2)
    similarity = [("F9m2", f9, 2), ("F4m3", f4, 3)]
    cyclic = [("F9", f9)] + [(f"F{p ** (r * n)}/F{p ** r}", tower(rec, p, r, n))
                             for p, r, n in sorted(rng.sample(CYCLIC_POOL, CYCLIC_PICKS))]
    return {
        "similarity": [(label, tw, m, enumerate_admissible(rec, tw, m))
                       for label, tw, m in similarity],
        "cyclic": cyclic,
        "enumerate": [(f"F{p ** (r * n)}m{m}", tower(rec, p, r, n), m)
                      for (p, r, n), m in ENUMERATE_CASES],
    }


def census_run(rec, inputs: dict) -> None:
    for q in CENSUS_Q:
        for m in CENSUS_M:
            with rec.query(f"N({q},{m})/count_central_irreducible"):
                central = rec.call("census.count_central_irreducible",
                                   cs.count_central_irreducible, q, m)
                theta = rec.call("census.theta", cs.theta, q, m)
                rec.check(checks.n_qm(q, m, central=central, theta=theta))
                rec.output(central)
            if q ** m <= cs.CLASSIFY_LIMIT:
                with rec.query(f"N({q},{m})/count_irreducible_enum"):
                    enum = rec.call("census.count_irreducible_enum",
                                    cs.count_irreducible_enum, q, m)
                    rec.check(checks.n_qm(q, m, enum=enum))
                    rec.output(enum)
    for q, m in ORBIT_CASES:
        with rec.query(f"M({q},{m})/gammaL_orbit_count"):
            orbits = rec.call("census.gammaL_orbit_count", cs.gammaL_orbit_count, q, m)
            rec.check(checks.orbit_count_q2(q, m, orbits))
            rec.output(orbits)
    for label, tw, m, fs in inputs["similarity"]:
        with rec.query(f"{label}/similarity_classes"):
            classes = rec.call("census.similarity_classes", cs.similarity_classes, tw, m, fs)
            rec.count("census.pairs_tested", len(fs) * (len(fs) - 1) // 2)
            rec.check(checks.partition(classes, fs))
            rec.output([sorted(len(c) for c in classes), digest(classes)])
    for label, tw in inputs["cyclic"]:
        with rec.query(f"{label}/cyclic_algebra_classes"):
            count, reps = rec.call("census.cyclic_algebra_classes",
                                   cs.cyclic_algebra_classes, tw)
            if label == "F9":
                rec.check(checks.classes_3_2(count))
            rec.output([count, reps])
    for p, r, l, m in sandler_tuples():
        with rec.query(f"sandler({p},{r},{l},{m})"):
            exists, exps = rec.call("census.sandler_exists", cs.sandler_exists, p, r, l, m)
            tw = tower(rec, p, r, l // r)
            K = tw.field
            direct = [u for u in range(K.order - 1)
                      if rec.call("skewpoly.is_admissible", sp.is_admissible, tw,
                                  binomial(K, K.exp[u], m))]
            rec.check(checks.sandler(exists, exps, direct))
            rec.output([exists, len(exps), digest(sorted(exps))])
    for label, tw, m in inputs["enumerate"]:
        with rec.query(f"{label}/enumerate_admissible"):
            fs = enumerate_admissible(rec, tw, m)
            rec.check(checks.monic_sorted(fs, m))
            rec.output([len(fs), digest(fs)])


WORKLOADS = {
    "groups": (groups_setup, groups_run),
    "structure": (structure_setup, structure_run),
    "census": (census_setup, census_run),
}
