"""S_f construction, nuclei (two routes), inverses, t-power diagnostics."""

import itertools
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import add
from skewloop import gf
from skewloop import semifield as sfd
from skewloop import skewpoly as sp


def quat2():
    tw = gf.make_tower(2, 1, 2)
    K = tw.field
    return sfd.build_semifield(tw, (K.neg(K.p), 0, 1))


def quat3(a_shift=0):
    tw = gf.make_tower(3, 1, 2, modulus=[2, 2, 1])
    K = tw.field
    a = K.add(K.p, a_shift)
    return sfd.build_semifield(tw, (K.neg(a), 0, 1))


def test_reducible_f_rejected():
    tw = gf.make_tower(2, 1, 2)
    with pytest.raises(sfd.ReducibleF):
        sfd.build_semifield(tw, (0, 1, 1))  # t^2 + t = t(t+1)


def test_right_invariant_f_rejected():
    # right-invariant f over these towers are central multiples and always
    # reducible (a nontrivial sigma cannot survive in a commutative quotient),
    # so the reducibility guard fires first; the invariance guard is defensive
    tw = gf.make_tower(2, 1, 2)
    f = (1, 0, 1, 0, 0, 0, 1)  # t^6 + t^2 + 1, central image y^3 + y + 1
    assert sp.is_right_invariant(tw, f)
    with pytest.raises(sfd.ReducibleF):
        sfd.build_semifield(tw, f)
    K = tw.field
    for a0 in range(1, 4):
        for a1 in range(4):
            g = (a0, a1, 1)
            assert not (sp.is_irreducible(tw, g) and sp.is_right_invariant(tw, g))


def test_mul_against_hand_formula():
    # (u + vt)(u' + v't) = (uu' + a v sigma(v')) + (uv' + v sigma(u'))t
    S = quat2()
    tw = S.tower
    K = tw.field
    a = K.neg(S.f[0])
    for xu in range(4):
        for xv in range(4):
            for yu in range(4):
                for yv in range(4):
                    got = S.mul(S.encode(sp.poly([xu, xv])), S.encode(sp.poly([yu, yv])))
                    c0 = K.add(K.mul(xu, yu), K.mul(a, K.mul(xv, tw.sigma(yv, 1))))
                    c1 = K.add(K.mul(xu, yv), K.mul(xv, tw.sigma(yu, 1)))
                    assert got == S.encode(sp.poly([c0, c1]))


# (tower arguments, m) of the acceptance battery, |S_f| from 16 to 729
BATTERY_TOWERS = [((2, 1, 2), 2), ((2, 1, 2), 3), ((2, 1, 3), 2), ((3, 1, 2), 2),
                  ((3, 1, 2), 3), ((2, 2, 2), 2), ((5, 1, 2), 2)]


def _ring_product(S, g, u):
    """Test oracle: the code of g u mod_r f, by the ring product and right
    division."""
    return S.encode(oracles.right_rem(S.tower, oracles.skew_mul(S.tower, g, S.decode(u)), S.f))


@pytest.mark.parametrize("p,r,n,m", oracles.BATTERY,
                         ids=[f"F{p ** (r * n)}/F{p ** r}-m{m}" for p, r, n, m in oracles.BATTERY])
def test_products_match_ring_oracle(p, r, n, m):
    # S.mul, the tensor, nuc_r_membership, the annihilator oracle and
    # t_power_diagnostics all read the rows R_k = t^k mod_r f, k < 2m; here
    # each is checked against the ring product and right division, on three
    # seeded admissible f per tower
    tw = gf.make_tower(p, r, n)
    fs = list(sp.enumerate_admissible(tw, m))
    rng = random.Random(tw.field.order * 10 + m)
    for f in rng.sample(fs, 3):
        S = sfd.SemifieldCtx(tower=tw, f=f)
        basis = S.basis()
        want = [[_ring_product(S, S.decode(a), b) for b in basis] for a in basis]
        assert np.array_equal(S.tensor, S.to_vector(want))
        pairs = [(rng.randrange(S.size), rng.randrange(S.size)) for _ in range(200)]
        assert [S.mul(x, y) for x, y in pairs] == [_ring_product(S, S.decode(x), y)
                                                   for x, y in pairs]
        assert sfd.nuc_r_membership(S) == [u for u in range(S.size)
                                           if _ring_product(S, f, u) == 0]
        g = rng.choice(fs)
        kernel = [u for u in range(S.size) if _ring_product(S, g, u) == 0]
        assert sfd._span_elements(S, oracles.annihilator(S, g)) == kernel
        ft = oracles.right_rem(tw, oracles.skew_mul(tw, f, (0, 1)), f)
        assert sfd.t_power_diagnostics(S).associative == (ft == ())


def test_span_elements_cap_allocates_nothing():
    # 21 basis vectors over F_2 span 2^21 > LOG_TABLE_LIMIT elements: the
    # cap is checked before the coefficient list is formed
    S = quat2()
    basis = [[0] * S.dim_prime] * 21
    tracemalloc.start()
    try:
        with pytest.raises(gf.SizeCapExceeded, match=r"2\^21 = 2097152 .* 352321536 bytes"):
            sfd._span_elements(S, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16, peak


def test_codec_is_base_p_digits():
    S = quat3()
    p, D = S.p, S.dim_prime
    codes = np.arange(S.size)
    assert S.basis() == [p ** k for k in range(D)]
    assert S.to_vector(codes).tolist() == [[c // p ** k % p for k in range(D)] for c in codes]
    assert np.array_equal(S.from_vector(S.to_vector(codes)), codes)
    # a code past 2^63: F_4 with m = 32, |S_f| = 2^64 (the codec needs no valid f)
    tw = gf.make_tower(2, 1, 2)
    big = sfd.SemifieldCtx(tower=tw, f=(0,) * 32 + (1,))
    for c in (2 ** 63, 2 ** 64 - 1, 3 * 2 ** 40 + 5):
        assert big.to_vector(c).tolist() == [c >> k & 1 for k in range(64)]
        assert big.from_vector(big.to_vector(c)) == c


def prime_space(p, D):
    """The codec of F_p^D alone: f = t^D over K = F_p (no valid f needed)."""
    K = gf.FieldCtx.create(p, 1)
    return sfd.SemifieldCtx(tower=gf.TowerCtx(field=K, r=1, n=1), f=(0,) * D + (1,))


# (p, D): int32 reduction up to (4093, 1), int64 at (65521, 2)
IMAGES_CASES = [(2, 12), (3, 7), (5, 5), (7, 4), (4093, 1), (65521, 2)]


@pytest.mark.parametrize("p,D", IMAGES_CASES)
def test_images_matches_int64_oracle(p, D):
    S = prime_space(p, D)
    assert (S.p, S.dim_prime) == (p, D)
    rng = np.random.default_rng(p * 100 + D)
    Y = rng.integers(0, p, size=(300, D))
    # the all-(p-1) rows reach the largest sum D (p-1)^2
    Y[0] = p - 1
    mats = rng.integers(0, p, size=(5, D, D))
    mats[0] = p - 1
    want = np.stack([S.from_vector(Y @ M % p) for M in mats])
    assert np.array_equal(S.images(Y, mats), want)
    assert np.array_equal(S.images(Y.astype(np.float64), mats), want)


def test_images_refuses_sums_past_float64():
    """Where D (p-1)^2 >= 2^53 a sum could round in float64: the kernel
    raises instead of returning codes.  The check reads only p and D."""
    p, D = 1048573, 8193              # the largest prime below 2^20
    assert D * (p - 1) ** 2 >= 2 ** 53 > (D - 1) * (p - 1) ** 2
    stub = SimpleNamespace(p=p, dim_prime=D)
    with pytest.raises(OverflowError):
        sfd.SemifieldCtx.images(stub, np.zeros((1, D)), np.zeros((1, D, D)))


def test_images_refuses_codes_past_float64():
    """The codes come from a float64 product with the weights p^k, exact
    only while |S| <= 2^53: above that the kernel raises."""
    stub = SimpleNamespace(p=2, dim_prime=54, size=2 ** 54)
    with pytest.raises(OverflowError, match=r"\|S\|"):
        sfd.SemifieldCtx.images(stub, np.zeros((1, 54)), np.zeros((1, 54, 54)))


@pytest.mark.parametrize("args,m", BATTERY_TOWERS,
                         ids=[f"F{p ** (r * n)}m{m}" for (p, r, n), m in BATTERY_TOWERS])
def test_tensor_reproduces_mul(args, m):
    tw = gf.make_tower(*args)
    S = sfd.build_semifield(tw, next(iter(sp.enumerate_admissible(tw, m))))
    basis = S.basis()
    assert S.product_table(basis).tolist() == [[S.mul(a, b) for b in basis] for a in basis]
    if S.size <= 81:
        codes = range(S.size)
        assert S.product_table(codes).tolist() == [[S.mul(x, y) for y in codes] for x in codes]
    rng = random.Random(2024)
    xs, ys, zs = ([rng.randrange(S.size) for _ in range(2000)] for _ in range(3))
    prods = S.from_vector(S.mul_vectors(S.to_vector(xs), S.to_vector(ys)))
    assert prods.tolist() == [S.mul(x, y) for x, y in zip(xs, ys)]
    # associators of 200 triples against the difference of two oracle products
    got = oracles.associator(S, xs[:200], ys[:200], zs[:200])
    want = [S.from_vector((S.to_vector(S.mul(S.mul(x, y), z))
                           - S.to_vector(S.mul(x, S.mul(y, z)))) % S.p)
            for x, y, z in zip(xs, ys, zs[:200])]
    assert got.tolist() == want


def test_unital_and_distributive():
    S = quat3()
    for x in range(S.size):
        assert S.mul(S.one, x) == x == S.mul(x, S.one)
    import random
    rng = random.Random(7)
    for _ in range(300):
        x, y, z = (rng.randrange(S.size) for _ in range(3))
        assert S.mul(x, add(S, y, z)) == add(S, S.mul(x, y), S.mul(x, z))
        assert S.mul(add(S, x, y), z) == add(S, S.mul(x, z), S.mul(y, z))


def test_no_zero_divisors():
    S = quat2()
    for x in range(1, S.size):
        for y in range(1, S.size):
            assert S.mul(x, y) != 0


def test_nuclei_quat2():
    S = quat2()
    rep = sfd.nuclei(S)
    assert (rep.nuc_l.cardinality, rep.nuc_m.cardinality, rep.nuc_r.cardinality) == (4, 4, 4)
    assert rep.nuc.field_tag == "F_4"
    assert rep.center.cardinality == 2 and rep.center.field_tag == "F_2"


def test_nuclei_computed_once_per_semifield(monkeypatch):
    from skewloop import autgroup as ag

    calls = []
    real = sfd._associator_tensor
    monkeypatch.setattr(sfd, "_associator_tensor", lambda S: calls.append(S) or real(S))
    S = quat2()
    sfd.analysis_json(S)
    ag.inner_automorphisms(S)
    assert sfd.nuclei(S) is sfd.nuclei(S)
    assert calls == [S]


def test_nuclei_match_bruteforce():
    for S in (quat2(), quat3(), quat3(1)):
        rep = sfd.nuclei(S)
        nl, nm, nr = sfd.nuclei_bruteforce(S)
        assert set(rep.nuc_l.elements) == set(nl)
        assert set(rep.nuc_m.elements) == set(nm)
        assert set(rep.nuc_r.elements) == set(nr)


# -- test oracle: row reduction over F_p on Python lists, one row operation
# at a time, as the library did before `semifield._rref` --

def _oracle_rref(rows, p):
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col] % p
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def _oracle_nullspace(rows, ncols, p):
    if not rows:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    red, pivots = _oracle_rref(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in zip(red, pivots):
            vec[pc] = (-r[fc]) % p
        basis.append(vec)
    return basis


def _random_matrices(seed, count):
    """Seeded (rows, ncols, p) over several primes: empty, all-zero, wide,
    tall and rank-deficient matrices, with zero columns and repeated rows."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        p = int(rng.choice([2, 3, 5, 7, 13, 65537]))
        nrows, ncols = int(rng.integers(0, 14)), int(rng.integers(1, 14))
        kind = k % 4
        if kind == 0:      # all zero (empty when nrows = 0)
            A = np.zeros((nrows, ncols), dtype=np.int64)
        elif kind == 1:    # uniform: tall, square or wide
            A = rng.integers(0, p, size=(nrows, ncols))
        else:              # rank <= k: products of thin factors, p >= any entry
            rank = int(rng.integers(0, min(nrows, ncols) + 1))
            A = rng.integers(0, p, size=(nrows, rank)) @ rng.integers(0, p, size=(rank, ncols)) % p
        if kind == 3 and nrows and ncols > 1:
            A[:, rng.integers(0, ncols)] = 0                     # a zero column
            A[rng.integers(0, nrows)] = A[rng.integers(0, nrows)]  # a repeated row
        yield A.astype(np.int64), p


def test_rref_and_kernel_match_oracle():
    for A, p in _random_matrices(seed=8, count=5000):
        rows, ncols = A.tolist(), A.shape[1]
        red, pivots = _oracle_rref(rows, p)
        got = A.copy()
        assert sfd._rref(got, p) == pivots
        assert got[:len(pivots)].tolist() == red
        assert not got[len(pivots):].any()
        assert sfd._kernel(A, p) == _oracle_nullspace(rows, ncols, p)


def test_subspace_dedups_codes_past_2_63():
    # condition rows are deduplicated by code, a Python int once |S_f| > 2^63
    tw = gf.make_tower(2, 1, 2)
    big = sfd.SemifieldCtx(tower=tw, f=(0,) * 32 + (1,))   # D = 64, |S_f| = 2^64
    rows = np.random.default_rng(0).integers(0, 2, size=(62, 64))
    cond = np.concatenate([rows, rows[::-1], np.zeros((3, 64), dtype=np.int64)])
    info = sfd._subspace(big, cond)
    assert info.basis_vectors == _oracle_nullspace(cond.tolist(), 64, 2)
    B = np.array(info.basis_vectors)
    assert len(B) == 2 and not (rows @ B.T % 2).any()
    assert info.elements == sorted(int(big.from_vector(c @ B % 2))
                                   for c in itertools.product(range(2), repeat=2))
    assert info.elements[-1] >= 2 ** 63


def test_nuc_r_membership_route():
    for S in (quat2(), quat3()):
        rep = sfd.nuclei(S)
        assert set(sfd.nuc_r_membership(S)) == set(rep.nuc_r.elements)


def test_inverses_two_sided():
    S = quat3()
    for x in range(1, S.size):
        left, right = sfd.inverses(S, x)
        assert S.mul(left, x) == S.one
        assert S.mul(x, right) == S.one
    with pytest.raises(sfd.ZeroElement):
        sfd.inverses(S, 0)


SMALL_BATTERY = [c for c in oracles.BATTERY if (c[0] ** (c[1] * c[2])) ** c[3] <= 729]


@pytest.mark.parametrize("p,r,n,m", SMALL_BATTERY,
                         ids=[f"F{p ** (r * n)}/F{p ** r}-m{m}" for p, r, n, m in SMALL_BATTERY])
def test_inverses_match_row_reduction_oracle(p, r, n, m):
    # every nonzero x of two seeded admissible f per tower; the skew
    # Euclidean inverses form no structure-constant tensor
    tw = gf.make_tower(p, r, n)
    fs = list(sp.enumerate_admissible(tw, m))
    for f in random.Random(tw.field.order * 10 + m).sample(fs, 2):
        S = sfd.SemifieldCtx(tower=tw, f=f)
        got = [sfd.inverses(S, x) for x in range(1, S.size)]
        assert S._structure_constants is None
        assert got == [oracles.inverses(S, x) for x in range(1, S.size)]


# (p, r, n), m: D = 24 over F_16, n = 12, m = 8, and D = 32 over F_256
LARGE_TOWERS = [((2, 4, 2), 3), ((2, 1, 12), 2), ((2, 1, 2), 8), ((2, 8, 2), 2)]


@pytest.mark.parametrize("tower,m", LARGE_TOWERS,
                         ids=[f"F{p ** (r * n)}/F{p ** r}-m{m}" for (p, r, n), m in LARGE_TOWERS])
def test_inverses_match_oracle_on_large_towers(tower, m):
    tw = gf.make_tower(*tower)
    rng = random.Random(tw.field.order * 10 + m)
    f = ()
    while not sp.is_admissible(tw, f):
        f = tuple(rng.randrange(tw.field.order) for _ in range(m)) + (1,)
    S = sfd.SemifieldCtx(tower=tw, f=f)
    xs = [rng.randrange(1, S.size) for _ in range(50)]
    got = [sfd.inverses(S, x) for x in xs]
    assert S._structure_constants is None
    assert got == [oracles.inverses(S, x) for x in xs]


def test_inverses_of_zero_divisors_raise():
    # f = t^2 + t = (t + 1) t is reducible, so S_f (built directly, past
    # build_semifield's guard) has zero divisors; inverses raises on each x
    # with R_x or L_x singular and never returns a wrong pair, and some x
    # have R_x invertible but L_x singular, where only the search modulo
    # chi_f(t^n) can raise
    S = sfd.SemifieldCtx(tower=gf.make_tower(2, 1, 2), f=(0, 1, 1))
    kinds = set()
    for x in range(1, S.size):
        v = S.to_vector(x)
        full = tuple(len(sfd._rref(M @ v % S.p, S.p)) == S.dim_prime for M in S._translations)
        kinds.add(full)
        if all(full):
            assert sfd.inverses(S, x) == oracles.inverses(S, x)
        else:
            with pytest.raises(AssertionError):
                sfd.inverses(S, x)
    assert kinds == {(True, True), (False, False), (True, False)}


def test_associator_vanishes_on_nucleus():
    S = quat2()
    rep = sfd.nuclei(S)
    for c in rep.nuc.elements:
        for y in range(S.size):
            for z in range(S.size):
                assert oracles.associator(S, c, y, z) == 0


def test_t_power_diagnostics_quat2():
    S = quat2()
    diag = sfd.t_power_diagnostics(S)
    # f has a coefficient outside F: powers of t are not a group and S_f is
    # not (m+1)-th power-associative
    assert not diag.associative and diag.closure_order is None


def test_t_power_diagnostics_central_coefficient_field():
    # f = t^3 - t - 1 over F_4 with sigma of order 3... use F_8/F_2, m = 2:
    # f in F_2[t] would be right-invariant; instead take m = 2 over F_8 with
    # f = t^2 - x t - 1 (a_0 central, a_1 not)
    tw = gf.make_tower(2, 1, 3)
    K = tw.field
    f = (1, K.neg(K.p), 1)
    if sp.is_admissible(tw, f):
        S = sfd.build_semifield(tw, f)
        diag = sfd.t_power_diagnostics(S)
        assert isinstance(diag.associative, bool)


def test_t_power_diagnostics_match_bracketing_walk():
    # every admissible f of the battery: the closed form against the walk over
    # all bracketings, and t in Nuc_r whenever f t lies in Rf
    associative = 0
    for p, r, n, m in oracles.BATTERY:
        tw = gf.make_tower(p, r, n)
        for f in sp.enumerate_admissible(tw, m):
            S = sfd.SemifieldCtx(tower=tw, f=f)
            d = sfd.t_power_diagnostics(S)
            v = d.associative
            assert (v, v, d.closure_order, v) == oracles.t_power_walk(S), f
            if v:
                associative += 1
                assert S.t in sfd.nuc_r_membership(S)
    assert associative == 55


def test_analysis_json_shape():
    S = quat2()
    data = sfd.analysis_json(S)
    assert data["size"] == 16
    assert data["nuclei"]["left"]["cardinality"] == 4
    assert data["nuclei"]["center"]["tag"] == "F_2"
