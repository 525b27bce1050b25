import random
from fractions import Fraction

import pytest

import exact_pairing as exact
from period_index.cyclo import CycloElem, galois_apply, is_probable_prime, reduce_at
from period_index.kummer import make_basis
from period_index.localfield import (
    Place,
    distinguished_place,
    dlog_in_mu_n,
    factorint,
    places_over,
    valuation,
)
from period_index import ecq
from period_index.ecq import (
    CurveError,
    CurveFp,
    curve_over,
    divisibility_by_pairing,
    divisibility_witness,
    group_structure,
    point_exact_order,
    point_over,
    reduce_curve,
    reduce_point,
    torsion_pool,
    weil_pairing,
)


E_MINUS_X = [0, 0, 0, -1, 0]      # y^2 = x^3 - x
E_CUBE = [0, 0, 1, 0, 0]          # y^2 + y = x^3
E_PYTH = [0, 7, 0, -144, 0]       # y^2 = x(x-9)(x+16)
E_FRAC = [0, 0, 0, "-1/16", 0]    # y^2 = x^3 - x/16, not integral at 2
# y^2 + y = (x + zeta)^3 at level 3: E_CUBE moved by x -> x + zeta
E_CUBE_ZETA = [0, CycloElem(3, [0, 3]), 1, CycloElem(3, [-3, -3]), 1]
# y^2 + y = x^3 + zeta: Delta = -27 (1 + 4 zeta)^2, and 1 + 4 zeta has norm
# 13, so the model is bad at one place over 13 and good at the other
E_CUBE_PLUS_ZETA = [0, 0, 1, 0, CycloElem.zeta(3)]
# y^2 = x^3 - x moved by x -> x + 1/5: Delta = 64 is a unit at 5, but the
# coefficients are not integral there
E_MINUS_X_FIFTH = [0, "3/5", 0, "-22/25", "-24/125"]


# ------------------------------------------------------------ invariants


def test_discriminants_frozen():
    assert curve_over(2, E_MINUS_X).discriminant() == 64
    assert curve_over(3, E_CUBE).discriminant() == -27
    d = curve_over(4, E_PYTH).discriminant().rational_value()
    assert factorint(int(d)) == {2: 12, 3: 4, 5: 4}


def test_bad_set_and_modulus_frozen():
    assert set(factorint(curve_over(2, E_MINUS_X).bad_modulus)) == {2}
    assert set(factorint(curve_over(3, E_CUBE).bad_modulus)) == {3}
    assert set(factorint(curve_over(4, E_PYTH).bad_modulus)) == {2, 3, 5}


def test_bad_modulus_is_computed_once_per_curve(monkeypatch):
    # curve_over reads it to reject a singular model; later reads are cached
    norms = []
    norm = ecq.field_norm
    monkeypatch.setattr(ecq, "field_norm", lambda x: norms.append(x) or norm(x))
    cv = curve_over(3, E_CUBE)
    assert [cv.bad_modulus, cv.bad_modulus] == [2187, 2187] and len(norms) == 1
    assert curve_over(3, E_CUBE).bad_modulus == 2187 and len(norms) == 2


def _good_by_valuations(cv, place) -> bool:
    """The reference rule: at the place every coefficient is integral and
    the discriminant is a unit."""
    return all(
        a.is_zero() or valuation(a, place) >= 0 for a in cv.coefficient_list()
    ) and valuation(cv.discriminant(), place) == 0


@pytest.mark.parametrize(
    "n, coeffs",
    [
        (2, E_MINUS_X),
        (3, E_CUBE),
        (4, E_PYTH),
        (2, E_FRAC),
        (3, E_CUBE_ZETA),
        (3, E_CUBE_PLUS_ZETA),
        (2, E_MINUS_X_FIFTH),
    ],
    ids=["minus-x", "cube", "pyth", "frac", "cube-zeta", "cube-plus-zeta", "minus-x-fifth"],
)
def test_bad_modulus_matches_valuations_at_every_place(n, coeffs):
    # a split prime is prime to bad_modulus exactly when the model has
    # good reduction at every place over it
    cv = curve_over(n, coeffs)
    for p in range(n + 1, 2000, n):
        if is_probable_prime(p):
            good = all(_good_by_valuations(cv, place) for place in places_over(n, p))
            assert (cv.bad_modulus % p != 0) == good, p


def test_bad_modulus_sees_a_bad_prime_by_any_part():
    # one bad split prime from each part: the norm of Delta, bad at only
    # one of the places over 13; the coefficient denominators, with Delta
    # a unit at 5
    cv = curve_over(3, E_CUBE_PLUS_ZETA)
    assert [_good_by_valuations(cv, v) for v in places_over(3, 13)] == [False, True]
    assert cv.bad_modulus % 13 == 0
    cv = curve_over(2, E_MINUS_X_FIFTH)
    assert cv.discriminant() == 64
    assert not _good_by_valuations(cv, distinguished_place(2, 5))
    assert cv.bad_modulus % 5 == 0
    with pytest.raises(CurveError):
        reduce_curve(cv, distinguished_place(2, 5))


def test_singular_model_rejected():
    with pytest.raises(CurveError):
        curve_over(2, [0, 0, 0, 0, 0])  # y^2 = x^3 is singular


# ------------------------------------------------------------ group law


def test_group_law_frozen_small_points():
    cv = curve_over(2, E_MINUS_X)
    P = point_over(2, (0, 0))
    Q = point_over(2, (1, 0))
    assert cv.add(P, Q) == point_over(2, (-1, 0))
    assert cv.add(P, P) is None
    assert point_exact_order(cv, P) == 2

    cv3 = curve_over(3, E_CUBE)
    R = point_over(3, (0, 0))
    assert cv3.add(R, R) == point_over(3, (0, -1))
    assert point_exact_order(cv3, R) == 3


def test_group_law_properties_exact():
    # y^2 = x^3 + 1 has the rational point (2, 3) of order 6
    cv = curve_over(2, [0, 0, 0, 0, 1])
    P = point_over(2, (2, 3))
    assert cv.on_curve(P)
    assert point_exact_order(cv, P) == 6
    multiples = [cv.mul(k, P) for k in range(7)]
    assert multiples[2] == point_over(2, (0, 1))
    assert multiples[3] == point_over(2, (-1, 0))
    assert multiples[6] is None
    for a in range(7):
        for b in range(7):
            assert cv.add(multiples[a % 6], multiples[b % 6]) == multiples[(a + b) % 6]


def test_group_law_matches_fp_reduction():
    # exact arithmetic then reduce == reduce then F_p arithmetic
    cv = curve_over(2, [0, 0, 0, 0, -2])  # y^2 = x^3 - 2, P = (3, 5) non-torsion
    P = point_over(2, (3, 5))
    assert cv.on_curve(P)
    pl = distinguished_place(2, 7)
    cfp = reduce_curve(cv, pl)
    Rp = reduce_point(cv, P, pl)
    for k in range(1, 12):
        assert reduce_point(cv, cv.mul(k, P), pl) == cfp.mul(k, Rp)


def test_reduce_point_with_pole_lands_at_zero():
    cv = curve_over(2, [0, 0, 0, 0, -2])
    P = point_over(2, (3, 5))
    twoP = cv.add(P, P)
    assert twoP[0] == Fraction(129, 100)
    pl = distinguished_place(2, 5)
    assert reduce_point(cv, twoP, pl) is None
    # consistent with the group law downstairs: 2 * (3, 0) = O mod 5
    cfp = reduce_curve(cv, pl)
    assert cfp.mul(2, reduce_point(cv, P, pl)) is None


def test_reduce_point_reads_the_unit_part_of_a_split_denominator():
    # y^2 = x^3 - 2 at level 3: both coordinates of g = -(3, 5) + 4*(3 zeta, 5)
    # have 163 in their denominators, from a pole at one place over 163;
    # at the other they have valuation 0 and g reduces to -P + 4Q there
    cv = curve_over(3, [0, 0, 0, 0, -2])
    P = point_over(3, (3, 5))
    Q = (3 * CycloElem.zeta(3), CycloElem.rational(3, 5))
    g = cv.add(cv.neg(P), cv.mul(4, Q))
    assert all(c.den % 163 == 0 for c in g)
    pl = distinguished_place(3, 163)
    assert [valuation(c, pl) for c in g] == [0, 0]
    reductions = []
    for place in places_over(3, 163):
        cfp = reduce_curve(cv, place)
        Pq, Qq = reduce_point(cv, P, place), reduce_point(cv, Q, place)
        reductions.append(reduce_point(cv, g, place))
        assert reductions[-1] == cfp.add(cfp.neg(Pq), cfp.mul(4, Qq)), place
    assert reduce_point(cv, g, pl) == (92, 19) and None in reductions


def test_pyth_torsion_is_exactly_eight():
    # torsion injects into E(F_7) (good, odd): the count there is 8
    cv = curve_over(4, E_PYTH)
    cfp = CurveFp(7, 0, 7, 0, -144, 0)
    assert len(_points(cfp)) + 1 == 8
    assert _good_by_valuations(cv, distinguished_place(4, 13))
    assert cv.bad_modulus % 13 != 0


# ------------------------------------------------------------ F_p layer


def _points(cfp):
    """The affine points of E(F_p), sorted."""
    return list(ecq._affine_points(cfp, ecq._RootsOnDemand(cfp.p)))


def _oracle_add(cfp, P, Q):
    """P + Q from the line through them, as the Miller loop draws it."""
    if P is None or Q is None:
        return Q if P is None else P
    line = cfp.chord(P, Q)
    return None if line is None else cfp._third(P, Q, line)


def _oracle_multiples(cfp, P, k):
    """[0*P, 1*P, ..., k*P] by repeated _oracle_add."""
    out = [None]
    for _ in range(k):
        out.append(_oracle_add(cfp, out[-1], P))
    return out


def _oracle_curves():
    """Curves over F_p for p in 3, 5, 7, 11, 13, 97 and 13441: the fixture
    models that reduce well (y^2 + y = x^3 has a3 = 1, and E_PYTH full
    2-torsion) and seeded ones with a1 and a3 nonzero."""
    rng = random.Random(4444)
    for p in (3, 5, 7, 11, 13, 97, 13441):
        models = [E_CUBE, E_MINUS_X, E_PYTH]
        models += [[rng.randrange(1, p), rng.randrange(p), rng.randrange(1, p),
                    rng.randrange(p), rng.randrange(p)] for _ in range(3 if p < 100 else 1)]
        for cs in models:
            try:
                yield CurveFp(p, *cs)
            except CurveError:
                continue


def test_fp_group_law_matches_the_chord_oracle():
    # add and mul write the slope and the sum out inline; they agree with
    # the line of chord and _third and with repeated addition: on every
    # pair of points and O at the small primes, and at p = 13441 on each
    # point with itself, its negative, O and a seeded partner; with k
    # from -3 to 2 #E(F_p) (at p = 13441 past 300 every 37th) and a few
    # large k, on points of order 2 (the tangent is vertical) among them
    rng = random.Random(5555)
    large = (2 ** 64 + 1, 10 ** 30 + 7, -(10 ** 20) - 3)
    orders_two = 0
    for cfp in _oracle_curves():
        pts = _points(cfp)
        group = [None] + pts
        if cfp.p < 100:
            pairs = [(P, Q) for P in group for Q in group]
            sample = group
        else:
            pairs = [(P, Q) for P in pts for Q in (P, cfp.neg(P), None, rng.choice(pts))]
            pairs += [(None, P) for P in pts[:50]]
            sample = [None] + [P for P in pts if P == cfp.neg(P)] + rng.sample(pts, 2)
        for P, Q in pairs:
            assert cfp.add(P, Q) == _oracle_add(cfp, P, Q), (cfp, P, Q)
        N = len(group)
        ks = range(-3, 2 * N + 1)
        if cfp.p > 100:  # every k to 300, then every 37th
            ks = [*range(-3, 300), *range(300, 2 * N + 1, 37)]
        for P in sample:
            orders_two += P is not None and P == cfp.neg(P)
            up, down = _oracle_multiples(cfp, P, 2 * N), _oracle_multiples(cfp, cfp.neg(P), 3)
            for k in ks:
                assert cfp.mul(k, P) == (up[k] if k >= 0 else down[-k]), (cfp, P, k)
            order = up.index(None, 1)
            for k in large:
                assert cfp.mul(k, P) == up[k % order], (cfp, P, k)
    assert orders_two >= 10


def test_enumerate_and_count_frozen():
    cfp = CurveFp(5, 0, 0, 0, -1, 0)
    pts = _points(cfp)
    assert pts == [(0, 0), (1, 0), (2, 1), (2, 4), (3, 2), (3, 3), (4, 0)]
    assert ecq._count_points(cfp) == 8


def test_count_matches_naive_scan():
    rng = random.Random(1111)
    for _ in range(8):
        p = rng.choice([5, 7, 11, 13, 17, 19])
        while True:
            cs = [rng.randrange(p) for _ in range(5)]
            try:
                cfp = CurveFp(p, *cs)
                break
            except CurveError:
                continue
        naive = sum(
            1
            for x in range(p)
            for y in range(p)
            if (y * y + cfp.a1 * x * y + cfp.a3 * y) % p
            == (x ** 3 + cfp.a2 * x * x + cfp.a4 * x + cfp.a6) % p
        )
        assert ecq._count_points(cfp) == naive + 1


def test_point_walk_matches_naive_sorted_scan():
    # the walk yields the points in the order of a sorted naive scan, with
    # and without a 2-torsion point (one root) and with a1, a3 nonzero
    rng = random.Random(3333)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        while True:
            cs = [rng.randrange(p) for _ in range(5)]
            try:
                cfp = CurveFp(p, *cs)
                break
            except CurveError:
                continue
        naive = [
            (x, y)
            for x in range(p)
            for y in range(p)
            if (y * y + cfp.a1 * x * y + cfp.a3 * y) % p
            == (x ** 3 + cfp.a2 * x * x + cfp.a4 * x + cfp.a6) % p
        ]
        assert _points(cfp) == naive
        assert ecq._count_points(cfp) == len(naive) + 1


def test_group_structure_frozen():
    st = group_structure(CurveFp(5, 0, 0, 0, -1, 0))
    assert (st.d1, st.d2) == (2, 4)


def test_group_structure_certified():
    rng = random.Random(2222)
    for _ in range(10):
        p = rng.choice([7, 11, 13, 17, 19, 23])
        while True:
            cs = [rng.randrange(p) for _ in range(5)]
            try:
                cfp = CurveFp(p, *cs)
                break
            except CurveError:
                continue
        pts = _points(cfp)
        N = len(pts) + 1
        st = group_structure(cfp)
        assert st.d1 * st.d2 == N
        assert st.d2 % st.d1 == 0
        # g2 has exact order d2
        assert cfp.mul(st.d2, st.g2) is None
        for q in factorint(st.d2):
            assert cfp.mul(st.d2 // q, st.g2) is not None
        # d2 is the true exponent: no point has larger order
        fac = factorint(N)
        assert all(ecq._order_dividing(cfp, P, N, fac) <= st.d2 for P in pts)
        if st.d1 > 1:
            assert cfp.mul(st.d1, st.g1) is None
            spans = set()
            A = None
            for _ in range(st.d1):
                B = A
                for _ in range(st.d2):
                    spans.add(B)
                    B = cfp.add(B, st.g2)
                A = cfp.add(A, st.g1)
            assert len(spans) == N  # the two generators really span


def _reference_order(cfp, P, N, fac):
    """The order of P read from N = #E(F_p) and its factorisation, as
    group_structure did before the Hasse pin."""
    o = N
    for q in fac:
        while o % q == 0 and cfp.mul(o // q, P) is None:
            o //= q
    return o


def _reference_complement(cfp, W, lam, d1):
    """_complement as it was: the whole cyclic group <W> held, lam - 1
    additions, every point's order read from the counted N, and
    (d1/q)*T looked up in <W>."""
    pts = _points(cfp)
    N = len(pts) + 1
    fac = factorint(N)
    cyclic = set()
    acc = None
    for _ in range(lam):
        cyclic.add(acc)
        acc = cfp.add(acc, W)
    fac_d1 = factorint(d1)
    for P in pts:
        o = _reference_order(cfp, P, N, fac)
        if lam % o != 0:
            return None
        if o % d1 != 0:
            continue
        T = cfp.mul(o // d1, P)
        if all(cfp.mul(d1 // q, T) not in cyclic for q in fac_d1):
            return T
    raise AssertionError("no independent generator found")


def _reference_group_structure(cfp):
    """group_structure as it was when it took the order of every point:
    the sieve's witnesses depend on which generators it returns."""
    pts = _points(cfp)
    N = len(pts) + 1
    fac = factorint(N)
    lam, W = 1, None
    for P in pts:
        o = _reference_order(cfp, P, N, fac)
        if lam % o == 0:
            continue
        if W is None:
            lam, W = o, P
        else:
            W, lam = ecq._merge_orders(cfp, W, lam, P, o)
        if lam == N:
            break
    d1 = N // lam
    if d1 == 1:
        return (1, lam, None, W)
    assert lam % d1 == 0 and (cfp.p - 1) % d1 == 0
    return (d1, lam, _reference_complement(cfp, W, lam, d1), W)


def _full_torsion_curve(rng, m, primes):
    """A seeded curve with E[m] inside E(F_p): for m = 2 and 4 from three
    distinct roots, for m = 4 with every difference of them a square
    (each 2-torsion point halves), for m = 3 a random curve whose group
    order is divisible by 9; the reference decides."""
    ps = [p for p in primes if p % m == 1]
    while True:
        p = rng.choice(ps)
        if m == 3:
            try:
                cfp = CurveFp(p, *(rng.randrange(p) for _ in range(5)))
            except CurveError:
                continue
            if (len(_points(cfp)) + 1) % 9:
                continue
        else:
            e = rng.sample(range(p), 3)
            if m == 4 and any(pow(a - b, (p - 1) // 2, p) != 1 for a in e for b in e if a != b):
                continue
            a, b, c = e
            cfp = CurveFp(p, 0, -(a + b + c), 0, a * b + b * c + c * a, -a * b * c)
        ref = _reference_group_structure(cfp)
        if ref[0] % m == 0:
            return cfp, ref


def _count_point_counts(monkeypatch) -> list:
    """A one-entry list that counts calls of the point count from here
    on."""
    calls = [0]
    count = ecq._count_points

    def counted(cfp):
        calls[0] += 1
        return count(cfp)

    monkeypatch.setattr(ecq, "_count_points", counted)
    return calls


def test_group_structure_matches_reference(monkeypatch):
    # seeded curves over primes below 60, 300 and 2,000 in turn, and
    # curves with full m-torsion: the sample reaches the second loop, the
    # self-negating points, the path that pins N by the Hasse interval
    # alone and the one that counts it (small p, small exponent)
    counts = _count_point_counts(monkeypatch)
    rng = random.Random(3303)
    primes = [p for p in range(3, 2000) if is_probable_prime(p)]
    curves = []
    while len(curves) < 300:
        p = rng.choice([q for q in primes if q < (60, 300, 2000)[len(curves) % 3]])
        try:
            curves.append(CurveFp(p, *(rng.randrange(p) for _ in range(5))))
        except CurveError:
            continue
    curves += [_full_torsion_curve(rng, m, primes[:100])[0] for m in (2, 3, 4) for _ in range(8)]
    non_cyclic = two_torsion = pinned = counted = 0
    for cfp in curves:
        before = counts[0]
        st = group_structure(cfp)
        assert (st.d1, st.d2, st.g1, st.g2) == _reference_group_structure(cfp), cfp
        counted += counts[0] > before
        pinned += counts[0] == before
        non_cyclic += st.d1 > 1
        two_torsion += any(cfp.neg(P) == P for P in _points(cfp))
    assert non_cyclic >= 60 and two_torsion >= 150
    assert pinned >= 250 and counted >= 40


def test_hasse_pin_decides_when_to_count(monkeypatch):
    # E(F_13441) = Z/8 x Z/1704: once lam = 1704, 13632 is the one
    # multiple of it in the Hasse interval [13211, 13673], so N is never
    # counted.  E(F_757) = Z/27 x Z/27: lam = 27 has four multiples in
    # [703, 813], so N is counted, once
    counts = _count_point_counts(monkeypatch)
    assert ecq._hasse_interval(13441) == (13211, 13673)
    st = group_structure(CurveFp(13441, 0, 7, 0, 13297, 0))
    assert (st.d1, st.d2) == (8, 1704) and counts[0] == 0
    st = group_structure(CurveFp(757, 0, 0, 1, 0, 0))
    assert (st.d1, st.d2) == (27, 27) and counts[0] == 1


def test_hasse_multiple_is_the_least_in_the_interval():
    # every affine point of seeded curves over p < 200, points of order
    # 2 among them: M lies in the Hasse interval, which holds N, and it
    # is the least multiple there of the point's order
    rng = random.Random(6606)
    primes = [p for p in range(3, 200) if is_probable_prime(p)]
    points = order_two = 0
    for _ in range(40):
        p = rng.choice(primes)
        try:
            cfp = CurveFp(p, *(rng.randrange(p) for _ in range(5)))
        except CurveError:
            continue
        lo, hi = ecq._hasse_interval(p)
        N = ecq._count_points(cfp)
        assert lo <= N <= hi
        fac = factorint(N)
        for P in _points(cfp):
            M = ecq._hasse_multiple(cfp, P)
            o = _reference_order(cfp, P, N, fac)
            assert lo <= M <= hi and cfp.mul(M, P) is None
            assert M == lo + (-lo) % o, (cfp, P)
            points += 1
            order_two += o == 2
    assert points > 2000 and order_two > 20


def test_group_structure_stops_early_on_full_torsion(monkeypatch):
    # E[m] inside E(F_p) forces d1 >= m: the walk stops at the first
    # exponent the shape Z/d1 x Z/lam proves, and a try that meets a point
    # of larger order resumes the walk
    tries = []
    complement = ecq._complement

    def logged(*args):
        T = complement(*args)
        tries.append(T is None)
        return T

    monkeypatch.setattr(ecq, "_complement", logged)
    rng = random.Random(4404)
    primes = [p for p in range(5, 400) if all(p % q for q in range(2, p))]
    for m in (2, 3, 4):
        for _ in range(20):
            cfp, ref = _full_torsion_curve(rng, m, primes)
            st = group_structure(cfp)
            assert (st.d1, st.d2, st.g1, st.g2) == ref, cfp
    assert tries == [False] * 60
    # E(F_7) = Z/8: its first point has order 4, Z/2 x Z/4 fits the shape,
    # the try meets a point of order 8 and the walk goes on
    cfp = CurveFp(7, 4, 2, 6, 2, 3)
    st = group_structure(cfp)
    assert (st.d1, st.d2, st.g1, st.g2) == _reference_group_structure(cfp) == (1, 8, None, (3, 1))
    assert tries[60:] == [True]


def _count_additions(monkeypatch) -> list:
    """A one-entry list that counts additions in E(F_p) from here on: each
    CurveFp.add call, and for k*P the bit length of |k| plus its number of
    one bits less one, the additions of double and add, which mul makes
    inline (an add it calls is not counted again)."""
    calls = [0]
    add, mul = ecq.CurveFp.add, ecq.CurveFp.mul

    def counted(self, P, Q):
        calls[0] += 1
        return add(self, P, Q)

    def counted_mul(self, k, P):
        before = calls[0]
        out = mul(self, k, P)
        calls[0] = before + (k and abs(k).bit_length() + bin(k).count("1") - 1)
        return out

    monkeypatch.setattr(ecq.CurveFp, "add", counted)
    monkeypatch.setattr(ecq.CurveFp, "mul", counted_mul)
    return calls


def test_group_structure_addition_budget(monkeypatch):
    # E(F_13441) = Z/8 x Z/1704: the exponent is reached at the 13th
    # x-coordinate, and walking the other 6,804 cost 107,774 additions;
    # holding all of <W> to test the complement cost 5,714, its order-q
    # subgroups cost 4,024; reading each order from a multiple in the
    # Hasse interval, and in the complement from lam, not from the counted
    # N, costs 2,366
    calls = _count_additions(monkeypatch)
    st = group_structure(CurveFp(13441, 0, 7, 0, 13297, 0))
    assert (st.d1, st.d2, st.g1, st.g2) == (8, 1704, (4515, 3913), (4264, 9685))
    assert calls[0] <= 2_366


def test_divisibility_witness_addition_budget(monkeypatch):
    # the doubled route's two witnesses at p = 13441: walking the image
    # 2*E(F_p) to them cost 5,788 additions, baby-step giant-step 217
    cfp = CurveFp(13441, 0, 7, 0, 13297, 0)
    st = group_structure(cfp)
    witnesses = [(2117, 2573), (1672, 6652)]
    gbars = [cfp.mul(2, W) for W in witnesses]
    calls = _count_additions(monkeypatch)
    assert [divisibility_witness(cfp, st, 2, P) for P in gbars] == witnesses
    assert calls[0] <= 217


def test_divisibility_witness_matches_bruteforce():
    # a witness Q with nQ = P exists exactly when P is in n*E(F_p), the
    # set of all nR: E(F_13) = Z/2 x Z/4 and seeded curves over p < 60
    rng = random.Random(5505)
    curves = [CurveFp(13, 0, 0, 0, -1, 0)]
    while len(curves) < 12:
        p = rng.choice([17, 29, 37, 41, 53])
        try:
            curves.append(CurveFp(p, *(rng.randrange(p) for _ in range(5))))
        except CurveError:
            continue
    outside = 0
    for cfp in curves:
        pts = [None] + _points(cfp)
        st = group_structure(cfp)
        for n in (2, 3, 4):
            image = {cfp.mul(n, R) for R in pts}
            for P in pts[1:]:  # the witness of O is O, written None
                Q = divisibility_witness(cfp, st, n, P)
                assert (Q is not None) == (P in image), (cfp, n, P)
                if Q is not None:
                    assert cfp.mul(n, Q) == P
            outside += len(pts) - len(image)
    assert outside > 300


def _reference_witnesses(cfp, st, n):
    """divisibility_witness as it was, for every point of n*E(F_p) at
    once: the walk over n*(i*g1 + j*g2), i < d1 outer, j < d2 inner,
    and i*g1 + j*g2 for the first (i, j) that hits each point."""
    first = {}
    nG1, nG2 = cfp.mul(n, st.g1), cfp.mul(n, st.g2)
    P1 = None
    for i in range(st.d1):
        P2 = P1
        for j in range(st.d2):
            first.setdefault(P2, (i, j))
            P2 = cfp.add(P2, nG2)
        P1 = cfp.add(P1, nG1)
    return {R: cfp.add(cfp.mul(i, st.g1), cfp.mul(j, st.g2)) for R, (i, j) in first.items()}


def test_division_matches_the_walks_it_replaced(monkeypatch):
    # the point count, the complement and the witnesses against the
    # walks they replaced, on seeded curves (cyclic ones among them) and
    # on curves with full m-torsion, for m = 2, 3, 4 and every point
    complement = ecq._complement
    tries = []

    def both(*args):
        T = complement(*args)
        cfp, _, W, lam, d1 = args
        assert T == _reference_complement(cfp, W, lam, d1), cfp
        tries.append(T is not None)
        return T

    monkeypatch.setattr(ecq, "_complement", both)
    rng = random.Random(8808)
    primes = [p for p in range(3, 300) if all(p % q for q in range(2, p))]
    curves = []
    while len(curves) < 120:
        p = rng.choice(primes)
        try:
            curves.append(CurveFp(p, *(rng.randrange(p) for _ in range(5))))
        except CurveError:
            continue
    curves += [cfp for m in (2, 3, 4) for cfp, _ in _full_torsion_curves(rng, m, 10)]
    cyclic = found = missed = 0
    for cfp in curves:
        walk = _points(cfp)
        assert ecq._count_points(cfp) == len(walk) + 1, cfp
        st = group_structure(cfp)
        cyclic += st.g1 is None
        for m in (2, 3, 4):
            ref = _reference_witnesses(cfp, st, m)
            assert ref[None] is None  # the walk's witness of O is O
            with pytest.raises(CurveError):
                divisibility_witness(cfp, st, m, None)
            for P in walk:
                Q = divisibility_witness(cfp, st, m, P)
                assert Q == ref.get(P), (cfp, m, P)
                found += Q is not None
                missed += Q is None
    assert cyclic >= 80 and tries.count(True) >= 50
    assert found > 30_000 and missed > 20_000


# ------------------------------------------------------------ reduction


def test_reduce_curve_checks_level_and_reduction():
    cv = curve_over(2, E_MINUS_X)
    with pytest.raises(CurveError):
        reduce_curve(cv, distinguished_place(4, 13))
    with pytest.raises(ValueError):
        distinguished_place(3, 3)  # wild places cannot even be built
    # y^2 = x^3 + 1 has bad reduction at the split prime 3
    with pytest.raises(CurveError):
        reduce_curve(curve_over(2, [0, 0, 0, 0, 1]), distinguished_place(2, 3))
    cfp = reduce_curve(curve_over(3, E_CUBE), distinguished_place(3, 7))
    assert len(_points(cfp)) + 1 == 9


# ------------------------------------------------------------ pairings


# The exact pairing over L is the reference (exact_pairing); make_basis
# reads the pairing of the reductions at its auxiliary place, whose root
# omega is the residue of zeta.


def _admissible(cfp, n, P, Q, R) -> bool:
    """R and Q + R outside <P>, R and R - P outside <Q>: weil_pairing's
    hypotheses on its auxiliary point."""
    in_P = {cfp.mul(k, P) for k in range(n)}
    in_Q = {cfp.mul(k, Q) for k in range(n)}
    return not ({R, cfp.add(Q, R)} & in_P or {R, cfp.add(R, cfp.neg(P))} & in_Q)


def _fp_log(cv, n, S, T, P, Q, t=1) -> int:
    """log to the base omega of e_n(P, Q) over F_q for P, Q reduced at
    omega^t, at the auxiliary place of make_basis(S, T) and the first
    admissible point of the table of the reductions of S and T."""
    place = make_basis(cv, n, S, T).place
    cfp = reduce_curve(cv, place)
    conj = Place(n, place.p, pow(place.omega, t, place.p))
    Pq, Qq, Sq, Tq = (reduce_point(cv, X, conj) for X in (P, Q, S, T))
    R = next(R for R in torsion_pool(cfp, Sq, Tq, n) if _admissible(cfp, n, Pq, Qq, R))
    return dlog_in_mu_n(weil_pairing(cfp, n, Pq, Qq, R), place)


def test_weil_pairing_degree2_forced():
    cv = curve_over(2, E_MINUS_X)
    S = point_over(2, (0, 0))
    T = point_over(2, (1, 0))
    e = exact.weil_pairing(cv, 2, S, T, [])
    assert e == CycloElem.rational(2, -1)
    assert exact.weil_pairing(cv, 2, S, S, []) == 1
    place = make_basis(cv, 2, S, T).place
    cfp = reduce_curve(cv, place)
    Sq, Tq = reduce_point(cv, S, place), reduce_point(cv, T, place)
    assert weil_pairing(cfp, 2, Sq, Tq, None) == place.p - 1
    assert weil_pairing(cfp, 2, Sq, Sq, None) == 1


def test_weil_pairing_degree3_frozen():
    cv = curve_over(3, E_CUBE)
    z = CycloElem.zeta(3)
    S = point_over(3, (0, 0))
    T = (CycloElem.rational(3, -1), z)
    assert cv.on_curve(T)
    pool = torsion_pool(cv, S, T, 3)
    e = exact.weil_pairing(cv, 3, S, T, pool)
    assert e == z * z
    assert exact.zeta_dlog(e, 3) == 2
    # inverse under swap, bilinear, alternating
    assert exact.weil_pairing(cv, 3, T, S, pool) == z
    assert exact.weil_pairing(cv, 3, S, cv.mul(2, T), pool) == e * e
    assert exact.weil_pairing(cv, 3, T, T, pool) == 1
    # the same logs over F_q
    for P, Q, k in ((S, T, 2), (T, S, 1), (S, cv.mul(2, T), 1), (T, T, 0)):
        assert _fp_log(cv, 3, S, T, P, Q) == k


def test_weil_pairing_degree4_frozen():
    cv = curve_over(4, E_PYTH)
    i = CycloElem.zeta(4)
    S = point_over(4, (24, 120))
    T = (12 * i, 36 - 48 * i)
    assert cv.on_curve(T)
    assert cv.mul(2, T) == point_over(4, (0, 0))
    assert cv.mul(4, S) is None and cv.mul(4, T) is None
    pool = torsion_pool(cv, S, T, 4)
    e = exact.weil_pairing(cv, 4, S, T, pool)
    assert e == i
    # restriction to the 2-torsion inside: e_4(2S, T) = e_4(S, T)^2 = -1
    assert exact.weil_pairing(cv, 4, cv.mul(2, S), T, pool) == -1
    assert _fp_log(cv, 4, S, T, S, T) == 1
    assert _fp_log(cv, 4, S, T, cv.mul(2, S), T) == 2


def test_weil_pairing_galois_equivariant():
    cv = curve_over(4, E_PYTH)
    i = CycloElem.zeta(4)
    S = point_over(4, (24, 120))
    T = (12 * i, 36 - 48 * i)
    pool = torsion_pool(cv, S, T, 4)
    e = exact.weil_pairing(cv, 4, S, T, pool)
    sS, sT = exact.galois_point(cv, 3, S), exact.galois_point(cv, 3, T)
    eS = exact.weil_pairing(cv, 4, sS, sT, pool)
    assert eS == galois_apply(e, 3)
    # and the conjugate of T is 2S - T, pinned
    assert sT == cv.add(cv.mul(2, S), cv.neg(T))
    # over F_q, sigma_3(P) reduced at omega is P reduced at omega^3, and
    # the pairing of those reductions is omega^3
    place = make_basis(cv, 4, S, T).place
    conj = Place(4, place.p, pow(place.omega, 3, place.p))
    assert reduce_point(cv, sT, place) == reduce_point(cv, T, conj)
    assert _fp_log(cv, 4, S, T, S, T, t=3) == 3


def test_zeta_dlog():
    z = CycloElem.zeta(4)
    cases = ((z, 4, 1), (z * z * z, 4, 3), (CycloElem.rational(4, -1), 2, 1))
    for value, n, k in cases:
        assert exact.zeta_dlog(value, n) == k
        # omega = 2 is the residue of zeta at the place of Q(i) over 5
        assert dlog_in_mu_n(reduce_at(value, 5, 2), distinguished_place(n, 5)) == k
    with pytest.raises(ValueError):
        exact.zeta_dlog(CycloElem(4, [2, 0]), 4)


# ------------------------------------------------------- Tate pairing


def _moved(p, a, r, s, t):
    """Coefficients mod p after x -> x + r, y -> y + s*x + t, an
    isomorphism onto a curve with a1 and a3 in play."""
    a1, a2, a3, a4, a6 = a
    return [c % p for c in (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1,
    )]


def _full_torsion_curves(rng, m, count):
    """count random curves over primes 11 <= p < 250 with m | p - 1 and
    E[m] inside E(F_p), with their group structures."""
    primes = [p for p in range(11, 250) if (p - 1) % m == 0 and all(p % q for q in range(2, p))]
    out = []
    while len(out) < count:
        p = rng.choice(primes)
        if m == 3:
            base = [rng.randrange(p), 0, rng.randrange(p), 0, 0]  # (0, 0) has order 3
        else:
            e1, e2, e3 = (rng.randrange(p) for _ in range(3))  # y^2 = (x-e1)(x-e2)(x-e3)
            base = [0, -(e1 + e2 + e3), 0, e1 * e2 + e1 * e3 + e2 * e3, -e1 * e2 * e3]
        try:
            cfp = CurveFp(p, *_moved(p, base, *(rng.randrange(p) for _ in range(3))))
        except CurveError:
            continue
        st = group_structure(cfp)
        if st.d1 % m == 0:
            out.append((cfp, st))
    return out


def test_divisibility_by_pairing_matches_witness():
    # every point of 120 random curves with full m-torsion: the pairing
    # decides P in m*E(F_p) as divisibility_witness does, and both agree
    # with the image m*E(F_p), the set of all mR, collected once per curve
    rng = random.Random(7707)
    points = accepted = 0
    for m in (2, 3, 4):
        for cfp, st in _full_torsion_curves(rng, m, 40):
            basis = (cfp.mul(st.d1 // m, st.g1), cfp.mul(st.d2 // m, st.g2))
            pts = _points(cfp)
            image = {cfp.mul(m, R) for R in pts}
            assert divisibility_by_pairing(cfp, m, None, basis) is True
            for P in pts:
                decided = divisibility_by_pairing(cfp, m, P, basis)
                W = divisibility_witness(cfp, st, m, P)
                assert decided == (P in image) == (W is not None), (cfp, m, P)
                if decided:
                    assert cfp.mul(m, W) == P
                    accepted += 1
                points += 1
    assert points > 12000 and accepted > 1500


def test_divisibility_by_pairing_on_tiny_groups():
    # E(F_13) = E[3]: every point is decided (only O lies in 3*E)
    cfp = CurveFp(13, 0, 0, 0, 0, 3)
    st = group_structure(cfp)
    assert (st.d1, st.d2) == (3, 3)
    basis = (st.g1, st.g2)
    assert [divisibility_by_pairing(cfp, 3, P, basis) for P in _points(cfp)] == [False] * 8
    # E(F_5) = E[2]: for P outside <Q>, every affine R has R or P + R in
    # <Q>, so no auxiliary point qualifies; only O lies in 2*E(F_5), so
    # every affine point is decided False, as the group structure agrees
    cfp = CurveFp(5, 0, 0, 0, 1, 0)
    st = group_structure(cfp)
    assert (st.d1, st.d2) == (2, 2)
    basis = (st.g1, st.g2)
    decided = [divisibility_by_pairing(cfp, 2, P, basis) for P in _points(cfp)]
    assert decided == [False] * 3
    assert all(divisibility_witness(cfp, st, 2, P) is None for P in _points(cfp))
