import random
from fractions import Fraction

import pytest

from period_index.cyclo import CycloElem, GaloisAuto, galois_apply
from period_index.localfield import distinguished_place, factorint
from period_index import ecq
from period_index.ecq import (
    CurveError,
    CurveFp,
    bad_set,
    curve_over,
    divisibility_witness,
    enumerate_points,
    group_structure,
    has_good_reduction,
    multiplication_image,
    point_exact_order,
    point_over,
    reduce_curve,
    reduce_point,
    torsion_pool,
    weil_pairing,
    zeta_dlog,
)


E_MINUS_X = [0, 0, 0, -1, 0]      # y^2 = x^3 - x
E_CUBE = [0, 0, 1, 0, 0]          # y^2 + y = x^3
E_PYTH = [0, 7, 0, -144, 0]       # y^2 = x(x-9)(x+16)


# ------------------------------------------------------------ invariants


def test_discriminants_frozen():
    assert curve_over(2, E_MINUS_X).discriminant() == 64
    assert curve_over(3, E_CUBE).discriminant() == -27
    d = curve_over(4, E_PYTH).discriminant().rational_value()
    assert factorint(int(d)) == {2: 12, 3: 4, 5: 4}


def test_bad_set_and_modulus_frozen():
    assert bad_set(curve_over(2, E_MINUS_X)) == {2}
    assert bad_set(curve_over(3, E_CUBE)) == {3}
    assert bad_set(curve_over(4, E_PYTH)) == {2, 3, 5}


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


def test_pyth_torsion_is_exactly_eight():
    # torsion injects into E(F_7) (good, odd): the count there is 8
    cv = curve_over(4, E_PYTH)
    cfp = CurveFp(7, 0, 7, 0, -144, 0)
    assert len(enumerate_points(cfp)) + 1 == 8
    assert has_good_reduction(cv, distinguished_place(4, 13))


# ------------------------------------------------------------ F_p layer


def test_enumerate_and_count_frozen():
    cfp = CurveFp(5, 0, 0, 0, -1, 0)
    pts = enumerate_points(cfp)
    assert pts == [(0, 0), (1, 0), (2, 1), (2, 4), (3, 2), (3, 3), (4, 0)]
    assert len(enumerate_points(cfp)) + 1 == 8


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
        assert len(enumerate_points(cfp)) + 1 == naive + 1


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
        walk = ecq._PointWalk(cfp)
        assert enumerate_points(cfp) == naive
        assert list(walk) == naive and list(walk) == naive  # each pass anew
        assert len(walk) == len(naive)


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
        pts = enumerate_points(cfp)
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
        assert all(ecq._fp_point_order(cfp, P, N, fac) <= st.d2 for P in pts)
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


def _reference_group_structure(cfp):
    """group_structure as it was when it took the order of every point:
    the sieve's witnesses depend on which generators it returns."""
    pts = enumerate_points(cfp)
    N = len(pts) + 1
    fac = factorint(N)
    lam, W = 1, None
    for P in pts:
        o = ecq._fp_point_order(cfp, P, N, fac)
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
    cyclic = set()
    acc = None
    for _ in range(lam):
        cyclic.add(acc)
        acc = cfp.add(acc, W)
    fac_d1 = factorint(d1)
    for P in pts:
        o = ecq._fp_point_order(cfp, P, N, fac)
        if o % d1 != 0:
            continue
        T = cfp.mul(o // d1, P)
        if all(cfp.mul(d1 // q, T) not in cyclic for q in fac_d1):
            return (d1, lam, T, W)
    raise AssertionError("no independent generator found")


def test_group_structure_matches_reference():
    rng = random.Random(3303)
    primes = [p for p in range(3, 300) if all(p % q for q in range(2, p))]
    non_cyclic = two_torsion = 0
    for _ in range(300):
        p = rng.choice(primes)
        while True:
            try:
                cfp = CurveFp(p, *(rng.randrange(p) for _ in range(5)))
                break
            except CurveError:
                continue
        st = group_structure(cfp)
        assert (st.d1, st.d2, st.g1, st.g2) == _reference_group_structure(cfp), cfp
        non_cyclic += st.d1 > 1
        two_torsion += any(cfp.neg(P) == P for P in enumerate_points(cfp))
    # the sample reaches the second loop and the self-negating points
    assert non_cyclic >= 20 and two_torsion >= 100


def test_multiplication_image_matches_bruteforce():
    cfp = CurveFp(13, 0, 0, 0, -1, 0)
    pts = enumerate_points(cfp)
    st = group_structure(cfp)
    for n in (2, 3, 4):
        img = multiplication_image(cfp, st, n)
        brute = {cfp.mul(n, P) for P in pts} | {None}
        assert set(img) == brute
        for P in brute:
            # the witness is the one the image's first (i, j) gives
            i, j = img[P]
            Q = divisibility_witness(cfp, st, n, P)
            assert Q == cfp.add(cfp.mul(i, st.g1), cfp.mul(j, st.g2))
            assert cfp.mul(n, Q) == P
        outside = [P for P in pts if P not in brute]
        for P in outside[:4]:
            assert divisibility_witness(cfp, st, n, P) is None


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
    assert len(enumerate_points(cfp)) + 1 == 9


# ------------------------------------------------------------ pairings


def test_weil_pairing_degree2_forced():
    cv = curve_over(2, E_MINUS_X)
    S = point_over(2, (0, 0))
    T = point_over(2, (1, 0))
    e = weil_pairing(cv, 2, S, T, [])
    assert e == CycloElem.rational(2, -1)
    assert weil_pairing(cv, 2, S, S, []) == 1


def test_weil_pairing_degree3_frozen():
    cv = curve_over(3, E_CUBE)
    z = CycloElem.zeta(3)
    S = point_over(3, (0, 0))
    T = (CycloElem.rational(3, -1), z)
    assert cv.on_curve(T)
    pool = torsion_pool(cv, S, T, 3)
    e = weil_pairing(cv, 3, S, T, pool)
    assert e == z * z
    assert zeta_dlog(e, 3) == 2
    # inverse under swap, bilinear, alternating
    assert weil_pairing(cv, 3, T, S, pool) == z
    assert weil_pairing(cv, 3, S, cv.mul(2, T), pool) == e * e
    assert weil_pairing(cv, 3, T, T, pool) == 1


def test_weil_pairing_degree4_frozen():
    cv = curve_over(4, E_PYTH)
    i = CycloElem.zeta(4)
    S = point_over(4, (24, 120))
    T = (12 * i, 36 - 48 * i)
    assert cv.on_curve(T)
    assert cv.mul(2, T) == point_over(4, (0, 0))
    assert cv.mul(4, S) is None and cv.mul(4, T) is None
    pool = torsion_pool(cv, S, T, 4)
    e = weil_pairing(cv, 4, S, T, pool)
    assert e == i
    # restriction to the 2-torsion inside: e_4(2S, T) = e_4(S, T)^2 = -1
    assert weil_pairing(cv, 4, cv.mul(2, S), T, pool) == -1


def test_weil_pairing_galois_equivariant():
    cv = curve_over(4, E_PYTH)
    i = CycloElem.zeta(4)
    S = point_over(4, (24, 120))
    T = (12 * i, 36 - 48 * i)
    pool = torsion_pool(cv, S, T, 4)
    sg = GaloisAuto(4, 3)
    e = weil_pairing(cv, 4, S, T, pool)
    eS = weil_pairing(cv, 4, cv.galois_point(sg, S), cv.galois_point(sg, T), pool)
    assert eS == galois_apply(sg, e)
    # and the conjugate of T is 2S - T, pinned
    assert cv.galois_point(sg, T) == cv.add(cv.mul(2, S), cv.neg(T))


def test_zeta_dlog():
    z = CycloElem.zeta(4)
    assert zeta_dlog(z, 4) == 1
    assert zeta_dlog(z * z * z, 4) == 3
    assert zeta_dlog(CycloElem.rational(4, -1), 2) == 1
    with pytest.raises(ValueError):
        zeta_dlog(CycloElem(4, [2, 0]), 4)
