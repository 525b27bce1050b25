import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

import exact_pairing as exact
from period_index import ecq
from period_index.cyclo import CycloElem, context, embed_level, galois_apply
from period_index.ecq import (
    curve_over,
    point_over,
    reduce_curve,
    reduce_point,
    torsion_pool,
    weil_pairing,
)
from period_index.localfield import distinguished_place, dlog_in_mu_n, refine_place
from period_index.kummer import (
    BasisError,
    KummerClass,
    RepresentationError,
    TorsionBasis,
    galois_matrix,
    galois_representation,
    inflate_class,
    is_upper_triangular,
    local_invariant,
    make_basis,
    multiplied_invariant,
    twisted_norm,
    twisted_sigma_image,
)
from test_ecq import _admissible


def _fixture3():
    cv = curve_over(3, [0, 0, 1, 0, 0])
    S = point_over(3, (0, 0))
    T = (CycloElem.rational(3, -1), CycloElem.zeta(3))
    return cv, S, T


def _fixture4():
    cv = curve_over(4, [0, 7, 0, -144, 0])
    i = CycloElem.zeta(4)
    S = point_over(4, (24, 120))
    T = (12 * i, 36 - 48 * i)
    return cv, S, T


# ---------------------------------------------------------------- bases


def test_make_basis_degree4_already_normalized():
    cv, S, T = _fixture4()
    basis = make_basis(cv, 4, S, T)
    assert basis.S == S and basis.T == T
    e = exact.weil_pairing(cv, 4, basis.S, basis.T, torsion_pool(cv, S, T, 4))
    assert e == CycloElem.zeta(4)


def test_make_basis_degree3_rescales_T():
    cv, S, T = _fixture3()
    basis = make_basis(cv, 3, S, T)
    # e(S, T) = zeta^2, so T is replaced by 2T
    assert basis.T == cv.mul(2, T)
    e = exact.weil_pairing(cv, 3, basis.S, basis.T, torsion_pool(cv, S, T, 3))
    assert e == CycloElem.zeta(3)


def test_make_basis_rejects_dependent_or_wrong_order():
    cv, S, T = _fixture3()
    with pytest.raises(BasisError):
        make_basis(cv, 3, S, S)  # pairing 1: dependent
    with pytest.raises(BasisError):
        make_basis(cv, 3, S, cv.mul(2, S))
    with pytest.raises(BasisError):
        make_basis(cv, 3, S, None)
    cv4, S4, T4 = _fixture4()
    with pytest.raises(BasisError):
        make_basis(cv4, 4, cv4.mul(2, S4), T4)  # order 2, not 4
    with pytest.raises(BasisError):
        make_basis(cv4, 4, S4, point_over(4, (9, 0)))


# ---------------------------------------------------------- representations


def test_galois_matrix_degree4_frozen():
    cv, S, T = _fixture4()
    basis = make_basis(cv, 4, S, T)
    assert galois_matrix(basis, 1) == ((1, 0), (0, 1))
    assert galois_matrix(basis, 3) == ((1, 2), (0, 3))


def test_galois_matrix_degree3_frozen():
    cv, S, T = _fixture3()
    basis = make_basis(cv, 3, S, T)
    assert galois_matrix(basis, 1) == ((1, 0), (0, 1))
    assert galois_matrix(basis, 2) == ((1, 0), (0, 2))


def test_galois_representation_validates():
    for fx, n in ((_fixture3, 3), (_fixture4, 4)):
        cv, S, T = fx()
        basis = make_basis(cv, n, S, T)
        rep = galois_representation(basis)
        assert set(rep) == set(context(n).units)
        assert is_upper_triangular(rep)
        # determinant of sigma_t is t (pairing equivariance), already enforced
        for t, ((i, j), (k, l)) in rep.items():
            assert (i * l - j * k) % n == t % n


def test_galois_representation_squares_to_identity_for_order2_group():
    cv, S, T = _fixture4()
    basis = make_basis(cv, 4, S, T)
    rep = galois_representation(basis)
    m = rep[3]
    from period_index.kummer import _mat_mul

    assert _mat_mul(m, m, 4) == ((1, 0), (0, 1))


# ---------------------------------------------------------------- classes


def test_kummer_class_validation():
    a = CycloElem.rational(4, 2)
    with pytest.raises(ZeroDivisionError):
        KummerClass(4, a, CycloElem.rational(4, 0))
    with pytest.raises(ValueError):
        KummerClass(4, a, CycloElem.rational(3, 2))


def test_local_invariant_and_support():
    kc = KummerClass(4, CycloElem.rational(4, 5), CycloElem.rational(4, 13))
    pl = distinguished_place(4, 13)
    assert local_invariant(kc, pl) == Fraction(3, 4)
    with pytest.raises(ValueError):
        local_invariant(kc, distinguished_place(2, 13))


def test_class_invariant_ignores_nth_powers():
    rng = random.Random(4242)
    pl = distinguished_place(4, 13)
    kc = KummerClass(4, CycloElem.rational(4, 5), CycloElem.rational(4, 13))
    base = local_invariant(kc, pl)
    for _ in range(6):
        x = CycloElem(4, [rng.randint(1, 9), rng.randint(-9, 9)])
        if x.is_zero():
            continue
        assert local_invariant(KummerClass(kc.n, kc.a * x ** kc.n, kc.b), pl) == base


def test_inflate_scales_invariants():
    # level 4 -> 8 at p = 17 and 41 (p = 1 mod 8), law: inv' = 2*inv
    hits = 0
    for p in (17, 41, 73):
        base = distinguished_place(4, p)
        fine = refine_place(base, 2)
        for (a, b) in ((3, p), (5, p), (6, p), (7, p * 3)):
            kc = KummerClass(4, CycloElem.rational(4, a), CycloElem.rational(4, b))
            up = inflate_class(kc, 2)
            lo = local_invariant(kc, base)
            hi = local_invariant(up, fine)
            assert hi == (2 * lo) % 1
            hits += 1 if hi != 0 else 0
    assert hits > 0  # the law was exercised on nontrivial invariants


def test_inflate_scales_invariants_degree3():
    for p in (19, 37):
        base = distinguished_place(3, p)
        fine = refine_place(base, 3)
        nontrivial = 0
        for (a, b) in ((2, p), (3, p), (5, p)):
            kc = KummerClass(3, CycloElem.rational(3, a), CycloElem.rational(3, b))
            up = inflate_class(kc, 3)
            assert local_invariant(up, fine) == (3 * local_invariant(kc, base)) % 1
            nontrivial += 1 if local_invariant(kc, base) != 0 else 0
        assert nontrivial > 0


def test_multiplied_invariant_reads_down():
    # a fresh level-4 class read down to level 2 doubles its invariant
    pl = distinguished_place(4, 13)
    kc = KummerClass(4, CycloElem.rational(4, 5), CycloElem.rational(4, 13))
    assert local_invariant(kc, pl) == Fraction(3, 4)
    assert multiplied_invariant(kc, 2, pl) == Fraction(1, 2)
    with pytest.raises(ValueError):
        multiplied_invariant(kc, 3, pl)


def test_embed_level_respects_refined_places():
    base = distinguished_place(4, 17)
    fine = refine_place(base, 2)
    x = CycloElem(4, [2, 3])
    y = embed_level(x, 8)
    from period_index.cyclo import reduce_at

    assert reduce_at(y, 17, fine.omega) == reduce_at(x, 17, base.omega)


# ---------------------------------------------------------------- norms


def test_twisted_norm_degree4_shape():
    cv, S, T = _fixture4()
    basis = make_basis(cv, 4, S, T)
    rep = galois_representation(basis)
    a = CycloElem(4, [2, 1])
    b = CycloElem(4, [3, 2])
    nf = twisted_norm(rep, a, b)
    sa, sb = galois_apply(a, 3), galois_apply(b, 3)
    # det(sigma_3) = 3, inverse 3: exponents i*3, j*3, k*3, l*3 mod 4
    assert nf.c == a * sa ** 3
    assert nf.cprime == sb ** 2
    assert nf.d == 1
    assert nf.dprime == b * sb
    assert nf.first() == a * sa ** 3 * sb ** 2
    assert nf.second() == b * sb


def test_twisted_norm_degree3_shape():
    cv, S, T = _fixture3()
    basis = make_basis(cv, 3, S, T)
    rep = galois_representation(basis)
    a = CycloElem(3, [2, 1])
    b = CycloElem(3, [1, 1])
    nf = twisted_norm(rep, a, b)
    sa, sb = galois_apply(a, 2), galois_apply(b, 2)
    # rep is diag(1, t): first slot collects a * sa^(1/2), second b * sb
    assert nf.c == a * sa ** 2
    assert nf.cprime == 1
    assert nf.d == 1
    assert nf.dprime == b * sb
    assert len(nf.exponents) == 2


def test_twisted_sigma_image_identity():
    a = CycloElem(4, [2, 1])
    b = CycloElem(4, [3, 2])
    out = twisted_sigma_image(((1, 0), (0, 1)), 1, a, b)
    assert out == (a, b)


def test_twisted_norm_rejects_singular_matrix():
    a = CycloElem(4, [2, 1])
    with pytest.raises(RepresentationError):
        twisted_norm({1: ((2, 0), (0, 2))}, a, a)


def test_make_basis_inversion_budget(monkeypatch):
    # the benchmark's cubic and quartic bases: with the exact Weil pairing
    # and table over L, make_basis made 27 and 19 inversions (253 and 119
    # before the Miller lines were shared); read at the auxiliary prime, the
    # exact work left is n*S, n*T and u^-1 * T, 3 and 2 inversions
    calls = {"invert": 0}
    invert = CycloElem.invert

    def counted_invert(self):
        calls["invert"] += 1
        return invert(self)

    monkeypatch.setattr(CycloElem, "invert", counted_invert)
    for (cv, S, T), n, budget in ((_fixture3(), 3, 3), (_fixture4(), 4, 2)):
        calls.update(invert=0)
        make_basis(cv, n, S, T)
        assert calls["invert"] <= budget


def _fixture5():
    # 11a1: E[5] = Z/5 + mu_5, so all of E[5] is defined over Q(zeta_5);
    # T generates the mu_5 part and e_5(S, T) = zeta^3
    cv = curve_over(5, [0, -1, 1, -10, -20])
    S = point_over(5, (5, 5))
    T = (
        CycloElem(5, [Fraction(-8, 5), 0, Fraction(-11, 5), Fraction(-11, 5)]),
        CycloElem(5, [Fraction(3, 5), Fraction(11, 5), Fraction(22, 5), Fraction(-11, 5)]),
    )
    return cv, S, T


def test_basis_table_spans_the_returned_basis():
    # T is rescaled by u^-1 for e(S, T) = zeta^u, u = 2, 1 and 3 here; every
    # unit mod 3 or 4 is its own inverse, so only level 5 tells a table
    # re-indexed by u from one re-indexed by u^-1.  The table holds the
    # reductions at the auxiliary place.
    cases = ((_fixture3(), 3, True), (_fixture4(), 4, False), (_fixture5(), 5, True))
    for (cv, S, T), n, rescaled in cases:
        basis = make_basis(cv, n, S, T)
        assert (basis.T != T) == rescaled
        assert len(basis.combos) == n * n
        for P, (i, j) in basis.combos.items():
            L_point = cv.add(cv.mul(i, basis.S), cv.mul(j, basis.T))
            assert P == reduce_point(cv, L_point, basis.place)


def test_make_basis_names_the_failed_check():
    cv, S, T = _fixture5()
    with pytest.raises(BasisError, match="not distinct"):
        make_basis(cv, 5, S, cv.mul(3, S))
    with pytest.raises(BasisError, match="not distinct"):
        make_basis(cv, 5, S, None)
    # y^2 = x^3 - 25x: (-4, 6) has infinite order, (0, 0) and (5, 0) order 2
    cv2 = curve_over(2, [0, 0, 0, -25, 0])
    assert make_basis(cv2, 2, point_over(2, (0, 0)), point_over(2, (5, 0))).combos
    with pytest.raises(BasisError, match="exact order 2"):
        make_basis(cv2, 2, point_over(2, (0, 0)), point_over(2, (-4, 6)))


def test_make_basis_pins_the_order_of_the_points_of_order_2():
    # every basis of E[2] has pairing -1, so make_basis pins one: the two
    # points of order 2 with the larger x, ascending, from each of the six
    # ordered pairs of distinct points
    for a4, xs in ((-1, (-1, 0, 1)), (-25, (-5, 0, 5))):
        cv = curve_over(2, [0, 0, 0, a4, 0])
        points = [point_over(2, (x, 0)) for x in xs]
        for S, T in itertools.permutations(points, 2):
            basis = make_basis(cv, 2, S, T)
            assert (basis.S, basis.T) == (points[1], points[2]), (a4, S, T)


def test_galois_representation_reads_the_basis_table(monkeypatch):
    # the images of S and T are looked up in the table make_basis built, so
    # they cost no curve additions; with make_basis at most 3 and 2
    # inversions (30 and 22 with the exact pairing and table over L, 37 and
    # 25 when galois_representation walked E[n] again)
    calls = {"add": 0, "invert": 0}
    add, invert = ecq.CurveL.add, CycloElem.invert

    def counted_add(self, P, Q):
        calls["add"] += 1
        return add(self, P, Q)

    def counted_invert(self):
        calls["invert"] += 1
        return invert(self)

    monkeypatch.setattr(ecq.CurveL, "add", counted_add)
    monkeypatch.setattr(CycloElem, "invert", counted_invert)
    for (cv, S, T), n, budget in ((_fixture3(), 3, 3), (_fixture4(), 4, 2)):
        calls.update(add=0, invert=0)
        basis = make_basis(cv, n, S, T)
        added = calls["add"]
        galois_representation(basis)
        assert calls["add"] == added
        assert calls["invert"] <= budget


# ------------------------------------------------- the exact reference


def _transforms(rng, n, count):
    """count seeded ((a, b), (c, d)) with ad - bc a unit mod n."""
    out = []
    while len(out) < count:
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        if gcd(a * d - b * c, n) == 1:
            out.append(((a, b), (c, d)))
    return out


def test_basis_matches_the_exact_reference():
    # the fixture bases at levels 3, 4 and 5 and seeded GL2(Z/n) transforms
    # S' = aS + bT, T' = cS + dT of them: the normalized T, the table and
    # the Galois matrices read at the auxiliary prime are those of the
    # exact pairing and the coordinate-wise Galois action over L
    rng = random.Random(16)
    tried = 0
    for fx, count in ((_fixture3, 6), (_fixture4, 6), (_fixture5, 4)):
        cv, S0, T0 = fx()
        n = cv.n
        for (a, b), (c, d) in [((1, 0), (0, 1))] + _transforms(rng, n, count):
            S = cv.add(cv.mul(a, S0), cv.mul(b, T0))
            T = cv.add(cv.mul(c, S0), cv.mul(d, T0))
            T_ref, table = exact.reference_basis(cv, n, S, T)
            basis = make_basis(cv, n, S, T)
            assert basis.S == S and basis.T == T_ref
            reduced = {reduce_point(cv, P, basis.place): ij for P, ij in table.items()}
            assert basis.combos == reduced
            assert galois_representation(basis) == exact.reference_representation(
                cv, n, S, T_ref, table
            )
            tried += 1
    assert tried == 19


def test_fp_weil_pairing_is_bilinear_alternating_and_free_of_R():
    # over F_q at the auxiliary place: e(aS + bT, cS + dT) = e(S, T)^(ad - bc)
    # for every pair of the table, each read at its first admissible point,
    # and e(S, T) is the same at 2S + T as at every other admissible point
    for fx in (_fixture3, _fixture4, _fixture5):
        cv, S, T = fx()
        n = cv.n
        basis = make_basis(cv, n, S, T)
        cfp = reduce_curve(cv, basis.place)
        Sq, Tq = reduce_point(cv, S, basis.place), reduce_point(cv, T, basis.place)
        pool = torsion_pool(cfp, Sq, Tq, n)
        base = weil_pairing(cfp, n, Sq, Tq, cfp.add(cfp.mul(2, Sq), Tq))
        assert pow(base, n, cfp.p) == 1 and dlog_in_mu_n(base, basis.place) % n != 0
        # <S>, <S> - T, <T> and S + <T> cover 4n - 4 points of the table
        admissible = [R for R in pool if _admissible(cfp, n, Sq, Tq, R)]
        assert len(admissible) == (n - 2) ** 2
        assert {weil_pairing(cfp, n, Sq, Tq, R) for R in admissible} == {base}
        for k, P in enumerate(pool):
            for m, Q in enumerate(pool):
                (a, b), (c, d) = divmod(k, n), divmod(m, n)
                R = next(R for R in pool if _admissible(cfp, n, P, Q, R))
                assert weil_pairing(cfp, n, P, Q, R) == pow(base, (a * d - b * c) % n, cfp.p)

