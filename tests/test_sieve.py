"""Sieve tests: frozen first hits for the three fixture curves plus
re-validation of every condition from the raw outputs alone."""

import tracemalloc

import pytest

from period_index.cyclo import (
    CycloElem,
    field_norm,
    is_probable_prime,
    is_totally_positive,
    reduce_at,
)
from period_index import ecq
from period_index.ecq import curve_over, point_over, reduce_curve, reduce_point
from period_index.localfield import (
    distinguished_place,
    is_one_mod,
    residue_power_order,
    wild_modulus,
)
from period_index.sieve import (
    SieveExhausted,
    attach_generator,
    divisibility_data,
    find_pair,
    find_v,
    find_vprime,
    residue_order_profile,
    split_prime_stream,
)

E_MINUS_X = [0, 0, 0, -1, 0]    # y^2 = x^3 - x
E_CUBE = [0, 0, 1, 0, 0]        # y^2 + y = x^3
E_PYTH = [0, 7, 0, -144, 0]     # y^2 = x(x - 9)(x + 16)


def _fix2():
    cv = curve_over(2, E_MINUS_X)
    return cv, [point_over(2, (0, 0)), point_over(2, (1, 0))]


def _fix3():
    cv = curve_over(3, E_CUBE)
    return cv, [point_over(3, (0, 0))]


def _fix4():
    cv = curve_over(4, E_PYTH)
    return cv, [point_over(4, (24, 120)), point_over(4, (0, 0))]


def test_split_prime_stream():
    cv2, _ = _fix2()
    assert list(split_prime_stream(cv2, 2, 100)) == [17, 41, 73, 89, 97]
    cv3, _ = _fix3()
    first = list(split_prime_stream(cv3, 3, 600))
    assert first == [109, 163, 271, 379, 433, 487, 541]
    for p in first:
        assert p % wild_modulus(3) == 1 and is_probable_prime(p)


def test_attach_generator_frozen():
    assert attach_generator(2, 17) == CycloElem.rational(2, 17)
    assert attach_generator(3, 757) == CycloElem(3, [28, 27])
    assert attach_generator(4, 13441) == CycloElem(4, [65, -96])
    assert attach_generator(4, 25601) == CycloElem(4, [1, 160])
    # 97 = 9^2 + 4^2 has no unit multiple congruent to 1 mod 32
    assert attach_generator(4, 97) is None


def test_attach_generator_properties():
    for n, p in ((2, 41), (3, 757), (4, 13441), (4, 25601)):
        pi = attach_generator(n, p)
        assert abs(field_norm(pi)) == p
        assert is_one_mod(pi, wild_modulus(n))
        assert is_totally_positive(pi)
        v = distinguished_place(n, p)
        assert reduce_at(pi, v.p, v.omega) % p == 0


def test_divisibility_data_frozen():
    cv2, gens2 = _fix2()
    v = distinguished_place(2, 17)
    assert divisibility_data(cv2, v, gens2, 2) == ((0, (4, 3)), (1, (12, 13)))
    cv3, gens3 = _fix3()
    assert divisibility_data(cv3, distinguished_place(3, 7), gens3, 3) is None
    assert divisibility_data(cv3, distinguished_place(3, 19), gens3, 3) == (
        (0, (15, 3)),
    )


def test_divisibility_witnesses_multiply_back():
    cv2, gens2 = _fix2()
    v = distinguished_place(2, 17)
    cfp = reduce_curve(cv2, v)
    for idx, w in divisibility_data(cv2, v, gens2, 2):
        assert cfp.mul(2, w) == reduce_point(cv2, gens2[idx], v)


def test_divisibility_data_addition_budget(monkeypatch):
    # taking the order of every point of E(F_p) costs 1,259,328 additions
    # here; one lam*P = O test per pair {P, -P} costs 135,088
    calls = [0]
    add = ecq.CurveFp.add

    def counted(self, P, Q):
        calls[0] += 1
        return add(self, P, Q)

    monkeypatch.setattr(ecq.CurveFp, "add", counted)
    cv4, gens4 = _fix4()
    got = divisibility_data(cv4, distinguished_place(4, 13441), gens4, 2)
    assert got == ((0, (2117, 2573)), (1, (1672, 6652)))
    assert calls[0] <= 200_000


def test_divisibility_data_lists_no_points():
    # listing E(F_p) (a square-root list per residue, then every point)
    # peaked at 0.33 MB here; walking the points without a list and
    # stopping the witness search at its hit peaks at 0.08 MB
    cv4, gens4 = _fix4()
    place = distinguished_place(4, 2113)
    tracemalloc.start()
    try:
        divisibility_data(cv4, place, gens4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150_000


def test_residue_order_profile_frozen():
    v17 = distinguished_place(2, 17)
    assert residue_order_profile(CycloElem.rational(2, 41), v17) == (2, ())
    v757 = distinguished_place(3, 757)
    assert residue_order_profile(CycloElem(3, [82, 135]), v757) == (3, ((2, 1),))
    v13441 = distinguished_place(4, 13441)
    assert residue_order_profile(CycloElem(4, [1, 160]), v13441) == (4, ((3, 1),))


def test_find_v_frozen():
    cv2, gens2 = _fix2()
    c = find_v(cv2, 2, 10**4, gens2, 2)
    assert (c.p, c.pi, c.divisibility) == (
        17,
        CycloElem.rational(2, 17),
        ((0, (4, 3)), (1, (12, 13))),
    )
    cv3, gens3 = _fix3()
    c = find_v(cv3, 3, 10**4, gens3, 3)
    assert (c.p, c.pi, c.divisibility) == (
        757,
        CycloElem(3, [28, 27]),
        ((0, (570, 175)),),
    )
    cv4, gens4 = _fix4()
    c = find_v(cv4, 4, 2 * 10**4, gens4, 2)
    assert (c.p, c.pi) == (13441, CycloElem(4, [65, -96]))
    assert c.divisibility == ((0, (2117, 2573)), (1, (1672, 6652)))


def test_find_vprime_frozen():
    cv2, gens2 = _fix2()
    pair = find_vprime(cv2, 2, find_v(cv2, 2, 10**3, gens2, 2), 10**3)
    assert (pair.second.p, pair.second.pi) == (41, CycloElem.rational(2, 41))
    assert pair.residue_order == 2 and pair.conjugate_orders == ()
    cv3, gens3 = _fix3()
    pair = find_vprime(cv3, 3, find_v(cv3, 3, 10**3, gens3, 3), 2 * 10**4)
    assert (pair.second.p, pair.second.pi) == (13879, CycloElem(3, [82, 135]))
    assert pair.residue_order == 3 and pair.conjugate_orders == ((2, 1),)


def test_find_pair_conditions_revalidate():
    cv3, gens3 = _fix3()
    pair = find_pair(cv3, 3, 2 * 10**4, gens3, 3)
    for member in (pair.first, pair.second):
        assert is_probable_prime(member.p)
        assert abs(field_norm(member.pi)) == member.p
        assert is_one_mod(member.pi, wild_modulus(3))
    v = pair.first.place
    r = reduce_at(pair.second.pi, v.p, v.omega)
    assert residue_power_order(r, 3, v.p) == 3
    assert pair.first.p != pair.second.p
    assert pair.first.target_level == 3


def test_sieve_exhausted_histogram():
    cv3, gens3 = _fix3()
    with pytest.raises(SieveExhausted) as e:
        find_v(cv3, 3, 700, gens3, 3)
    assert e.value.stats.scanned == 7
    assert e.value.stats.no_generator == 7
    assert "scanned=7" in str(e.value)
