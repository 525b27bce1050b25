import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from period_index.cyclo import CycloElem, context, field_norm
from period_index import localfield
from period_index.localfield import (
    Place,
    WildPlaceError,
    archimedean_invariant,
    distinguished_place,
    factorint,
    invariant_order,
    is_one_mod,
    places_over,
    refine_place,
    residue_power_order,
    tame_invariant,
    valuation,
    valuation_and_unit,
    wild_modulus,
)
from norm_oracle import solve_norm_equation
import valuation_oracle


def _rand_nonzero(rng, n, span=9):
    d = context(n).degree
    while True:
        x = CycloElem(n, [rng.randint(-span, span) for _ in range(d)])
        if not x.is_zero():
            return x


def _rat(n, v):
    return CycloElem.rational(n, v)


# ---------------------------------------------------------------- oracle


def _hilbert2_odd_p(a: int, b: int, p: int) -> Fraction:
    """Independent degree-2 oracle at an odd prime p: the classical formula
    (a,b)_p = (-1)^(alpha*beta*eps(p)) (u|p)^beta (w|p)^alpha, mapped to
    {0, 1/2}."""
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1

    def legendre(u):
        t = pow(u % p, (p - 1) // 2, p)
        return 1 if t == 1 else -1

    eps = (p - 1) // 2
    val = (-1) ** (alpha * beta * eps) * legendre(a) ** beta * legendre(b) ** alpha
    return Fraction(0) if val == 1 else Fraction(1, 2)


# ---------------------------------------------------------------- places


def test_place_validation():
    Place(4, 13, 5)
    with pytest.raises(WildPlaceError):
        Place(3, 3, 1)
    with pytest.raises(ValueError):
        Place(4, 7, 1)  # 7 is not 1 mod 4
    with pytest.raises(ValueError):
        Place(4, 13, 12)  # order 2, not 4
    with pytest.raises(ValueError):
        Place(4, 13, 6)  # not a root at all


def test_places_over_and_distinguished():
    ps = places_over(4, 13)
    assert [pl.omega for pl in ps] == [5, 8]
    assert distinguished_place(4, 13) == ps[0]
    assert distinguished_place(2, 7).omega == 6  # -1 mod 7


def test_refine_place():
    base = distinguished_place(2, 13)  # omega = 12
    up = refine_place(base, 2)
    assert up.n == 4 and pow(up.omega, 2, 13) == base.omega
    assert up.omega == 5  # smallest of {5, 8}
    up2 = refine_place(distinguished_place(2, 17), 2)
    assert pow(up2.omega, 2, 17) == 16
    with pytest.raises(ValueError):
        refine_place(distinguished_place(2, 7), 2)  # 7 not 1 mod 4


# ------------------------------------------------------------ valuations


def test_valuation_frozen():
    pl5, pl8 = places_over(4, 13)
    x = CycloElem(4, [2, 3])  # norm 13
    assert valuation(x, pl5) == 0
    assert valuation(x, pl8) == 1
    assert valuation(_rat(4, 13), pl5) == 1
    assert valuation(_rat(4, Fraction(1, 13)), pl5) == -1
    assert valuation(_rat(4, 6), pl5) == 0


def test_valuation_additive_and_norm_compatible():
    rng = random.Random(7007)
    for n, p in ((3, 7), (4, 13), (2, 11), (9, 19)):
        pls = places_over(n, p)
        for _ in range(10):
            x = _rand_nonzero(rng, n)
            y = _rand_nonzero(rng, n)
            for pl in pls:
                assert valuation(x * y, pl) == valuation(x, pl) + valuation(y, pl)
            # total valuation over all conjugate places = ord_p(Norm)
            nrm = field_norm(x)
            k = 0
            num = int(nrm.numerator)
            while num % p == 0:
                num //= p
                k += 1
            assert sum(valuation(x, pl) for pl in pls) == k


def test_valuation_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        valuation(_rat(4, 0), distinguished_place(4, 13))


# the split primes of each level's differential test: at n = 2 every odd
# prime splits, at n = 3 (4) those 1 mod 3 (4)
_SPLIT_PRIMES = {2: (3, 5, 7, 13), 3: (7, 13, 19, 31), 4: (5, 13, 17, 29)}


@pytest.mark.parametrize("n", sorted(_SPLIT_PRIMES))
def test_valuation_matches_the_norm_bounded_oracle(n):
    # the precision-doubling valuation against the old one, whose
    # precision the norm bounds, at every place over each prime: seeded
    # elements times p^k up to k = 12 (valuations past the precisions 2,
    # 4 and 8), over denominators divisible by p (negative valuations), a
    # prime element's powers (valuation at one place, 0 at the others)
    # and units (roots of unity and 1 - zeta, of norm a prime of n)
    rng = random.Random(2300 + n)
    zeta = CycloElem.zeta(n)
    units = [s * CycloElem.zeta(n, i) for i in range(n) for s in (1, -1)] + [1 - zeta]
    for p in _SPLIT_PRIMES[n]:
        prime = solve_norm_equation(distinguished_place(n, p))
        cases = [prime**k for k in range(1, 13)]
        for _ in range(4):
            x = _rand_nonzero(rng, n)
            cases += [x * p**k for k in range(13)]
            cases += [x * Fraction(rng.randint(1, 30), p**k * rng.randint(2, 9)) for k in range(1, 4)]
        for pl in places_over(n, p):
            for x in cases:
                assert valuation_and_unit(x, pl) == valuation_oracle.valuation_and_unit(x, pl), (x, pl)
            for u in units:
                assert valuation_and_unit(u, pl) == valuation_oracle.valuation_and_unit(u, pl)
                assert valuation(u, pl) == 0


def test_valuation_of_the_acceptance_generators_matches_the_oracle():
    # pi and pi' of the four prime-power acceptance certificates, and
    # their product and quotient, at every place over both of their primes
    inputs = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
    for name in ("2-1", "2-2", "3-1", "3-3"):
        cert = json.loads((inputs / ("cert-%s.json" % name)).read_text())
        level = int(cert["inputs"]["curve"]["level"])
        pi, pi_prime = (
            CycloElem(level, [int(c) for c in cert["pair"][side]["pi"]]) for side in ("first", "second")
        )
        for p in map(int, cert["summary"]["places"]):
            for pl in places_over(level, p):
                for x in (pi, pi_prime, pi * pi_prime, pi / pi_prime):
                    assert valuation_and_unit(x, pl) == valuation_oracle.valuation_and_unit(x, pl)


# ------------------------------------------------------------ symbols


def test_tame_invariant_frozen_degree2():
    # <2, 3> at p=3 has invariant 1/2
    pl = distinguished_place(2, 3)
    assert tame_invariant(_rat(2, 2), _rat(2, 3), pl) == Fraction(1, 2)
    # <5, 13> at the degree-4 place (13, 5): invariant 3/4, order 4
    pl4 = distinguished_place(4, 13)
    inv = tame_invariant(_rat(4, 5), _rat(4, 13), pl4)
    assert inv == Fraction(3, 4)
    assert invariant_order(inv) == 4
    # <3, 13>: 3 is a fourth power mod 13, so the symbol dies
    assert tame_invariant(_rat(4, 3), _rat(4, 13), pl4) == 0


def test_tame_invariant_matches_hilbert_oracle():
    rng = random.Random(8008)
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        pl = distinguished_place(2, p)
        for _ in range(20):
            a = rng.randint(1, 400) * rng.choice([1, -1])
            b = rng.randint(1, 400) * rng.choice([1, -1])
            got = tame_invariant(_rat(2, a), _rat(2, b), pl)
            assert got == _hilbert2_odd_p(a, b, p)


def test_tame_invariant_bilinear_skew_steinberg():
    rng = random.Random(9009)
    for n, p in ((2, 11), (3, 13), (4, 29), (9, 19)):
        pl = distinguished_place(n, p)
        for _ in range(8):
            a = _rand_nonzero(rng, n)
            b = _rand_nonzero(rng, n)
            c = _rand_nonzero(rng, n)
            assert tame_invariant(a * b, c, pl) == (
                tame_invariant(a, c, pl) + tame_invariant(b, c, pl)
            ) % 1
            assert (tame_invariant(a, b, pl) + tame_invariant(b, a, pl)) % 1 == 0
            one_minus = CycloElem.rational(n, 1) - a
            if not one_minus.is_zero():
                assert tame_invariant(a, one_minus, pl) == 0


def test_tame_invariant_units_vanish():
    rng = random.Random(9109)
    for n, p in ((2, 7), (4, 13), (3, 7)):
        pl = distinguished_place(n, p)
        got_nonzero = 0
        for _ in range(15):
            a = _rand_nonzero(rng, n)
            b = _rand_nonzero(rng, n)
            if valuation(a, pl) == 0 and valuation(b, pl) == 0:
                assert tame_invariant(a, b, pl) == 0
            else:
                got_nonzero += 1
        # sanity: the loop must have seen at least one unit-unit pair
        assert got_nonzero < 15


def test_uniformizer_symbol_order_matches_residue_order():
    # ord <u, p> equals the order of u in F_p^* / n-th powers
    for n, p in ((4, 13), (3, 13), (2, 11), (8, 17)):
        pl = distinguished_place(n, p)
        for u in range(2, 12):
            if u % p == 0:
                continue
            inv = tame_invariant(_rat(n, u), _rat(n, p), pl)
            assert invariant_order(inv) == residue_power_order(u, n, p)


def test_fourth_power_classes_mod_13():
    # the fourth powers mod 13 are {1, 3, 9}; 5 has full order in the quotient
    powers = sorted({pow(x, 4, 13) for x in range(1, 13)})
    assert powers == [1, 3, 9]
    assert residue_power_order(5, 4, 13) == 4
    assert residue_power_order(3, 4, 13) == 1


def test_product_formula_degree2_over_Q():
    # sum over odd places + infinity + (inferred) 2 must vanish in Q/Z
    rng = random.Random(1010)
    for _ in range(25):
        a = rng.randint(1, 500) * rng.choice([1, -1])
        b = rng.randint(1, 500) * rng.choice([1, -1])
        support = {q for q in factorint(a)} | {q for q in factorint(b)}
        total = archimedean_invariant(Fraction(a), Fraction(b))
        for q in sorted(support - {2}):
            total += tame_invariant(_rat(2, a), _rat(2, b), distinguished_place(2, q))
        wild = _hilbert2_wild(a, b)
        assert (total + wild) % 1 == 0


def _hilbert2_wild(a: int, b: int) -> Fraction:
    """(a,b)_2 by the classical closed form, for the product-formula test."""
    alpha = 0
    while a % 2 == 0:
        a //= 2
        alpha += 1
    beta = 0
    while b % 2 == 0:
        b //= 2
        beta += 1
    eps = lambda u: (u - 1) // 2
    omg = lambda u: (u * u - 1) // 8
    e = eps(a) * eps(b) + alpha * omg(b) + beta * omg(a)
    return Fraction(0) if e % 2 == 0 else Fraction(1, 2)


def test_archimedean_invariant():
    assert archimedean_invariant(Fraction(-2), Fraction(-3)) == Fraction(1, 2)
    assert archimedean_invariant(Fraction(2), Fraction(-3)) == 0
    assert archimedean_invariant(Fraction(-2), Fraction(3)) == 0
    with pytest.raises(ZeroDivisionError):
        archimedean_invariant(Fraction(0), Fraction(1))


def test_invariant_sum_and_order():
    assert invariant_order(Fraction(0)) == 1
    assert invariant_order(Fraction(2, 4)) == 2
    assert invariant_order(Fraction(3, 9)) == 3


# ------------------------------------------------------------ wild/misc


def test_wild_modulus_values():
    assert wild_modulus(2) == 8
    assert wild_modulus(3) == 27
    assert wild_modulus(4) == 32
    assert wild_modulus(8) == 128
    assert wild_modulus(9) == 243


def test_is_one_mod():
    x = CycloElem(4, [33, 64])
    assert is_one_mod(x, 32)
    assert not is_one_mod(x, 64)
    assert not is_one_mod(CycloElem(4, [Fraction(1, 3), 0]), 3)


def test_one_mod_wild_modulus_is_local_nth_power_shadow():
    # rational x ≡ 1 mod 8 is a 2-adic square: verified directly mod 2^k
    for x in (9, 17, 25, 33, 41, 49):
        found = any(pow(y, 2, 2 ** 7) == x % 2 ** 7 for y in range(1, 2 ** 7, 2))
        assert found


def test_factorint():
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(-97) == {97: 1}
    big = 10**9 + 7
    assert factorint(big * 97 * 4) == {2: 2, 97: 1, big: 1}
    with pytest.raises(ZeroDivisionError):
        factorint(0)

