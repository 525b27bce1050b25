import random
from fractions import Fraction
from math import gcd

import pytest

from period_index import cyclo
from period_index.cyclo import (
    CycloElem,
    GaloisAuto,
    conjugates,
    context,
    cyclotomic_poly,
    evaluate_mod,
    field_norm,
    galois_apply,
    is_totally_positive,
    lifted_root,
    phi_roots_mod_p,
    reduce_at,
    solve_norm_equation,
    split_place,
    vector_key,
)


# ---------------------------------------------------------------- oracles


def _poly_norm_resultant(n, coeffs):
    """Independent norm oracle: Res(Phi_n, f) via the Euclidean algorithm
    over Q[x].  Written from the resultant recurrence, no shared code with
    the implementation under test."""
    A = [Fraction(c) for c in cyclotomic_poly(n)]
    B = [Fraction(c) for c in coeffs]

    def deg(P):
        d = len(P) - 1
        while d >= 0 and P[d] == 0:
            d -= 1
        return d

    def rem(P, Q):
        P = P[:]
        dq = deg(Q)
        inv = Fraction(1) / Q[dq]
        for i in range(deg(P) - dq, -1, -1):
            c = P[i + dq] * inv
            if c == 0:
                continue
            for j in range(dq + 1):
                P[i + j] -= c * Q[j]
        return P

    res = Fraction(1)
    while True:
        da, db = deg(A), deg(B)
        if db < 0:
            return Fraction(0)
        if db == 0:
            return res * B[0] ** da
        R = rem(A, B)
        dr = deg(R)
        res *= (-1) ** (da * db) * B[db] ** (da - max(dr, 0))
        A, B = B, R


def _rand_elem(rng, n, span=9):
    d = context(n).degree
    return CycloElem(n, [rng.randint(-span, span) for _ in range(d)])


# ---------------------------------------------------------------- basics


def test_cyclotomic_poly_frozen():
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(3) == [1, 1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(5) == [1, 1, 1, 1, 1]
    assert cyclotomic_poly(8) == [1, 0, 0, 0, 1]
    assert cyclotomic_poly(9) == [1, 0, 0, 1, 0, 0, 1]


def test_cyclotomic_poly_rejects_non_prime_power():
    with pytest.raises(cyclo.ContextError):
        cyclotomic_poly(6)
    with pytest.raises(cyclo.ContextError):
        cyclotomic_poly(12)
    with pytest.raises(cyclo.ContextError):
        context(6)


def test_zeta_has_order_n():
    for n in (2, 3, 4, 5, 8, 9):
        z = CycloElem.zeta(n)
        assert z ** n == 1
        for k in range(1, n):
            assert z ** k != 1


def test_invert_frozen_value():
    # (1 + zeta_4)^-1 = (1 - zeta_4)/2
    x = CycloElem(4, [1, 1])
    inv = x.invert()
    assert inv == CycloElem(4, [Fraction(1, 2), Fraction(-1, 2)])
    assert x * inv == 1


def test_invert_random_roundtrip():
    rng = random.Random(1001)
    for n in (2, 3, 4, 8, 9):
        for _ in range(25):
            x = _rand_elem(rng, n)
            if x.is_zero():
                continue
            assert x * x.invert() == 1
            assert (x / x) == 1


def test_mixed_context_rejected():
    with pytest.raises(cyclo.ContextError):
        CycloElem(3, [1, 1]) * CycloElem(4, [1, 1])


# ---------------------------------------------------------------- norms


def test_field_norm_frozen():
    assert field_norm(CycloElem(4, [2, 1])) == 5
    assert field_norm(CycloElem(3, [1, -1])) == 3
    assert field_norm(CycloElem(3, [3, 1])) == 7


def test_field_norm_matches_resultant_oracle():
    rng = random.Random(2002)
    for n in (2, 3, 4, 5, 8, 9):
        for _ in range(12):
            x = _rand_elem(rng, n, span=5)
            want = _poly_norm_resultant(n, [c for c in x.coeffs])
            assert field_norm(x) == want


def test_field_norm_multiplicative():
    rng = random.Random(3003)
    for n in (3, 4, 9):
        for _ in range(15):
            x, y = _rand_elem(rng, n), _rand_elem(rng, n)
            assert field_norm(x * y) == field_norm(x) * field_norm(y)


def test_recorded_units_have_unit_norm():
    for n, gens in cyclo.NORM_UNITS.items():
        for g in gens:
            assert abs(field_norm(CycloElem(n, g))) == 1


# ---------------------------------------------------------------- galois


def test_galois_is_field_automorphism():
    rng = random.Random(4004)
    for n in (3, 4, 8, 9):
        for t in context(n).units:
            s = GaloisAuto(n, t)
            x, y = _rand_elem(rng, n), _rand_elem(rng, n)
            assert galois_apply(s, x * y) == galois_apply(s, x) * galois_apply(s, y)
            assert galois_apply(s, x + y) == galois_apply(s, x) + galois_apply(s, y)
            assert galois_apply(s.inverse(), galois_apply(s, x)) == x


def test_galois_frozen_example():
    # zeta -> zeta^3 on 1 + zeta_4 gives 1 - zeta_4
    out = galois_apply(GaloisAuto(4, 3), CycloElem(4, [1, 1]))
    assert out == CycloElem(4, [1, -1])


def test_conjugates_count():
    for n in (2, 3, 4, 5, 8, 9):
        assert len(conjugates(CycloElem.zeta(n))) == context(n).degree


# ---------------------------------------------------------------- places


def test_split_place_frozen():
    assert split_place(4, 13) == (13, 5)
    assert split_place(3, 7) == (7, 2)


def test_split_place_rejects_bad_input():
    with pytest.raises(ValueError):
        split_place(4, 15)  # composite
    with pytest.raises(ValueError):
        split_place(3, 3)  # ramified
    with pytest.raises(ValueError):
        phi_roots_mod_p(4, 7)  # 7 is not 1 mod 4


def test_phi_roots_have_exact_order():
    for n, p in ((3, 13), (4, 29), (9, 19), (8, 41), (5, 31)):
        roots = phi_roots_mod_p(n, p)
        assert len(roots) == context(n).degree
        for w in roots:
            assert pow(w, n, p) == 1
            q = cyclo._prime_power_split(n)[0]
            assert pow(w, n // q, p) != 1


def test_reduce_at_is_ring_hom():
    rng = random.Random(5005)
    for n, p in ((3, 7), (4, 13), (9, 19)):
        _, omega = split_place(n, p)
        for _ in range(20):
            x, y = _rand_elem(rng, n), _rand_elem(rng, n)
            rx, ry = reduce_at(x, p, omega), reduce_at(y, p, omega)
            assert reduce_at(x * y, p, omega) == rx * ry % p
            assert reduce_at(x + y, p, omega) == (rx + ry) % p


def test_reduce_at_denominator_guard():
    x = CycloElem(4, [Fraction(1, 13), 0])
    with pytest.raises(ValueError):
        reduce_at(x, 13, 5)


def test_lifted_root_consistency():
    for n, p, prec in ((4, 13, 4), (3, 7, 5), (9, 19, 3)):
        _, omega = split_place(n, p)
        r = lifted_root(n, p, omega, prec)
        assert r % p == omega
        phi = cyclotomic_poly(n)
        val = sum(c * pow(r, i, p ** prec) for i, c in enumerate(phi)) % p ** prec
        assert val == 0


def test_evaluate_mod_high_precision():
    # evaluation mod p^k agrees with reduce_at after reduction mod p
    n, p = 4, 13
    _, omega = split_place(n, p)
    r = lifted_root(n, p, omega, 3)
    x = CycloElem(4, [7, -5])
    hi = evaluate_mod(x, r, p ** 3)
    assert hi % p == reduce_at(x, p, omega)


# ---------------------------------------------------------------- norm eq


def test_solve_norm_equation_frozen():
    assert solve_norm_equation(4, 5, 10) == CycloElem(4, [2, 1])
    assert solve_norm_equation(3, 7, 10) == CycloElem(3, [3, 1])
    assert solve_norm_equation(2, 5, 10) == CycloElem.rational(2, 5)


def test_solve_norm_equation_canonical_order_is_stable():
    # the hit must be minimal in vector_key order among all bounded solutions
    for n, p, bound in ((4, 13, 8), (3, 13, 8)):
        hit = solve_norm_equation(n, p, bound)
        assert hit is not None
        sols = []
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                x = CycloElem(n, [a, b])
                if not x.is_zero() and abs(field_norm(x)) == p:
                    sols.append(x)
        best = min(sols, key=lambda x: vector_key([c for c in x.coeffs]))
        assert hit == best


def test_solve_norm_equation_random_split_primes():
    rng = random.Random(6006)
    for n in (3, 4):
        count = 0
        p = 1
        while count < 6:
            p += n
            if not cyclo.is_probable_prime(p):
                continue
            count += 1
            x = solve_norm_equation(n, p, 4 * (1 + int(p ** 0.5)))
            assert x is not None and abs(field_norm(x)) == p


def test_solve_norm_equation_generic_level():
    # 11 = Norm(zeta_5 coordinates ...): smallest split prime for n=5
    x = solve_norm_equation(5, 11, 2)
    assert x is not None
    assert abs(field_norm(x)) == 11


def test_solve_norm_equation_returns_none_when_bound_too_small():
    assert solve_norm_equation(2, 11, 5) is None


# ---------------------------------------------------------------- misc


def test_is_totally_positive():
    assert is_totally_positive(CycloElem.rational(2, 5))
    assert not is_totally_positive(CycloElem.rational(2, -5))
    assert not is_totally_positive(CycloElem.rational(2, 0))
    # complex levels: vacuous
    assert is_totally_positive(CycloElem(4, [-3, 1]))


def test_vector_key_order():
    ordered = sorted([2, -1, 0, -2, 1], key=lambda c: vector_key([c]))
    assert ordered == [0, 1, 2, -1, -2]
    # highest coordinate dominates
    assert vector_key([5, 0]) < vector_key([0, 1])


def test_integrality_and_denominator():
    x = CycloElem(4, [Fraction(1, 2), 3])
    assert not x.is_integral()
    assert x.denominator() == 2
    assert (x * 2).is_integral()


# ------------------------------------------------------ differential test


class _RefElem:
    """The Fraction-coordinate CycloElem as it was before integer
    coordinates, with its extended-gcd inverse against Phi_n: the
    reference for test_cyclo_elem_matches_fraction_reference."""

    def __init__(self, n, coeffs):
        phi = cyclotomic_poly(n)
        d = len(phi) - 1
        fold = [Fraction(-c) for c in phi[:-1]]
        rows = [fold]
        for _ in range(2 * n - 2 - d):
            prev = rows[-1]
            shifted = [Fraction(0)] + prev[:-1]
            rows.append([shifted[j] + prev[-1] * fold[j] for j in range(d)])
        cs = [Fraction(c) for c in coeffs]
        out = cs[:d] + [Fraction(0)] * max(0, d - len(cs))
        for i, c in enumerate(cs[d:]):
            for j in range(d):
                out[j] += c * rows[i][j]
        self.n, self.coeffs = n, tuple(out)

    def __add__(self, other):
        return _RefElem(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return _RefElem(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        d = len(self.coeffs)
        raw = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                raw[i + j] += a * b
        return _RefElem(self.n, raw)

    def scale(self, q):
        return _RefElem(self.n, [a * q for a in self.coeffs])

    def invert(self):
        phi = [Fraction(c) for c in cyclotomic_poly(self.n)]
        g, _, inv = _ref_ext_gcd(phi, list(self.coeffs))
        return _RefElem(self.n, [c / g[0] for c in inv])

    def __pow__(self, e):
        if e < 0:
            return self.invert() ** (-e)
        acc = _RefElem(self.n, [1])
        for _ in range(e):
            acc = acc * self
        return acc

    def __eq__(self, other):
        return self.n == other.n and self.coeffs == other.coeffs

    def galois(self, t):
        raw = [Fraction(0)] * self.n
        for i, c in enumerate(self.coeffs):
            raw[(i * t) % self.n] += c
        return _RefElem(self.n, raw)

    def embed(self, m):
        raw = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            raw[(i * (m // self.n)) % m] += c
        return _RefElem(m, raw)

    def norm(self):
        acc = _RefElem(self.n, [1])
        for t in context(self.n).units:
            acc = acc * self.galois(t)
        return acc.coeffs[0]


def _ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _ref_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] / b[-1]
        q[i] = coef
        for j, bj in enumerate(b):
            a[i + j] -= coef * bj
    return _ref_trim(q), _ref_trim(a)


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _ref_trim(out)


def _ref_ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g over Q[x]."""
    r0, r1 = _ref_trim(list(a)), _ref_trim(list(b))
    s0, s1, t0, t1 = [Fraction(1)], [], [], [Fraction(1)]
    while r1:
        q, r = _ref_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ref_sub(s0, _ref_mul(q, s1))
        t0, t1 = t1, _ref_sub(t0, _ref_mul(q, t1))
    return r0, s0, t0


def _rand_coords(rng, n):
    # mixed denominators, some zero coordinates, some rational elements
    d = context(n).degree
    dens = (1, 1, 2, 3, 4, 6, 9, 12, 35)
    cs = [Fraction(rng.randint(-20, 20), rng.choice(dens)) for _ in range(d)]
    if rng.random() < 0.2:
        cs = cs[:1] + [Fraction(0)] * (d - 1)
    elif rng.random() < 0.3:
        cs[rng.randrange(d)] = Fraction(0)
    return cs


def _pairs(rng, n, count):
    for _ in range(count):
        a, b = _rand_coords(rng, n), _rand_coords(rng, n)
        yield (CycloElem(n, a), _RefElem(n, a)), (CycloElem(n, b), _RefElem(n, b))


def test_cyclo_elem_matches_fraction_reference():
    rng = random.Random(4004)
    for n in cyclo.SUPPORTED_LEVELS:
        units = context(n).units
        for (x, rx), (y, ry) in _pairs(rng, n, 30):
            results = [
                (x + y, rx + ry),
                (x - y, rx - ry),
                (x * y, rx * ry),
                (x * x, rx * rx),
                (x ** 3, rx ** 3),
            ]
            q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            results += [(x * q, rx.scale(q)), (x + q, rx + _RefElem(n, [q])),
                        (q - x, _RefElem(n, [q]) - rx), (x / q, rx.scale(1 / q))]
            t = rng.choice(units)
            results.append((galois_apply(GaloisAuto(n, t), x), rx.galois(t)))
            for m in cyclo.SUPPORTED_LEVELS:
                if m % n == 0 and m != n:
                    results.append((cyclo.embed_level(x, m), rx.embed(m)))
            if not y.is_zero():
                results += [(x / y, rx * ry.invert()), (y.invert(), ry.invert()),
                            (y ** -2, ry ** -2), ((x * y) / y, (rx * ry) * ry.invert())]
            # raw polynomial data of degree up to n - 1, folded on input
            raw = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4))) for _ in range(n)]
            results.append((CycloElem(n, raw), _RefElem(n, raw)))
            if not x.is_zero():
                assert field_norm(x) == rx.norm()
            assert (x == q) == (rx == _RefElem(n, [q])) and CycloElem(n, [q]) == q
            for got, want in results:
                assert got.n == want.n and got.coeffs == want.coeffs
                # one representation per element: lowest terms, positive den
                assert got.den > 0 and gcd(got.den, *got.num) == 1
            for (a, ra), (b, rb) in zip(results, results[1:] + results[:1]):
                assert (a == b) == (ra == rb)
            if not y.is_zero():
                # equal elements reached by different products are equal
                # and hash alike
                back = (x * y) / y
                assert back == x and hash(back) == hash(x)
                assert (x + y) - y == x and hash((x + y) - y) == hash(x)
