import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from period_index import cyclo
from period_index.cyclo import (
    CycloElem,
    context,
    cyclotomic_poly,
    field_norm,
    galois_apply,
    is_totally_positive,
    lifted_root,
    norm_shell,
    phi_roots_mod_p,
    reduce_at,
)
from period_index.localfield import Place, distinguished_place, factorint, is_one_mod, wild_modulus
from period_index.sieve import attach_generator
from norm_oracle import associates, solve_norm_equation


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


# ---------------------------------------------------------------- galois


def test_galois_is_field_automorphism():
    rng = random.Random(4004)
    for n in (3, 4, 8, 9):
        for t in context(n).units:
            x, y = _rand_elem(rng, n), _rand_elem(rng, n)
            assert galois_apply(x * y, t) == galois_apply(x, t) * galois_apply(y, t)
            assert galois_apply(x + y, t) == galois_apply(x, t) + galois_apply(y, t)
            assert galois_apply(galois_apply(x, t), pow(t, -1, n)) == x


def test_galois_apply_rejects_a_non_unit():
    # sigma_t is an automorphism only for t prime to the level of x
    for n, t in ((4, 2), (3, 3), (9, 6), (8, 0)):
        with pytest.raises(cyclo.ContextError):
            galois_apply(CycloElem.zeta(n), t)
    assert galois_apply(CycloElem.zeta(9), 4) == CycloElem.zeta(9, 4)


def test_galois_frozen_example():
    # zeta -> zeta^3 on 1 + zeta_4 gives 1 - zeta_4
    out = galois_apply(CycloElem(4, [1, 1]), 3)
    assert out == CycloElem(4, [1, -1])


def _conjugates(x):
    return [galois_apply(x, t) for t in context(x.n).units]


def test_conjugates_count():
    # the conjugates of zeta are distinct, one per embedding
    for n in (2, 3, 4, 5, 8, 9):
        assert len(set(_conjugates(CycloElem.zeta(n)))) == context(n).degree


# ---------------------------------------------------------------- places


def test_split_place_frozen():
    assert distinguished_place(4, 13) == Place(4, 13, 5)
    assert distinguished_place(3, 7) == Place(3, 7, 2)


def test_split_place_rejects_bad_input():
    with pytest.raises(ValueError):
        distinguished_place(4, 15)  # composite
    with pytest.raises(ValueError):
        distinguished_place(3, 3)  # ramified
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
        omega = distinguished_place(n, p).omega
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
        omega = distinguished_place(n, p).omega
        r = lifted_root(n, p, omega, prec)
        assert r % p == omega
        phi = cyclotomic_poly(n)
        val = sum(c * pow(r, i, p ** prec) for i, c in enumerate(phi)) % p ** prec
        assert val == 0


# ---------------------------------------------------------------- norm eq


def _coord_key(c):
    # nonnegative values first (ascending), then negative (by magnitude)
    return (0, c) if c >= 0 else (1, -c)


def _box_shell(n, m, lo, hi):
    """norm_shell by brute force: every x ≡ 1 mod m with coordinates in a
    box that holds all elements of norm at most hi, by field_norm."""
    r = hi if n == 2 else isqrt(4 * hi)
    box = range(-r - 1, r + 2)
    rows = [()] if n == 2 else [(b,) for b in box if b % m == 0]
    out = set()
    for a in box:
        for rest in rows:
            if a % m == 1 % m:
                nrm = field_norm(CycloElem(n, (a,) + rest))
                if lo < nrm <= hi:
                    out.add((nrm, (a,) + rest))
    return out


def test_norm_shell_matches_a_box_scan():
    # every modulus from 1 (all of Z[zeta_n]) to the wild ones, shells
    # from the origin and annuli, against the brute-force scan
    rng = random.Random(2020)
    for n in cyclo.NORM_LEVELS:
        for m in (1, 2, 3, 5, wild_modulus(n)):
            for lo, hi in [(0, 1), (0, 400), (1, 2)] + [
                tuple(sorted(rng.sample(range(600), 2))) for _ in range(4)
            ]:
                got = list(norm_shell(n, m, lo, hi))
                assert len(got) == len(set(got)), (n, m, lo, hi)
                assert set(got) == _box_shell(n, m, lo, hi), (n, m, lo, hi)


def test_norm_shell_only_at_the_norm_levels():
    for n in (5, 8, 9):
        with pytest.raises(cyclo.ContextError):
            list(norm_shell(n, wild_modulus(n), 0, 1000))


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
            x = solve_norm_equation(distinguished_place(n, p))
            assert abs(field_norm(x)) == p


def test_solve_norm_equation_only_at_the_norm_levels():
    for n, p in ((5, 11), (8, 17), (9, 19)):
        with pytest.raises(cyclo.ContextError):
            solve_norm_equation(distinguished_place(n, p))


def test_is_probable_prime_matches_a_sieve():
    N = 50_000
    composite = bytearray(N)
    for q in range(2, isqrt(N) + 1):
        if not composite[q]:
            composite[q * q :: q] = b"\x01" * len(range(q * q, N, q))
    assert [m for m in range(N) if cyclo.is_probable_prime(m)] == [
        m for m in range(2, N) if not composite[m]
    ]
    # each psi_k passes the first k bases, so it needs one more (psi_12
    # passes all twelve: the test is exact only below it)
    for psi in cyclo._PSI[:-1]:
        assert not cyclo.is_probable_prime(psi)
    for prime in (2_147_483_647, 1_000_000_007, 2**61 - 1):
        assert cyclo.is_probable_prime(prime)


def test_is_probable_prime_refuses_what_it_cannot_prove():
    psi = cyclo._PSI[-1]
    assert psi == 399_165_290_221 * 798_330_580_441 == cyclo.PRIME_PROOF_LIMIT
    # the least prime above psi_12 that is 1 mod 8, proved by Lucas's
    # test: 5 has order p - 1 mod p
    p = psi + 36
    fac = factorint(p - 1)  # every cofactor lies below psi_12
    assert fac == {2: 3, 3: 2, 67: 1, 6073: 1, 10_877_396_384_140_523: 1}
    assert pow(5, p - 1, p) == 1 and all(pow(5, (p - 1) // q, p) != 1 for q in fac)
    # psi_12 and the primes past it pass all twelve bases: none is proved
    for m in (psi, p, 2**89 - 1):
        with pytest.raises(ValueError):
            cyclo.is_probable_prime(m)
        with pytest.raises(ValueError):
            factorint(4 * m)
    # a base that fails proves a composite past psi_12 all the same
    assert not cyclo.is_probable_prime(p * 1_000_000_007)
    assert not cyclo.is_probable_prime(psi + 2)


def test_solve_norm_equation_needs_a_prime():
    # solve_norm_equation takes the prime as proved by the place: there is
    # no distinguished place over 65 = 1 + 64 = 16 + 49
    with pytest.raises(ValueError):
        distinguished_place(4, 65)


def _ref_coord_range(bound):
    return sorted(range(-bound, bound + 1), key=_coord_key)


def _ref_solve_norm_quadratic(n, p):
    """The least element of norm p in the canonical order (coordinates
    compared from the highest power down, each by _coord_key), by a scan
    over the outer coefficient b: the element the sieve once started its
    generator pinning from.  No coordinate of an element of norm p
    exceeds sqrt(4p/3) in absolute value."""
    bound = isqrt(4 * p // 3) + 1
    for b in _ref_coord_range(bound):
        candidates = []
        if n == 4:
            rest = p - b * b
            if rest >= 0:
                r = isqrt(rest)
                if r * r == rest and abs(r) <= bound:
                    candidates = [r, -r] if r else [0]
        else:
            disc = 4 * p - 3 * b * b
            if disc >= 0:
                r = isqrt(disc)
                if r * r == disc:
                    for a2 in (b + r, b - r):
                        if a2 % 2 == 0 and abs(a2 // 2) <= bound:
                            candidates.append(a2 // 2)
        for a in sorted(set(candidates), key=_coord_key):
            x = CycloElem(n, [a, b])
            if abs(field_norm(x)) == p:
                return x
    return None


def _units(n):
    return [s * CycloElem.zeta(n, k) for k in range(n) for s in (1, -1)]


def _ref_pin_from_the_scan(n, p, place):
    """The generator as the sieve pinned it from the canonical x0: of x0
    and its complex conjugate, the one that vanishes at the place, times
    the roots of unity in the order +-1, +-zeta, ...; the first multiple
    that is 1 mod the wild modulus."""
    x0 = _ref_solve_norm_quadratic(n, p)
    if reduce_at(x0, p, place.omega):
        x0 = galois_apply(x0, n - 1)
    multiples = (u * x0 for u in _units(n))
    return x0, next((y for y in multiples if is_one_mod(y, wild_modulus(n))), None)


def test_solve_norm_equation_matches_the_scan():
    # every split p < 20,000 at both degree-2 levels: the lattice vector
    # is a unit multiple of the scanned x0 or its conjugate, the one that
    # vanishes at the place, and the generator pinned from either is the
    # same
    cases = found = 0
    for n in (3, 4):
        for p in range(n + 1, 20_000, n):
            if not cyclo.is_probable_prime(p):
                continue
            place = distinguished_place(n, p)
            w = solve_norm_equation(place)
            assert field_norm(w) == p and reduce_at(w, p, place.omega) == 0, (n, p)
            x0, pi = _ref_pin_from_the_scan(n, p, place)
            assert w in [u * x0 for u in _units(n)], (n, p)
            assert attach_generator(n, p) == pi, (n, p)
            cases += 1
            found += pi is not None
    assert cases > 2_000 and found == 18


def test_associates_are_unit_multiples():
    # u*w for u = +-1, +-zeta, ..., +-zeta^(n-1)
    rng = random.Random(9)
    for n in cyclo.NORM_LEVELS:
        d = context(n).degree
        for _ in range(10):
            w = CycloElem(n, [rng.randint(-9, 9) for _ in range(d)])
            assert associates(n, w.num) == [(u * w).num for u in _units(n)]


def test_at_most_one_associate_is_one_mod_the_wild_modulus():
    # two would differ by (u - u')w ≡ 0 mod m with w prime to m, and no
    # difference of roots of unity is divisible by m; each w = u^-1 (1 + m z)
    # has exactly one
    rng = random.Random(19)
    for n in cyclo.NORM_LEVELS:
        d, m = context(n).degree, wild_modulus(n)
        hits = []
        for k in range(300):
            if k % 2:
                z = CycloElem(n, [rng.randint(-20, 20) for _ in range(d)])
                w = (z * m + 1) * rng.choice(_units(n)).invert()
            else:
                w = CycloElem(n, [rng.randint(-999, 999) for _ in range(d)])
            if w.is_zero() or field_norm(w).numerator % context(n).prime == 0:
                continue  # not prime to m
            hits.append(len({y for y in associates(n, w.num) if is_one_mod(CycloElem(n, y), m)}))
        assert max(hits) == 1 and hits.count(1) >= 100, n


# ---------------------------------------------------------------- misc


def test_is_totally_positive():
    assert is_totally_positive(CycloElem.rational(2, 5))
    assert not is_totally_positive(CycloElem.rational(2, -5))
    assert not is_totally_positive(CycloElem.rational(2, 0))
    # complex levels: vacuous
    assert is_totally_positive(CycloElem(4, [-3, 1]))


def test_integrality_and_denominator():
    x = CycloElem(4, [Fraction(1, 2), 3])
    assert not x.is_integral()
    assert x.den == 2
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
            ]
            # the power loop, over the closed-form products at n = 2, 3, 4
            # and the convolution at n = 5, 8, 9
            results += [(x ** e, rx ** e) for e in range(0 if x.is_zero() else -3, 10)]
            q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            results += [(x * q, rx.scale(q)), (x + q, rx + _RefElem(n, [q])),
                        (q - x, _RefElem(n, [q]) - rx), (x / q, rx.scale(1 / q))]
            t = rng.choice(units)
            results.append((galois_apply(x, t), rx.galois(t)))
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
