"""Elliptic curves in long Weierstrass form, over Q(zeta_n) and over F_p.

Two parallel implementations of the group law: an exact one with CycloElem
coordinates (used for the rescaled T of a torsion basis, and at n = 2
for its third point), from the chord through two points, and one over
ints modulo p (used by the sieve on reductions, and for the table of
E[n], the Weil pairing and the Galois action at one auxiliary prime), whose add and mul write the slope and the
sum out inline; its chord and _third serve the lines of Miller's loop.
Affine points are (x, y) pairs; None is the point at infinity throughout.

The exact checks read a rational model's coefficients as ints (Fractions
where one has a denominator), not as CycloElems: the b-invariants and
Delta are computed once per curve in that ring, a point is tested on the
curve in Horner form, and n*P = O is decided by the division polynomial
psi_n at P (CurveL.in_torsion), with no inversion in L.  A model with a
cyclotomic coefficient takes the same formulas over CycloElem.

One rule decides good reduction, for any exact model: a prime p is good
when it does not divide CurveL.bad_modulus = n * N(Delta) * (coefficient
denominators).  Then at every place over p the coefficients are integral
and Delta is a unit.  It is computed once per curve, and no discriminant
is factored; for a rational model N(Delta) = Delta^[L:Q] is taken over Z.

The group structure of E(F_p) is built without an O(p) pass when it can
be: Hasse's bound puts #E(F_p) in an interval of some 4 sqrt(p) integers,
so baby-step giant-step finds a multiple of each walked point's order
there, and the count is pinned as the one multiple of the exponent in
the interval.  Only when several multiples fit is the count taken, as a
Legendre sum over F_p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from math import gcd, isqrt, prod
from typing import Iterable, Optional

from .cyclo import CycloElem, Record, context, field_norm, reduce_at
from .localfield import Place, factorint, valuation_and_unit


LPoint = Optional[tuple[CycloElem, CycloElem]]
FpPoint = Optional[tuple[int, int]]


class CurveError(ValueError):
    pass


def _invariants(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, b8, Delta) of the model (Silverman, AEC III.1), in the
    ring the coefficients lie in: ints, Fractions or CycloElems."""
    b2 = a1 * a1 + a2 * 4
    b4 = a4 * 2 + a1 * a3
    b6 = a3 * a3 + a6 * 4
    b8 = a1 * a1 * a6 + a2 * a6 * 4 - a1 * a3 * a4 + a2 * (a3 * a3) - a4 * a4
    return b2, b4, b6, b8, -(b2 * b2) * b8 - b4 ** 3 * 8 - b6 * b6 * 27 + b2 * b4 * b6 * 9


def _horner(x: CycloElem, coeffs: tuple) -> CycloElem:
    """The polynomial with the given coefficients, leading first and
    nonzero, at x, in Horner form; a zero coefficient adds nothing, and a
    leading 1 multiplies nothing."""
    acc = x if coeffs[0] == 1 else x * coeffs[0]
    for c in coeffs[1:-1]:
        acc = (acc + c if c else acc) * x
    return acc + coeffs[-1] if coeffs[-1] else acc


class CurveL(Record):
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q(zeta_n)."""

    # __dict__ holds the values model, invariants and bad_modulus cache
    __slots__ = ("n", "a1", "a2", "a3", "a4", "a6", "__dict__")

    def __init__(self, n: int, a1: CycloElem, a2: CycloElem, a3: CycloElem, a4: CycloElem,
                 a6: CycloElem):
        super().__init__(n, a1, a2, a3, a4, a6)

    # --- invariants -----------------------------------------------------
    @cached_property
    def model(self) -> tuple:
        """(a1, a2, a3, a4, a6) in the ring the arithmetic reads them in:
        for a rational model ints, or Fractions where a coefficient has a
        denominator; otherwise the CycloElems."""
        cs = self.coefficient_list()
        if not self.is_rational_model():
            return tuple(cs)
        return tuple(a.num[0] if a.den == 1 else Fraction(a.num[0], a.den) for a in cs)

    @cached_property
    def invariants(self) -> tuple:
        """(b2, b4, b6, b8, Delta), in the ring of model, computed once."""
        return _invariants(*self.model)

    def discriminant(self) -> CycloElem:
        delta = self.invariants[4]
        return delta if isinstance(delta, CycloElem) else CycloElem.rational(self.n, delta)

    def is_rational_model(self) -> bool:
        return all(a.is_rational() for a in (self.a1, self.a2, self.a3, self.a4, self.a6))

    def coefficient_list(self):
        return [self.a1, self.a2, self.a3, self.a4, self.a6]

    @cached_property
    def bad_modulus(self) -> int:
        """n * N(Delta) * (coefficient denominators).  A prime p does not
        divide it exactly when p is prime to n and, at every place over p,
        every coefficient is integral and Delta is a unit: the model has
        good reduction at all of them.  The norm's numerator serves,
        since a prime of its denominator divides a coefficient
        denominator.  For a rational model Delta is rational, and its
        norm is Delta^[L:Q], taken over Z."""
        delta = self.invariants[4]
        if isinstance(delta, CycloElem):
            norm = field_norm(delta)
        else:
            norm = delta ** context(self.n).degree
        dens = prod(a.den for a in self.coefficient_list())
        return abs(self.n * norm.numerator * dens)

    # --- point predicates ------------------------------------------------
    def on_curve(self, P: LPoint) -> bool:
        if P is None:
            return True
        x, y = P
        _, a2, _, a4, a6 = self.model
        return self._y_part(x, y) * y == _horner(x, (1, a2, a4, a6))

    def _y_part(self, x: CycloElem, y: CycloElem) -> CycloElem:
        """y + a1 x + a3: times y it is the left side of the model, and y
        plus it is psi_2."""
        a1, _, a3, _, _ = self.model
        w = y + a3 if a3 else y
        return w + x * a1 if a1 else w

    def in_torsion(self, n: int, P: LPoint) -> bool:
        """Whether n*P = O, for P on the curve, read from the division
        polynomial psi_n at P (Silverman, AEC Ex. 3.7), with no inversion:
        psi_n vanishes exactly at the points of E[n] other than O.  For
        odd n, psi_n = f_n(x); for even n, psi_n = psi_2 * f_n(x), with
        psi_2 = 2y + a1 x + a3.  Here f_1 = f_2 = 1,

          f_3 = 3x^4 + b2 x^3 + 3b4 x^2 + 3b6 x + b8,
          f_4 = 2x^6 + b2 x^5 + 5b4 x^4 + 10b6 x^3 + 10b8 x^2
                + (b2 b8 - b4 b6) x + (b4 b8 - b6^2),

        and past 4, with F = psi_2^2 = 4x^3 + b2 x^2 + 2b4 x + b6,

          f_2m = f_m (f_(m+2) f_(m-1)^2 - f_(m-2) f_(m+1)^2),
          f_2m+1 = F^2 f_(m+2) f_m^3 - f_(m-1) f_(m+1)^3    (m even),
          f_2m+1 = f_(m+2) f_m^3 - F^2 f_(m-1) f_(m+1)^3    (m odd)."""
        if P is None:
            return True
        x, y = P
        if n % 2 == 0 and (y + self._y_part(x, y)).is_zero():
            return True
        b2, b4, b6, b8, _ = self.invariants
        f = [0, 1, 1]
        if n >= 3:
            f.append(_horner(x, (3, b2, 3 * b4, 3 * b6, b8)))
        if n >= 4:
            f.append(_horner(x, (2, b2, 5 * b4, 10 * b6, 10 * b8, b2 * b8 - b4 * b6,
                                 b4 * b8 - b6 * b6)))
        if n >= 5:
            F2 = _horner(x, (4, b2, 2 * b4, b6)) ** 2
        for k in range(5, n + 1):
            m = k // 2
            if k % 2 == 0:
                f.append(f[m] * (f[m + 2] * f[m - 1] ** 2 - f[m - 2] * f[m + 1] ** 2))
            elif m % 2 == 0:
                f.append(F2 * f[m + 2] * f[m] ** 3 - f[m - 1] * f[m + 1] ** 3)
            else:
                f.append(f[m + 2] * f[m] ** 3 - F2 * f[m - 1] * f[m + 1] ** 3)
        return n > 2 and f[n].is_zero()

    # --- group law --------------------------------------------------------
    def neg(self, P: LPoint) -> LPoint:
        if P is None:
            return None
        x, y = P
        return (x, -y - self.a1 * x - self.a3)

    def chord(self, P: tuple, Q: tuple) -> Optional[tuple]:
        """The line through affine P and Q (the tangent when P = Q) as
        (lam, nu) with y = lam*x + nu on it, or None when it is vertical
        (Q = -P)."""
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            den = 2 * y1 + self.a1 * x1 + self.a3
            if y2 == y1 - den:  # Q = -P
                return None
            lam = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) / den
        else:
            lam = (y2 - y1) / (x2 - x1)
        return lam, y1 - lam * x1

    def add(self, P: LPoint, Q: LPoint) -> LPoint:
        if P is None:
            return Q
        if Q is None:
            return P
        line = self.chord(P, Q)
        return None if line is None else self._third(P, Q, line)

    def _third(self, P: tuple, Q: tuple, line: tuple) -> tuple:
        """P + Q, from the line through P and Q."""
        lam, nu = line
        x3 = lam * lam + self.a1 * lam - self.a2 - P[0] - Q[0]
        return (x3, -(lam + self.a1) * x3 - nu - self.a3)

    def mul(self, k: int, P: LPoint) -> LPoint:
        """k*P by double and add."""
        if k < 0:
            return self.mul(-k, self.neg(P))
        acc = None
        base = P
        while k:
            if k & 1:
                acc = self.add(acc, base)
            k >>= 1
            if k:
                base = self.add(base, base)
        return acc


def curve_over(n: int, coeffs: Iterable) -> CurveL:
    """Build a curve at level n from rational coefficient data [a1,a2,a3,a4,a6]."""
    cs = list(coeffs)
    if len(cs) != 5:
        raise CurveError("need exactly [a1, a2, a3, a4, a6]")
    lifted = [c if isinstance(c, CycloElem) else CycloElem.rational(n, c) for c in cs]
    cv = CurveL(n, *lifted)
    # N(Delta) = 0 exactly when Delta = 0; the cached bad_modulus serves
    # later, so Delta is computed once per curve
    if cv.bad_modulus == 0:
        raise CurveError("singular model: discriminant is zero")
    return cv


def point_over(n: int, xy) -> LPoint:
    if xy is None:
        return None
    x, y = xy
    lift = lambda c: c if isinstance(c, CycloElem) else CycloElem.rational(n, c)
    return (lift(x), lift(y))


# --------------------------------------------------------------- orders


def point_exact_order(cv: CurveL, P: LPoint, bound: int = 32) -> int:
    """Smallest k >= 1 with kP = O, or raise if above the bound."""
    acc = P
    for k in range(1, bound + 1):
        if acc is None:
            return k
        acc = cv.add(acc, P)
    raise CurveError("point order exceeds bound %d (not torsion?)" % bound)


# ------------------------------------------------------------ reduction


def reduce_curve(cv: CurveL, place: Place) -> "CurveFp":
    if cv.n != place.n:
        raise CurveError("curve level %d vs place level %d" % (cv.n, place.n))
    if cv.bad_modulus % place.p == 0:
        raise CurveError("bad reduction at p=%d" % place.p)
    a = [reduce_at(c, place.p, place.omega) for c in cv.coefficient_list()]
    return CurveFp(place.p, *a)


def reduce_point(cv: CurveL, P: LPoint, place: Place) -> FpPoint:
    """Reduction of an L-point at a good place; points with a coordinate
    pole land on the zero section (None).  A coordinate whose denominator
    is prime to p is integral at every place over p and is read directly.
    One whose denominator p divides is read from its valuation and unit
    part at the place: p there may come from a pole at another place over
    p, so valuation 0 gives the unit part's residue, and a pole sends P
    to O."""
    if P is None:
        return None
    residues = []
    for c in P:
        if c.den % place.p:
            residues.append(reduce_at(c, place.p, place.omega))
            continue
        v, u = valuation_and_unit(c, place)
        if v < 0:
            return None
        residues.append(u if v == 0 else 0)
    return tuple(residues)


# =====================================================================
# curves over prime fields
# =====================================================================


class CurveFp(Record):
    """Long Weierstrass curve over F_p, p an odd prime."""

    __slots__ = ("p", "a1", "a2", "a3", "a4", "a6")

    def __init__(self, p: int, a1: int, a2: int, a3: int, a4: int, a6: int):
        if p < 3:
            raise CurveError("p must be an odd prime")
        super().__init__(p, a1 % p, a2 % p, a3 % p, a4 % p, a6 % p)
        if self.discriminant() == 0:
            raise CurveError("singular reduction mod %d" % p)

    def b_invariants(self) -> tuple:
        p = self.p
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = (a1 * a1 + 4 * a2) % p
        b4 = (2 * a4 + a1 * a3) % p
        b6 = (a3 * a3 + 4 * a6) % p
        b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4) % p
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % self.p

    def on_curve(self, P: FpPoint) -> bool:
        if P is None:
            return True
        x, y = P
        p = self.p
        return (y * y + self.a1 * x * y + self.a3 * y) % p == (
            x ** 3 + self.a2 * x * x + self.a4 * x + self.a6
        ) % p

    def neg(self, P: FpPoint) -> FpPoint:
        if P is None:
            return None
        x, y = P
        return (x, (-y - self.a1 * x - self.a3) % self.p)

    def chord(self, P: tuple, Q: tuple) -> Optional[tuple]:
        """The line through affine P and Q (the tangent when P = Q) as
        (lam, nu) with y = lam*x + nu on it, or None when it is vertical
        (Q = -P)."""
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y2 == (-y1 - self.a1 * x1 - self.a3) % p:
                return None
            inv = pow(2 * y1 + self.a1 * x1 + self.a3, -1, p)
            lam = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) * inv % p
            nu = (-(x1 ** 3) + self.a4 * x1 + 2 * self.a6 - self.a3 * y1) * inv % p
        else:
            inv = pow(x2 - x1, -1, p)
            lam = (y2 - y1) * inv % p
            nu = (y1 * x2 - y2 * x1) * inv % p
        return lam, nu

    def _third(self, P: tuple, Q: tuple, line: tuple) -> tuple:
        """P + Q, from the line through P and Q."""
        p = self.p
        lam, nu = line
        x3 = (lam * lam + self.a1 * lam - self.a2 - P[0] - Q[0]) % p
        return (x3, (-(lam + self.a1) * x3 - nu - self.a3) % p)

    def add(self, P: FpPoint, Q: FpPoint) -> FpPoint:
        """P + Q: chord and _third written out, with no line built.  The
        third point is (x3, lam*(x1 - x3) - y1 - a1*x3 - a3), since the
        line y = lam*(x - x1) + y1 passes through P."""
        if P is None:
            return Q
        if Q is None:
            return P
        p, a1 = self.p, self.a1
        x1, y1 = P
        x2, y2 = Q
        if x1 != x2:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        elif y2 == (-y1 - a1 * x1 - self.a3) % p:  # Q = -P
            return None
        else:
            lam = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - a1 * y1) * pow(
                2 * y1 + a1 * x1 + self.a3, -1, p) % p
        x3 = (lam * (lam + a1) - self.a2 - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1 - a1 * x3 - self.a3) % p)

    def mul(self, k: int, P: FpPoint) -> FpPoint:
        """k*P by left-to-right double and add, the doubling and the
        addition of P written out over ints, one inversion each; x is None
        at O.  The sum meets x(P) in an addition only as P or -P, which add
        takes."""
        if k < 0:
            return self.mul(-k, self.neg(P))
        if k == 0 or P is None:
            return None
        p, a1, a2, a3, a4 = self.p, self.a1, self.a2, self.a3, self.a4
        x, y = px, py = P
        for bit in bin(k)[3:]:
            if x is not None:
                den = (2 * y + a1 * x + a3) % p
                if den:
                    lam = (3 * x * x + 2 * a2 * x + a4 - a1 * y) * pow(den, -1, p) % p
                    x3 = (lam * (lam + a1) - a2 - 2 * x) % p
                    x, y = x3, (lam * (x - x3) - y - a1 * x3 - a3) % p
                else:  # 2-torsion
                    x = None
            if bit == "0":
                continue
            if x is None:
                x, y = px, py
            elif x != px:
                lam = (py - y) * pow(px - x, -1, p) % p
                x3 = (lam * (lam + a1) - a2 - x - px) % p
                x, y = x3, (lam * (x - x3) - y - a1 * x3 - a3) % p
            else:
                x, y = self.add((x, y), P) or (None, None)
        return None if x is None else (x, y)


class _RootsOnDemand:
    """Square roots mod p, one query at a time (Tonelli-Shanks): roots[g]
    is the root of g in [0, p/2), or -1 when g is not a square.  No O(p)
    table for a walk that stops after a few points.  Each answer is kept,
    so group_structure's walk and its complement scan, which share one
    instance, solve each value once."""

    def __init__(self, p: int):
        self.p = p
        self.odd, self.twos = p - 1, 0
        while self.odd % 2 == 0:
            self.odd, self.twos = self.odd // 2, self.twos + 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        self.c0 = pow(z, self.odd, p)
        self.known = {0: 0}

    def __getitem__(self, g: int) -> int:
        root = self.known.get(g)
        if root is None:
            root = self.known[g] = self._root(g)
        return root

    def _root(self, g: int) -> int:
        p = self.p
        if pow(g, (p - 1) // 2, p) != 1:
            return -1
        k, c = self.twos, self.c0
        t, r = pow(g, self.odd, p), pow(g, (self.odd + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2, i = t2 * t2 % p, i + 1
            b = pow(c, 1 << (k - i - 1), p)
            k, c, t, r = i, b * b % p, t * b * b % p, r * b % p
        return min(r, p - r)


def _affine_points(cfp: CurveFp, roots: _RootsOnDemand):
    """The affine points one at a time, in sorted order.  Complete the
    square in y, then read each square root from roots (p is odd)."""
    p = cfp.p
    inv2 = (p + 1) // 2
    for x in range(p):
        s = (cfp.a1 * x + cfp.a3) % p
        z = roots[(s * s + 4 * (x ** 3 + cfp.a2 * x * x + cfp.a4 * x + cfp.a6)) % p]
        if z < 0:
            continue
        y = (z - s) * inv2 % p
        if z == 0:
            yield (x, y)
            continue
        y_neg = (-z - s) * inv2 % p
        yield (x, min(y, y_neg))
        yield (x, max(y, y_neg))


def _count_points(cfp: CurveFp) -> int:
    """N = #E(F_p) as a Legendre sum, no point walked: over x lie as many
    points as 4x^3 + b2 x^2 + 2 b4 x + b6 has square roots mod p, read
    from a byte per residue.  Two passes over F_p, so group_structure
    calls it only when the Hasse interval leaves N open."""
    p = cfp.p
    roots = bytearray(p)
    for z in range(1, (p + 1) // 2):
        roots[z * z % p] = 2
    roots[0] = 1
    b2, b4, b6, _ = cfp.b_invariants()
    return 1 + sum(roots[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p))


def _hasse_interval(p: int) -> tuple[int, int]:
    """(lo, hi) with lo <= #E(F_p) <= hi: |N - p - 1| <= 2 sqrt(p)
    (Hasse; Silverman, AEC, Thm V.1.1), and N - p - 1 is an integer, so
    it is at most isqrt(4p) in size."""
    r = isqrt(4 * p)
    return p + 1 - r, p + 1 + r


def _hasse_multiple(cfp: CurveFp, P: FpPoint) -> int:
    """The least M in the Hasse interval with M*P = O, by baby-step
    giant-step over the interval's some 4 sqrt(p) integers: a table of
    k*P for k < s, then steps of -s*P from -lo*P, O(p^(1/4)) additions.
    N = #E(F_p) is such an M, so the search cannot come back empty; a
    table entry keeps its least k, so the first hit is the least M."""
    lo, hi = _hasse_interval(cfp.p)
    s = isqrt(hi - lo) + 1
    multiples = _multiples(cfp, P, s)
    baby: dict = {}
    for k, R in enumerate(multiples):
        baby.setdefault(R, k)
    giant = cfp.neg(cfp.add(multiples[-1], P))
    V = cfp.neg(cfp.mul(lo, P))
    for t in range((hi - lo) // s + 1):
        if V in baby:
            return lo + t * s + baby[V]
        V = cfp.add(V, giant)
    raise CurveError("no multiple of the point's order in the Hasse interval")


def _order_dividing(cfp: CurveFp, P: FpPoint, M: int, fac: dict[int, int]) -> Optional[int]:
    """The order of P when it divides M, else None; fac is the
    factorisation of M.  Per prime power q^e of M, the q-part of the
    order is the least q^f, f <= e, with q^f * (M/q^e)*P = O: one
    multiplication by M/q^e per prime, then multiplications by q."""
    o = 1
    for q, e in fac.items():
        R = cfp.mul(M // q ** e, P)
        for _ in range(e):
            if R is None:
                break
            R, o = cfp.mul(q, R), o * q
        if R is not None:
            return None
    return o


def _merge_orders(cfp, P, op, Q, oq):
    """Given points of orders op, oq return a point of order lcm(op, oq).

    Split the lcm into prime powers, pull each from whichever input carries
    it, and add; summands of pairwise coprime orders sum to full order."""
    g = op * oq // gcd(op, oq)
    acc: FpPoint = None
    for q, e in factorint(g).items():
        qe = q ** e
        src, so = (P, op) if op % qe == 0 else (Q, oq)
        acc = cfp.add(acc, cfp.mul(so // qe, src))
    return acc, g


class GroupStructure(Record):
    """E(F_p) = Z/d1 x Z/d2 with d1 | d2, plus certifying generators.

    g2 has exact order d2; for d1 > 1, g1 has exact order d1 and the cyclic
    groups <g1>, <g2> intersect trivially -- so |<g1> + <g2>| = d1*d2 = N
    and the decomposition is proven, not heuristic."""

    __slots__ = ("d1", "d2", "g1", "g2")

    def __init__(self, d1: int, d2: int, g1: FpPoint, g2: FpPoint):
        super().__init__(d1, d2, g1, g2)


def _pinned_order(cfp: CurveFp, lam: int) -> Optional[int]:
    """N = #E(F_p) when the shape test for the exponent lam may pass,
    else None.  The test passes only if N = lam*d with d | gcd(lam, p - 1),
    and N lies in the Hasse interval: while no such product does, N is
    not needed.  Otherwise lam | N makes N the multiple of lam in the
    interval when there is only one; only when there are several is N
    counted."""
    lo, hi = _hasse_interval(cfp.p)
    first, last = -(-lo // lam), hi // lam
    g = gcd(lam, cfp.p - 1)
    if not any(g % d == 0 for d in range(first, min(g, last) + 1)):
        return None
    return lam * first if first == last else _count_points(cfp)


def group_structure(cfp: CurveFp) -> GroupStructure:
    """E(F_p) as Z/d1 x Z/d2 with certifying generators.

    A walk raises the exponent lam, with W a point of order lam: once per
    pair {P, -P}, in sorted order, a P with lam*P != O is merged into W.
    Its order comes from a multiple of it in the Hasse interval
    (_hasse_multiple), so N = #E(F_p) is not needed to walk.  Each time
    lam rises, d1 = N/lam is tried as the other invariant factor when
    the shape Z/d1 x Z/lam allows it, d1 | lam and d1 | p - 1 (the Weil
    pairing puts mu_d1 in F_p).  N is pinned for that only once some
    lam*d1 of that shape lies in the Hasse interval (_pinned_order): as
    the one multiple of lam there, or by a count when there are several.
    The try (_complement) scans for T of order d1 with <T> & <W> = 0.
    When it finds one, |<T> + <W>| = d1*lam = N, so lam is the exponent:
    the rest of the walk could not move W, and the scan is a function of
    (W, lam) alone, so the result is the one the full walk would give.
    When the scan meets a point whose order does not divide lam, lam is
    not the exponent and the walk goes on where it stopped."""
    roots = _RootsOnDemand(cfp.p)
    N = None
    lam, W = 1, None
    prev_x = None
    for P in _affine_points(cfp, roots):
        # the points are sorted, so -P (same x) directly follows P, and
        # lam is already a multiple of ord(P) = ord(-P)
        if P[0] == prev_x:
            continue
        prev_x = P[0]
        if cfp.mul(lam, P) is None:
            continue
        M = _hasse_multiple(cfp, P)
        o = _order_dividing(cfp, P, M, factorint(M))
        if W is None:
            lam, W = o, P
        else:
            W, lam = _merge_orders(cfp, W, lam, P, o)
        N = N or _pinned_order(cfp, lam)
        if N is None:
            continue
        d1 = N // lam
        if d1 == 1:
            return GroupStructure(1, lam, None, W)
        if lam % d1 == 0 and (cfp.p - 1) % d1 == 0:
            T = _complement(cfp, roots, W, lam, d1)
            if T is not None:
                return GroupStructure(d1, lam, T, W)
    if W is None:  # no affine point: N = 1
        return GroupStructure(1, 1, None, None)
    # the walk ended, so every order divides lam, and lam times the other
    # invariant factor is N, in the Hasse interval: had the shape fit,
    # _complement would have returned T or raised
    raise CurveError("inconsistent group shape: N=%s, exponent=%d" % (N, lam))


def _multiples(cfp: CurveFp, P: FpPoint, k: int) -> list:
    """[0*P, 1*P, ..., (k-1)*P], one addition per multiple past P."""
    return [None, *accumulate(repeat(P, k - 1), cfp.add)]


def _complement(cfp, roots, W, lam, d1) -> Optional[tuple]:
    """The first T in sorted order, (o/d1)*P for a point P of order o
    divisible by d1, with <T> & <W> = 0; None as soon as a point's order
    does not divide lam.  Raises when every order divides lam (so lam is
    the exponent) and no T is found.  Each point is filtered before its
    order is read: per prime q | d1, with q^a || d1 and q^e || lam, let
    c = q^(e-a+1) and R = (lam/c)*P.  Then c*R = lam*P, and when that is
    O, q^a divides the order exactly when R != O.  Only a point that
    passes for every q has its order read against lam's factorisation.
    (d1/q)*T, q | d1 prime, has order q: it lies in <W> exactly when it
    lies in <(lam/q)*W>."""
    fac, dfac = factorint(lam), factorint(d1)
    subgroups = {q: set(_multiples(cfp, cfp.mul(lam // q, W), q)) for q in dfac}
    cuts = [q ** (fac[q] - a + 1) for q, a in dfac.items()]
    prev_x = None
    for P in _affine_points(cfp, roots):
        # -P follows P, with the same order, and would give -T
        if P[0] == prev_x:
            continue
        prev_x = P[0]
        R = cfp.mul(lam // cuts[0], P)
        if cfp.mul(cuts[0], R) is not None:
            return None
        if R is None or any(cfp.mul(lam // c, P) is None for c in cuts[1:]):
            continue
        T = cfp.mul(_order_dividing(cfp, P, lam, fac) // d1, P)
        if all(cfp.mul(d1 // q, T) not in sub for q, sub in subgroups.items()):
            return T
    raise CurveError("no independent generator found; group order miscounted?")


def divisibility_witness(cfp: CurveFp, st: GroupStructure, n: int, P: tuple):
    """Q with nQ = P for an affine P; None only when P is not in
    n*E(F_p).  O is its own witness, so it is not searched for.

    Q = i*g1 + j*g2 for the first (i, j), i outer, with n*(i*g1 + j*g2) = P.
    For each i, j is the discrete log of P - i*n*g1 to the base n*g2, of
    order h, by baby-step giant-step; i stops at the order of n*g1."""
    if P is None:
        raise CurveError("the witness of O is O: no search")
    nG1, nG2 = cfp.mul(n, st.g1), cfp.mul(n, st.g2)
    h = st.d2 // gcd(st.d2, n)
    s = isqrt(h - 1) + 1
    baby = {R: k for k, R in enumerate(_multiples(cfp, nG2, s))}
    giant, back = cfp.neg(cfp.mul(s, nG2)), cfp.neg(nG1)
    R = P
    for i in range(st.d1 // gcd(st.d1, n)):
        V = R
        for t in range(-(-h // s)):
            if V in baby:
                Q = cfp.add(cfp.mul(i, st.g1), cfp.mul(t * s + baby[V], st.g2))
                assert cfp.mul(n, Q) == P
                return Q
            V = cfp.add(V, giant)
        R = cfp.add(R, back)
    return None


# =====================================================================
# Pairings over F_p: the Weil pairing on E[n], read at one auxiliary
# prime by kummer, and the reduced Tate pairing, the sieve's test
# =====================================================================


def _miller_lines(cfp: CurveFp, n: int, P: FpPoint) -> list:
    """Miller's loop for f_{n,P}, div(f) = n(P) - n(O), as the lines it
    multiplies in, which do not depend on where f is evaluated.  One entry
    per step: (square f first, line through V and W, x of the vertical at
    V + W).  A line is (lam, nu) for y = lam*x + nu, or the x of a vertical
    one, or None for the constant 1.  Raises unless nP = O."""
    steps = []
    V = P
    for bit in bin(n)[3:]:
        for square in (True, False) if bit == "1" else (True,):
            W = V if square else P
            if V is None:  # kP = O already: the lines left cancel
                line, S = None, W
            else:
                line = cfp.chord(V, W)
                S = None if line is None else cfp._third(V, W, line)
                line = V[0] if line is None else line
            steps.append((square, line, None if S is None else S[0]))
            V = S
    if V is not None:
        raise CurveError("Miller loop: point is not %d-torsion" % n)
    return steps


def _fp_miller(cfp: CurveFp, lines: list, X: tuple) -> tuple:
    """f(X) mod p as (numerator, denominator) for the lines of
    _miller_lines.  Every line and vertical passes through
    multiples of the point the lines belong to only, so for X outside
    that cyclic group no factor is zero."""
    p = cfp.p
    x, y = X
    num = den = 1
    for square, line, vertical in lines:
        if square:
            num, den = num * num % p, den * den % p
        if line is not None:
            num = num * ((y - line[0] * x - line[1]) if isinstance(line, tuple) else (x - line)) % p
        if vertical is not None:
            den = den * (x - vertical) % p
    return num, den


def torsion_pool(cv, S, T, n: int) -> list:
    """All iS + jT for 0 <= i, j < n in row-major order (index i*n + j),
    one addition each: all of E[n] when (S, T) is a basis of it.  cv is a
    CurveFp or a CurveL: both have add."""
    pool = [None]
    for k in range(1, n * n):
        pool.append(cv.add(pool[k - 1], T) if k % n else cv.add(pool[k - n], S))
    return pool


def weil_pairing(cfp: CurveFp, n: int, P: FpPoint, Q: FpPoint, R: FpPoint) -> int:
    """The degree-n Weil pairing e_n(P, Q) of P, Q in E[n], an n-th root
    of unity mod p.

    n = 2 with P, Q distinct nontrivial is forced: the pairing is
    alternating and nondegenerate on a (Z/2)^2, so e_2(P,Q) = -1.  For
    larger n it is read at the auxiliary point R,

        e_n(P,Q) = f_P(Q+R) f_Q(-R) / ( f_P(R) f_Q(P-R) ),

    for R with R and Q + R outside <P>, and R and R - P outside <Q>: then
    no factor of the four Miller evaluations is zero (_fp_miller)."""
    p = cfp.p
    lines_P = _miller_lines(cfp, n, P)
    lines_Q = _miller_lines(cfp, n, Q)
    if P is None or Q is None or P == Q:
        return 1
    if n == 2:
        return p - 1
    a = _fp_miller(cfp, lines_P, cfp.add(Q, R))
    b = _fp_miller(cfp, lines_Q, cfp.neg(R))
    c = _fp_miller(cfp, lines_P, R)
    d = _fp_miller(cfp, lines_Q, cfp.add(P, cfp.neg(R)))
    return a[0] * b[0] * c[1] * d[1] * pow(a[1] * b[1] * c[0] * d[0], -1, p) % p


def tate_pairing(cfp: CurveFp, m: int, P: FpPoint, Q: tuple, R: tuple) -> int:
    """The reduced Tate pairing t_m(P, Q) = f_{m,Q}((P + R) - (R))^((p-1)/m),
    an m-th root of unity mod p, for Q in E(F_p)[m], m | p - 1, and an
    auxiliary point R with R and P + R outside <Q>."""
    p = cfp.p
    lines = _miller_lines(cfp, m, Q)
    a, b = _fp_miller(cfp, lines, cfp.add(P, R))
    c, d = _fp_miller(cfp, lines, R)
    return pow(a * d * pow(b * c, -1, p), (p - 1) // m, p)


def divisibility_by_pairing(cfp: CurveFp, m: int, P: FpPoint, basis: tuple) -> bool:
    """Whether P lies in m*E(F_p), for basis = (Q1, Q2) a basis of
    E[m] inside E(F_p), m >= 2 and m | p - 1.

    Under these hypotheses the reduced Tate pairing
    E(F_p)/mE(F_p) x E(F_p)[m] -> mu_m is non-degenerate (Frey and Rück,
    Math. Comp. 62, 1994), so P is in m*E(F_p) exactly when
    t_m(P, Q1) = t_m(P, Q2) = 1.  The auxiliary point R for each Q is the
    first affine point in ascending (x, y) with R and P + R outside <Q>.
    When there is none, E(F_p) lies in the union of <Q> and <Q> - P, so
    its m^2 or more points number at most 2m: then m = 2, E(F_p) = E[2]
    and 2*E(F_p) = O, which P is not."""
    if P is None:
        return True
    roots = _RootsOnDemand(cfp.p)
    for Q in basis:
        group = set(_multiples(cfp, Q, m))
        R = next(
            (R for R in _affine_points(cfp, roots)
             if R not in group and cfp.add(P, R) not in group),
            None,
        )
        if R is None or tate_pairing(cfp, m, P, Q, R) != 1:
            return False
    return True
