"""Elliptic curves in long Weierstrass form, over Q(zeta_n) and over F_p.

Two parallel implementations of the group law: an exact one with CycloElem
coordinates (used for torsion bases, Galois action, Weil pairings) and a
fast int one modulo p (used by the sieve on reductions).  Affine points are
(x, y) pairs; None is the point at infinity throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Optional

from .cyclo import CycloElem, GaloisAuto, galois_apply, reduce_at
from .localfield import Place, factorint, valuation


LPoint = Optional[tuple[CycloElem, CycloElem]]
FpPoint = Optional[tuple[int, int]]


class CurveError(ValueError):
    pass


@dataclass(frozen=True)
class CurveL:
    """y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q(zeta_n)."""

    n: int
    a1: CycloElem
    a2: CycloElem
    a3: CycloElem
    a4: CycloElem
    a6: CycloElem

    # --- invariants -----------------------------------------------------
    def b_invariants(self):
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * (a3 * a3) - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> CycloElem:
        b2, b4, b6, b8 = self.b_invariants()
        return -(b2 * b2) * b8 - 8 * (b4 ** 3) - 27 * (b6 * b6) + 9 * b2 * b4 * b6

    def is_rational_model(self) -> bool:
        return all(a.is_rational() for a in (self.a1, self.a2, self.a3, self.a4, self.a6))

    def coefficient_list(self):
        return [self.a1, self.a2, self.a3, self.a4, self.a6]

    # --- point predicates ------------------------------------------------
    def on_curve(self, P: LPoint) -> bool:
        if P is None:
            return True
        x, y = P
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x ** 3 + self.a2 * x * x + self.a4 * x + self.a6
        return lhs == rhs

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
        if k < 0:
            return self.mul(-k, self.neg(P))
        acc: LPoint = None
        base = P
        while k:
            if k & 1:
                acc = self.add(acc, base)
            k >>= 1
            if k:
                base = self.add(base, base)
        return acc

    def galois_point(self, auto: GaloisAuto, P: LPoint) -> LPoint:
        """Coordinate-wise Galois action; valid since the model must be
        rational for this to send the curve to itself."""
        if not self.is_rational_model():
            raise CurveError("Galois action needs a model with rational coefficients")
        if P is None:
            return None
        return (galois_apply(auto, P[0]), galois_apply(auto, P[1]))


def curve_over(n: int, coeffs: Iterable) -> CurveL:
    """Build a curve at level n from rational coefficient data [a1,a2,a3,a4,a6]."""
    cs = list(coeffs)
    if len(cs) != 5:
        raise CurveError("need exactly [a1, a2, a3, a4, a6]")
    lifted = [c if isinstance(c, CycloElem) else CycloElem.rational(n, c) for c in cs]
    cv = CurveL(n, *lifted)
    if cv.discriminant().is_zero():
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


# ------------------------------------------------------------ bad primes


def bad_set(cv: CurveL) -> set[int]:
    """Primes of bad reduction of the given integral rational model."""
    if not cv.is_rational_model():
        raise CurveError("bad_set needs a rational model")
    for a in cv.coefficient_list():
        if not a.is_integral():
            raise CurveError("bad_set needs an integral model")
    disc = cv.discriminant().rational_value()
    return set(factorint(int(disc)))


# ------------------------------------------------------------ reduction


def has_good_reduction(cv: CurveL, place: Place) -> bool:
    for a in cv.coefficient_list():
        if not a.is_zero() and valuation(a, place) < 0:
            return False
    return valuation(cv.discriminant(), place) == 0


def reduce_curve(cv: CurveL, place: Place) -> "CurveFp":
    if cv.n != place.n:
        raise CurveError("curve level %d vs place level %d" % (cv.n, place.n))
    if not has_good_reduction(cv, place):
        raise CurveError("bad reduction at p=%d" % place.p)
    a = [reduce_at(c, place.p, place.omega) for c in cv.coefficient_list()]
    return CurveFp(place.p, *a)


def reduce_point(cv: CurveL, P: LPoint, place: Place) -> FpPoint:
    """Reduction of an L-point at a good place; points with a coordinate
    pole land on the zero section (None)."""
    if P is None:
        return None
    x, y = P
    if (not x.is_zero() and valuation(x, place) < 0) or (
        not y.is_zero() and valuation(y, place) < 0
    ):
        return None
    return (reduce_at(x, place.p, place.omega), reduce_at(y, place.p, place.omega))


# =====================================================================
# curves over prime fields
# =====================================================================


@dataclass(frozen=True)
class CurveFp:
    """Long Weierstrass curve over F_p, p an odd prime."""

    p: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def __post_init__(self):
        if self.p < 3:
            raise CurveError("p must be an odd prime")
        for f in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, f, getattr(self, f) % self.p)
        if self.discriminant() == 0:
            raise CurveError("singular reduction mod %d" % self.p)

    def discriminant(self) -> int:
        p = self.p
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = (a1 * a1 + 4 * a2) % p
        b4 = (2 * a4 + a1 * a3) % p
        b6 = (a3 * a3 + 4 * a6) % p
        b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4) % p
        return (-b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6) % p

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

    def add(self, P: FpPoint, Q: FpPoint) -> FpPoint:
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if y2 == (-y1 - self.a1 * x1 - self.a3) % p:
                return None
            den = (2 * y1 + self.a1 * x1 + self.a3) % p
            inv = pow(den, -1, p)
            lam = (3 * x1 * x1 + 2 * self.a2 * x1 + self.a4 - self.a1 * y1) * inv % p
            nu = (-(x1 ** 3) + self.a4 * x1 + 2 * self.a6 - self.a3 * y1) * inv % p
        else:
            inv = pow(x2 - x1, -1, p)
            lam = (y2 - y1) * inv % p
            nu = (y1 * x2 - y2 * x1) * inv % p
        x3 = (lam * lam + self.a1 * lam - self.a2 - x1 - x2) % p
        y3 = (-(lam + self.a1) * x3 - nu - self.a3) % p
        return (x3, y3)

    def mul(self, k: int, P: FpPoint) -> FpPoint:
        if k < 0:
            return self.mul(-k, self.neg(P))
        acc: FpPoint = None
        base = P
        while k:
            if k & 1:
                acc = self.add(acc, base)
            k >>= 1
            if k:
                base = self.add(base, base)
        return acc


def _square_roots(p: int) -> memoryview:
    """roots[g] is the square root of g mod p in [0, p/2), or -1 when g is
    not a square: a C int per residue (all bits set is -1), no object per
    entry."""
    roots = memoryview(bytearray(b"\xff" * (4 * p))).cast("i")
    for z in range((p + 1) // 2):
        roots[z * z % p] = z
    return roots


def _affine_points(cfp: CurveFp, roots: memoryview):
    """The affine points one at a time, in sorted order.  Complete the
    square in y, then read square roots off the table (p is odd)."""
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


class _PointWalk:
    """The sorted affine points of E(F_p), generated anew on each pass
    instead of held: a list of them is some 1.5 MB at p ~ 13000."""

    def __init__(self, cfp: CurveFp):
        self.cfp, self.roots = cfp, _square_roots(cfp.p)
        self.count = sum(1 for _ in self)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return _affine_points(self.cfp, self.roots)


def enumerate_points(cfp: CurveFp) -> list[tuple[int, int]]:
    """All affine points, sorted."""
    return list(_affine_points(cfp, _square_roots(cfp.p)))


def _fp_point_order(cfp: CurveFp, P: FpPoint, N: int, fac: dict[int, int]) -> int:
    o = N
    for q in fac:
        while o % q == 0 and cfp.mul(o // q, P) is None:
            o //= q
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


@dataclass(frozen=True)
class GroupStructure:
    """E(F_p) = Z/d1 x Z/d2 with d1 | d2, plus certifying generators.

    g2 has exact order d2; for d1 > 1, g1 has exact order d1 and the cyclic
    groups <g1>, <g2> intersect trivially -- so |<g1> + <g2>| = d1*d2 = N
    and the decomposition is proven, not heuristic."""

    d1: int
    d2: int
    g1: FpPoint
    g2: FpPoint


def group_structure(cfp: CurveFp) -> GroupStructure:
    pts = _PointWalk(cfp)
    N = len(pts) + 1
    fac = factorint(N)
    lam, W = 1, None
    prev_x = None
    for P in pts:
        # pts is sorted, so -P (same x) directly follows P, and lam is
        # already a multiple of ord(P) = ord(-P)
        if P[0] == prev_x:
            continue
        prev_x = P[0]
        if cfp.mul(lam, P) is None:
            continue
        o = _fp_point_order(cfp, P, N, fac)
        if W is None:
            lam, W = o, P
        else:
            W, lam = _merge_orders(cfp, W, lam, P, o)
        if lam == N:
            break
    d1 = N // lam
    if d1 == 1:
        return GroupStructure(1, lam, None, W)
    if lam % d1 != 0 or (cfp.p - 1) % d1 != 0:
        raise CurveError("inconsistent group shape: N=%d, exponent=%d" % (N, lam))
    cyclic = set()
    acc: FpPoint = None
    for _ in range(lam):
        cyclic.add(acc)
        acc = cfp.add(acc, W)
    fac_d1 = factorint(d1)
    for P in pts:
        o = _fp_point_order(cfp, P, N, fac)
        if o % d1 != 0:
            continue
        T = cfp.mul(o // d1, P)
        if all(cfp.mul(d1 // q, T) not in cyclic for q in fac_d1):
            return GroupStructure(d1, lam, T, W)
    raise CurveError("no independent generator found; group order miscounted?")


def _image_walk(cfp: CurveFp, st: GroupStructure, n: int):
    """(n*(i*g1 + j*g2), i, j) for i < d1 (i = 0 if g1 is None), j < d2,
    i outer: every point of n*E(F_p), some more than once."""
    nG1 = cfp.mul(n, st.g1) if st.g1 is not None else None
    nG2 = cfp.mul(n, st.g2)
    P1: FpPoint = None
    for i in range(st.d1 if st.g1 is not None else 1):
        P2 = P1
        for j in range(st.d2):
            yield P2, i, j
            P2 = cfp.add(P2, nG2)
        P1 = cfp.add(P1, nG1)


def multiplication_image(cfp: CurveFp, st: GroupStructure, n: int) -> dict:
    """The subgroup n*E(F_p) as a dict point -> (i, j) with witness data:
    point = n*(i*g1 + j*g2).  Includes the zero section under key None."""
    out = {}
    for P, i, j in _image_walk(cfp, st, n):
        if P not in out:
            out[P] = (i, j)
    return out


def divisibility_witness(cfp: CurveFp, st: GroupStructure, n: int, P: FpPoint):
    """If P lies in n*E(F_p), return Q with nQ = P, else None.  Q comes
    from the first (i, j) of the walk that hits P, the pair
    multiplication_image records; the walk stops there, no image is held."""
    for R, i, j in _image_walk(cfp, st, n):
        if R == P:
            Q = cfp.add(cfp.mul(i, st.g1) if st.g1 is not None else None, cfp.mul(j, st.g2))
            assert cfp.mul(n, Q) == P
            return Q
    return None


# =====================================================================
# Weil pairing (exact, over the cyclotomic coefficient field)
# =====================================================================


class AuxCollision(ArithmeticError):
    """Internal: the auxiliary point hit a zero/pole; redraw and retry."""


def _miller_lines(cv: CurveL, n: int, P: LPoint) -> list:
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
                line = cv.chord(V, W)
                S = None if line is None else cv._third(V, W, line)
                line = V[0] if line is None else line
            steps.append((square, line, None if S is None else S[0]))
            V = S
    if V is not None:
        raise CurveError("weil_pairing: inputs are not %d-torsion" % n)
    return steps


def _miller(cv: CurveL, lines: list, X: LPoint) -> tuple:
    """f(X) as (numerator, denominator) for the lines of _miller_lines."""
    if X is None:
        raise AuxCollision("evaluation at infinity")
    xX, yX = X
    num = den = CycloElem.rational(cv.n, 1)
    for square, line, vertical in lines:
        if square:
            num, den = num * num, den * den
        if line is not None:
            value = yX - line[0] * xX - line[1] if isinstance(line, tuple) else xX - line
            if value.is_zero():
                raise AuxCollision("line through the evaluation point")
            num = num * value
        if vertical is not None:
            value = xX - vertical
            if value.is_zero():
                raise AuxCollision("vertical through the evaluation point")
            den = den * value
    return num, den


def weil_pairing(cv: CurveL, n: int, P: LPoint, Q: LPoint, pool: Iterable[LPoint]) -> CycloElem:
    """The degree-n Weil pairing e_n(P, Q), an exact n-th root of unity.

    n = 2 with P, Q distinct nontrivial is forced: the pairing is
    alternating and nondegenerate on a (Z/2)^2, so e_2(P,Q) = -1.  For
    larger n, auxiliary points are drawn from the pool (deterministic
    order) until the four Miller evaluations avoid zeros and poles:

        e_n(P,Q) = f_P(Q+R) f_Q(-R) / ( f_P(R) f_Q(P-R) )

    Each f is kept as a numerator and a denominator; the one division is
    at the end.
    """
    lines_P = _miller_lines(cv, n, P)
    lines_Q = _miller_lines(cv, n, Q)
    if P is None or Q is None or P == Q:
        return CycloElem.rational(cv.n, 1)
    if n == 2:
        return CycloElem.rational(cv.n, -1)
    P_minus_Q = cv.add(P, cv.neg(Q))
    for R in pool:
        if R is None or R == P or R == cv.neg(Q) or R == P_minus_Q:
            continue
        try:
            a = _miller(cv, lines_P, cv.add(Q, R))
            b = _miller(cv, lines_Q, cv.neg(R))
            c = _miller(cv, lines_P, R)
            d = _miller(cv, lines_Q, cv.add(P, cv.neg(R)))
            return (a[0] * b[0] * c[1] * d[1]) / (a[1] * b[1] * c[0] * d[0])
        except (AuxCollision, ZeroDivisionError):
            continue
    raise CurveError("weil_pairing: auxiliary pool exhausted")


def zeta_dlog(value: CycloElem, n: int) -> int:
    """k with value = (zeta of exact order n)^k, inside level value.n."""
    if value.n % n != 0:
        raise ValueError("level %d has no mu_%d" % (value.n, n))
    z = CycloElem.zeta(value.n, value.n // n)
    acc = CycloElem.rational(value.n, 1)
    for k in range(n):
        if acc == value:
            return k
        acc = acc * z
    raise ValueError("value is not an n-th root of unity: %r" % (value,))


def torsion_pool(cv: CurveL, S: LPoint, T: LPoint, n: int) -> list[LPoint]:
    """All iS + jT for 0 <= i, j < n in row-major order (index i*n + j),
    one addition each: the deterministic auxiliary pool of the Weil
    pairing, and all of E[n] when (S, T) is a basis of it."""
    pool: list[LPoint] = [None]
    for k in range(1, n * n):
        pool.append(cv.add(pool[k - 1], T) if k % n else cv.add(pool[k - n], S))
    return pool
